"""Benchmark of the orthospec command-line pipelines.

Usage, from the root of a checkout::

    python3 bench/run.py --workload marked-points --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations (see ``workloads.py``) until
``--seconds`` have passed.  Each operation is one subcommand in its own
interpreter, started by ``launch.py`` with ``--workers 1``, followed by the
check of its artifacts; the next starts only after that (a closed loop with
one client).  With ``--trace 0`` the end-to-end metrics are reported, with
``--trace 1`` the per-layer metrics from spans recorded by ``spans.py``.
Every figure is the median over the run's rounds.  The last line of standard
output is one JSON object; a fuller record with the machine facts is written
under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # subcommands still running this long after the start are killed


def blas_facts() -> dict:
    """BLAS library from numpy's build record and the thread count it runs with."""
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": f"{info.get('name', '?')} {info.get('version', '')}".strip(),
             "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), **blas_facts()}


def launch(src: Path, op_dir: Path, argv: list, trace: bool, timeout: float) -> dict:
    """Run one subcommand in a fresh interpreter and time it from outside."""
    record_path = op_dir / "launch.json"
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "launch.py"), str(src), str(record_path), "1" if trace else "0", "--",
            *argv]
    with open(op_dir / "stderr.txt", "wb") as err, open(op_dir / "stdout.txt", "wb") as out:
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    rec = {"code": proc.returncode, "wall_s": t_exit - t_launch,
           "rss_mb": usage.ru_maxrss / 1024.0, "setup_s": None, "spans": []}
    if record_path.exists():
        with open(record_path, encoding="utf-8") as fh:
            stamps = json.load(fh)
        rec["setup_s"] = stamps["t_main"] - t_launch
        rec["spans"] = stamps.get("spans", [])
    return rec


def run_op(src: Path, work: Path, op, trace: bool, timeout: float = CHILD_TIMEOUT_S) -> tuple:
    """Launch one operation and check it; returns (launch record, failure messages)."""
    op_dir = work / op.name
    out = op_dir / "out"
    shutil.rmtree(op_dir, ignore_errors=True)
    out.mkdir(parents=True)
    config = op_dir / "config.json"
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(op.config, fh, indent=1)
    argv = [op.argv[0], "--config", str(config), "--out", str(out), "--workers", "1",
            *op.argv[1:]]
    rec = launch(src, op_dir, argv, trace, timeout)
    stderr = (op_dir / "stderr.txt").read_text(errors="replace")
    if trace:
        rec["stderr"] = stderr
    if rec["code"] != 0 or rec["setup_s"] is None:
        tail = stderr.strip().splitlines()[-1:]
        return rec, [f"exit code {rec['code']}: {' '.join(tail)}"]
    try:
        return rec, op.check(out)
    except Exception as exc:  # a malformed or missing artifact fails the operation
        return rec, [f"check raised {type(exc).__name__}: {exc}"]


def warm_up(src: Path) -> None:
    """Compile the package's bytecode and warm the file cache before timing."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import orthospec.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "orthospec" / "cli.py").is_file():
        print(f"run.py: no orthospec sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    ops = workloads.build(args.workload, args.seed)
    warm_up(src)
    rounds = []
    attempted = failed = 0
    unexpected = []
    t_begin = time.monotonic()
    try:
        while True:
            records = []
            for op in ops:
                timeout = min(CHILD_TIMEOUT_S, max(1.0, deadline - time.monotonic()))
                rec, failures = run_op(src, work, op, trace, timeout)
                attempted += 1
                if failures:
                    failed += 1
                    if not op.known_failure:
                        unexpected.append((op.name, failures))
                    print(f"FAIL {op.name}: {'; '.join(failures)}")
                records.append(rec)
            rounds.append(records)
            if time.monotonic() - t_begin >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        per_round = [spans.layer_metrics([(r["spans"], r.get("stderr", "")) for r in recs])
                     for recs in rounds]
        units = {name: spans.unit_of(name) for name in per_round[0]}
    else:
        per_round = [{
            "wall_s": sum(r["wall_s"] for r in recs),
            "setup_s": sum(r["setup_s"] or 0.0 for r in recs),
            "peak_rss_mb": max(r["rss_mb"] for r in recs),
        } for recs in rounds]
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
               for name, unit in units.items()}

    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"args": vars(args), "machine": machine_facts(), "rounds": len(rounds),
              "per_round": per_round, "operations": [op.name for op in ops],
              "known_failures": {op.name: op.known_failure for op in ops if op.known_failure},
              "unexpected_failures": unexpected,
              "per_op": [[{k: r[k] for k in ("code", "wall_s", "setup_s", "rss_mb")}
                          for r in recs] for recs in rounds],
              "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for key, m in sorted(metrics.items()):
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {attempted}, failed {failed}, rounds {len(rounds)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
