"""Run every workload untraced and traced, and print all metrics.

Usage, from the root of a checkout::

    python3 bench/all.py --seed 1 --seconds 20

For each workload this runs ``run.py`` with ``--trace 0`` (end-to-end
metrics) and ``--trace 1`` (per-layer metrics), prints every metric line
and the attempted and failed operation counts, and the tracing overhead:
the traced run's median round wall time minus the untraced ``wall_s``.
Exits 1 when a run fails or reports ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    ok = True
    for workload in workloads.WORKLOADS:
        walls = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            ok = ok and json.loads(lines[-1])["correct"]
            record = Path(".bench_work/results") / f"{workload}-seed{args.seed}-trace{trace}.json"
            with open(record, encoding="utf-8") as fh:
                per_op = json.load(fh)["per_op"]
            walls[trace] = statistics.median(sum(op["wall_s"] for op in r) for r in per_op)
        if len(walls) == 2:
            extra = walls[1] - walls[0]
            print(f"{workload} tracing overhead = {extra:.3f} s ({extra / walls[0]:.1%} of wall_s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
