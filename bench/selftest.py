"""Self-test of the benchmark's references and checks.

Usage, from the root of a checkout::

    python3 bench/selftest.py

Part 1 pins each reference computation against the figures printed by the
standalone scripts in ``tests/oracles`` (frozen below) or, where no script
prints one, against an independent quadrature.  Part 2 runs one round of
every workload, then feeds each check perturbed copies of the real
artifacts (a length moved by 1e-6, a dropped record, a scan line moved by
0.02, a Guinand side scaled by 1 + 1e-2, ...) and requires every one of
them to fail.  The window-edge check must fail on the real artifact and
pass once the missing record is restored.  Exits 1 on any miss.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
from scipy import integrate

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# figures printed by tests/oracles/*.py
ORACLE = {
    # oracle_counting.py
    "N400_points_d2": 12744,
    "ball_pair_coeffs_R0.5": (0.01688686, 0.0253303, 0.01266515),  # T^3, T^2, T^1
    # oracle_epstein.py: sum of |2 pi xi|^-3 over 0 < |2 pi xi| <= 200 in d = 2
    "epstein_head_200": 0.03562248231270755,
    # oracle_spectral_fit.py
    "c3": 0.10132118364233778,
    # oracle_ellipse.py
    "perimeter_1.3_0.7": 6.425370742838925,
    "res_ellipse": (0.16275654225132175, 0.15915494309189535),
    # oracle_oscint.py
    "2piJ0": {5.0: -1.1158734241247834, 50.0: 0.3506791971709374, 377.0: 0.18412625393897686},
    "4pi_sinc": {5.0: -2.4100395653045092, 200.0: -0.054870887466546156},
    # oracle_guinand.py, d = 3 block
    "guinand_sides": (0.07224723255383038 - 0.14975749111904552j,
                      0.07224723255383002 - 0.1497574911190461j),
}


def _close(got, want, rel: float) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= rel * np.maximum(np.abs(want), 1e-300)))


def reference_checks() -> list:
    """(name, passed) for every reference computation."""
    out = []
    _, ln = ref.point_lengths(np.zeros(2), 0.0, 400.0)
    out.append(("point lengths: N(400), d = 2", ln.size == ORACLE["N400_points_d2"]))
    _, ln = ref.point_lengths(np.zeros(2), 0.0, 200.0)
    out.append(("point lengths: Epstein head", _close(np.sum(ln ** -3.0),
                                                      ORACLE["epstein_head_200"], 1e-12)))
    v = np.array([1.0, 0.7, 0.3])
    _, ln = ref.point_lengths(v, 0.0, 170.0)
    s = np.array([0.2, 1.0, 2.0])
    dual = [ref.poincare_dual(v, x) for x in s]
    out.append(("direct Poincare sums: dual form with c3 = 1/pi^2",
                _close(1.0 / math.pi**2, ORACLE["c3"], 1e-15)
                and _close(ref.poincare_direct(ln, s).real, dual, 1e-10)))
    x, y = np.array([0.2, 1.1, -0.4]), np.array([0.9, 0.3, 0.5])
    beta0 = np.array([0.2, -0.4, 0.1])
    want_len, want_spec = ORACLE["guinand_sides"]
    out.append(("Guinand length side", _close(
        ref.guinand_length_side(y - x, beta0, 4.7, 0.12, 90.0), want_len, 1e-12)))
    out.append(("Guinand spectral side", _close(
        ref.guinand_spectral_side(y - x, beta0, 4.7, 0.12), want_spec, 1e-12)))
    out.append(("first spectral line", _close(ref.first_line(beta0), np.linalg.norm(beta0), 1e-15)))
    out.append(("sums of three squares", ref.sums_of_three_squares(10).tolist()
                == [0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    for t, want in ORACLE["2piJ0"].items():
        out.append((f"2 pi J0({t:g})", _close(ref.sphere_transform(2, t), want, 1e-13)))
        if t == 50.0:
            corr = ref.correlation({(1, 0): 1.0}, {(-1, 0): 1.0}, [0.0, 0.0], t)
            disc = ref.disc_average({(1, 0): 1.0}, [0.0, 0.0], 0.0, t)
            out.append(("correlation closed form, one mode", _close(corr, want, 1e-13)))
            out.append(("disc average closed form, one mode", _close(disc, want / (2 * math.pi),
                                                                     1e-13)))
    for rho, want in ORACLE["4pi_sinc"].items():
        out.append((f"4 pi sinc({rho:g})", _close(ref.sphere_transform(3, rho), want, 1e-13)))
    V = ref.ellipse_intrinsic(1.3, 0.7)
    out.append(("ellipse perimeter", _close(2.0 * V[1], ORACLE["perimeter_1.3_0.7"], 1e-14)))
    out.append(("ellipse residues", _close(ref.zeta_residues(V), ORACLE["res_ellipse"], 1e-14)))
    coeffs = np.array(ORACLE["ball_pair_coeffs_R0.5"])
    out.append(("ball residues", _close(ref.zeta_residues(ref.ball_intrinsic(3, 0.5)),
                                        coeffs[::-1] * [1, 2, 3], 1e-6)))
    out.append(("parallel body of a point is a ball",
                _close(ref.parallel_intrinsic(np.array([1.0, 0, 0, 0]), 0.7),
                       ref.ball_intrinsic(3, 0.7), 1e-14)))
    a, b, c = 1.1, 0.8, 0.6
    opts = {"epsabs": 0.0, "epsrel": 1e-12}
    mean_h, _ = integrate.dblquad(
        lambda ph, th: math.sin(th) * math.sqrt((a * math.sin(th) * math.cos(ph)) ** 2
                                                + (b * math.sin(th) * math.sin(ph)) ** 2
                                                + (c * math.cos(th)) ** 2),
        0.0, math.pi, 0.0, 2.0 * math.pi, **opts)
    area, _ = integrate.dblquad(
        lambda ph, th: math.sin(th) * math.sqrt(
            (b * c * math.sin(th) * math.cos(ph)) ** 2 + (a * c * math.sin(th) * math.sin(ph)) ** 2
            + (a * b * math.cos(th)) ** 2),
        0.0, math.pi, 0.0, 2.0 * math.pi, **opts)
    out.append(("ellipsoid intrinsic volumes against quadrature", _close(
        ref.ellipsoid_intrinsic(a, b, c)[1:3], [mean_h / math.pi, area / 2.0], 1e-9)))
    b1 = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.3}
    b2 = {"kind": "ball", "center": [0.5, 0.1, 0.0], "radius": 0.2}
    L = ref.Difference(ref.Body(3, b1), ref.Body(3, b2))
    _, got = ref.body_lengths(L, 2.0, 40.0)
    _, want = ref.point_lengths(np.array([-0.5, -0.1, 0.0]), 2.5, 40.5)
    out.append(("body lengths of a ball pair", got.size == want.size
                and _close(got, want - 0.5, 1e-13)))
    egg = {"kind": "ellipsoid", "center": [0.1, 0.0, 0.2], "semiaxes": [0.5, 0.35, 0.25],
           "rotation": np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0].tolist()}
    L = ref.Difference(ref.Body(3, egg), ref.Body(3, b2))
    xi, ln = ref.body_lengths(L, 3.0, 30.0)
    probe = ref.fibonacci_sphere(20000)
    picks = range(0, xi.shape[0], max(1, xi.shape[0] // 5))
    out.append(("fixed point against grid search, ellipsoid pair", all(
        abs(ref.brute_max(L, 2.0 * math.pi * xi[i], probe) - ln[i]) <= 1e-9 for i in picks)))
    return out


# ---------------------------------------------------------------------------
# perturbed artifacts


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv(path: Path, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def edit_csv(name: str, col: int, fn, row: int = 1):
    """Apply fn to one cell (row counts the header as 0)."""
    def mutate(out: Path):
        rows = _read_csv(out / name)
        rows[row][col] = repr(fn(float(rows[row][col])))
        _write_csv(out / name, rows)
    return mutate


def drop_row(name: str, row: int = 1):
    def mutate(out: Path):
        rows = _read_csv(out / name)
        del rows[row]
        _write_csv(out / name, rows)
    return mutate


def edit_json(name: str, keys: tuple, fn):
    def mutate(out: Path):
        with open(out / name, encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = fn(node[keys[-1]])
        with open(out / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return mutate


def scale_column(name: str, col: int, fn):
    """Apply fn(t, value) to every data row, t being column 0."""
    def mutate(out: Path):
        rows = _read_csv(out / name)
        for r in rows[1:]:
            r[col] = repr(fn(float(r[0]), float(r[col])))
        _write_csv(out / name, rows)
    return mutate


def _scan_line(fn):
    def edit(lines):
        i = next(k for k, ln in enumerate(lines) if ln["location"] >= 0.1)
        lines[i] = fn(dict(lines[i]))
        return lines
    return edit


SHIFT = 1e-6
PERTURBATIONS = {
    "spectrum": [
        ("one length moved by 1e-6", edit_csv("spectrum.csv", 6, lambda x: x + SHIFT, 100)),
        ("one record dropped", drop_row("spectrum.csv", 100)),
        ("one class changed", edit_csv("spectrum.csv", 0, lambda x: int(x) + 1, 100)),
    ],
    "poincare": [
        ("one value scaled by 1 + 1e-8", edit_csv("poincare_values.csv", 2,
                                                 lambda x: x * (1 + 1e-8))),
        ("a scan line moved by 0.02", edit_json("scan.json", ("lines",), _scan_line(
            lambda ln: {**ln, "location": ln["location"] + 0.02}))),
        ("a scan exponent moved to -2.5", edit_json("scan.json", ("lines",), _scan_line(
            lambda ln: {**ln, "exponent": -2.5}))),
        ("scan lines dropped", edit_json("scan.json", ("lines",), lambda ls: ls[:2])),
        ("dual column scaled by 1 + 1e-5", edit_csv("spectral.csv", 4,
                                                   lambda x: x * (1 + 1e-5))),
    ],
    "guinand": [
        ("length side scaled by 1 + 1e-2", edit_json("guinand.json", ("length_side_re",),
                                                     lambda x: x * 1.01)),
        ("spectral side scaled by 1 + 1e-2", edit_json("guinand.json", ("spectral_side_im",),
                                                       lambda x: x * 1.01)),
    ],
    "volumes": [
        ("ellipsoid V2 scaled by 1 + 1e-6", edit_json("volumes.json", ("egg", "intrinsic", "V2"),
                                                      lambda x: x * (1 + 1e-6))),
        ("harmonic V1 scaled by 1 + 1e-6", edit_json("volumes.json", ("lump", "intrinsic", "V1"),
                                                     lambda x: x * (1 + 1e-6))),
    ],
    "zeta-ellipse-point": [
        ("residue scaled by 1 + 1e-6", edit_json("residues.json", (0, "residue_re"),
                                                 lambda x: x * (1 + 1e-6))),
    ],
    "zeta-ellipsoid-ball": [
        ("predicted residue scaled by 1 + 1e-6", edit_json(
            "residues.json", (1, "predicted_from_volumes"), lambda x: x * (1 + 1e-6))),
    ],
    "zeta-twist": [
        ("twist not certified", edit_json("twist.json", ("certified",), lambda x: False)),
    ],
    "spectrum-ellipsoid-ball": [
        ("one length moved by 1e-6", edit_csv("spectrum.csv", 6, lambda x: x + SHIFT, 50)),
        ("one record dropped", drop_row("spectrum.csv", 50)),
        ("one direction tilted by 1e-6", edit_csv("spectrum.csv", 3, lambda x: x + SHIFT, 50)),
    ],
    "spectrum-harmonic-ball": [
        ("last record dropped", drop_row("spectrum.csv", -1)),
    ],
    "oscint-3d": [
        ("one value moved by 1e-9", edit_csv("oscint.csv", 1, lambda x: x + 1e-9, 3)),
        ("cap exponent -2.9", edit_json("oscint.json", ("cap_exponent",), lambda x: -2.9)),
    ],
    "oscint-2d": [
        ("one value moved by 1e-9", edit_csv("oscint.csv", 2, lambda x: x + 1e-9, 5)),
    ],
    "correlate-2d": [
        ("one correlation moved by 1e-8", edit_csv("correlate.csv", 1, lambda x: x + 1e-8, 2)),
        ("a norm made negative", edit_json("norms.json", ("norms", "phi"), lambda x: -x)),
    ],
    "correlate-3d": [
        ("one expansion value moved by 1e-8", edit_csv("correlate.csv", 4,
                                                       lambda x: x + 1e-8, 2)),
    ],
    "equidist-disc": [
        ("one average moved by 1e-10", edit_csv("equidist.csv", 1, lambda x: x + 1e-10, 4)),
    ],
    "equidist-ellipsoid": [
        ("error decay slowed by t^0.2", scale_column("equidist.csv", 5,
                                                     lambda t, x: x * t**0.2)),
    ],
}


def restore_edge_row(op, out: Path) -> None:
    """Append the brute-force records missing from the window-edge table."""
    cfg = op.config
    v = np.subtract(cfg["bodies"]["a"]["x"], cfg["bodies"]["b"]["x"])
    xi, ln = ref.point_lengths(v, cfg["ranges"]["T0"], cfg["ranges"]["T"])
    rows = _read_csv(out / "spectrum.csv")
    have = {tuple(int(c) for c in r[:2]) for r in rows[1:]}
    for k, length in zip(xi, ln):
        if tuple(k) not in have:
            theta = (2.0 * math.pi * k - v) / length
            rows.append([int(k[0]), int(k[1]), repr(float(theta[0])), repr(float(theta[1])),
                         repr(float(length)), "1.0", "0.0"])
    _write_csv(out / "spectrum.csv", rows)


def artifact_checks(root: Path) -> list:
    out = []
    src = root / "src"
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, 0):
                _, failures = run.run_op(src, work, op, trace=False)
                real = work / op.name / "out"
                if op.name == "window-edge":
                    out.append(("window-edge fails on today's artifact", bool(failures)))
                    fixed = work / "fixed"
                    shutil.copytree(real, fixed)
                    restore_edge_row(op, fixed)
                    out.append(("window-edge passes with the missing record restored",
                                not op.check(fixed)))
                    shutil.rmtree(fixed)
                    continue
                out.append((f"{workload}/{op.name} passes on the real artifacts", not failures))
                for what, mutate in PERTURBATIONS.get(op.name, []):
                    bad = work / "perturbed"
                    shutil.copytree(real, bad)
                    mutate(bad)
                    out.append((f"{op.name}: {what} is caught", bool(op.check(bad))))
                    shutil.rmtree(bad)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "orthospec" / "cli.py").is_file():
        print("selftest.py: run from the repository root", file=sys.stderr)
        return 2
    results = reference_checks() + artifact_checks(root)
    for name, ok in results:
        print(f"{'ok  ' if ok else 'MISS'} {name}")
    missed = sum(not ok for _, ok in results)
    print(f"{len(results) - missed}/{len(results)} self-test checks hold")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
