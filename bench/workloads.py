"""The benchmark's workloads: seeded configs, the subcommands that run them, their checks.

Each workload is a fixed list of operations.  An operation is one orthospec
subcommand on a config generated here, plus a check of its artifacts against
``reference`` (computations made apart from the package) or against
properties the method must have.  Seeds move only inputs that leave the
amount of work (nearly) unchanged: translations, rotations, directions,
coefficients and sample points.  Cutoffs and grid sizes are constants, listed in the
README with the layer each one is meant to load.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("marked-points", "convex-bodies", "oscillatory")

# marked-points sizes
POINT_Y = (0.9, 0.4, -1.1)          # the point pair of acceptance criteria 5 and 6
SPECTRUM_T = 180.0                  # about 98k records: enumerate and to_csv
POINCARE_T = 150.0                  # 57k records x 521 y points x 9 ladder rows
POINCARE_Y = (0.0, 2.6, 521)
GUINAND_T = 60.0
GUINAND_BETA0 = (math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0), math.sqrt(5.0) - 2.0)
EDGE_C = (1.358, 0.670)             # window-edge pair and cutoff
EDGE_T = 26.5852607

# convex-bodies sizes
BODY_SPECTRUM_T0 = 4.0             # above 2 (r_max(K1) + r_max(K2)) + 1 for both pairs
BODY_SPECTRUM_T = 130.0
RESIDUE_T = {2: 40.0, 3: 20.0}
TWIST_T = 100.0

# oscillatory sizes
OSC3_T = (50.0, 320.0, 8)
CORR2_T = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
CORR3_T = (20.0, 160.0, 6)
EQUI3_WINDOWS = (10.0, 20.0, 40.0, 80.0)   # dyadic t0, 8 samples 3 % apart each
EQUI2_T = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)

LENGTH_TOL = 1e-9
POINCARE_REL = 1e-9
SPECTRAL_REL = 1e-6
GUINAND_REL = 1e-3
VOLUME_REL = 1e-7
OSC_ABS = 1e-10
CORR_ABS = 1e-11
DISC_ABS = 1e-11


@dataclass
class Op:
    """One subcommand run; ``check(out_dir)`` returns failure messages.

    ``known_failure`` names the fault of the current program that makes the
    operation fail on every run; it is still counted in ``failed``.
    """

    name: str
    argv: list
    config: dict
    check: Callable[[Path], list]
    known_failure: str = ""


def _rows(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        data = list(csv.reader(fh))[1:]
    return np.array(data, dtype=float).reshape(len(data), -1)


def _json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rotation(rng, d: int) -> list:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * np.sign(np.diag(r))).tolist()


def _unit(rng, d: int) -> list:
    v = rng.normal(size=d)
    return (v / np.linalg.norm(v)).tolist()


def _coeff(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _pair(c: complex) -> list:
    return [c.real, c.imag]


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# marked points


def _check_lengths(rows: np.ndarray, dim: int, xi_ref, len_ref, row_length) -> list:
    """Same count as the brute-force list, every length within LENGTH_TOL."""
    fails = []
    lengths = rows[:, 2 * dim]
    if rows.shape[0] != len_ref.size:
        fails.append(f"{rows.shape[0]} records, brute force gives {len_ref.size}")
    else:
        dev = float(np.max(np.abs(np.sort(lengths) - len_ref), initial=0.0))
        if dev > LENGTH_TOL:
            fails.append(f"sorted lengths differ from brute force by {dev:.3e}")
    if rows.shape[0]:
        own = row_length(rows[:, :dim], rows[:, dim:2 * dim])
        dev = float(np.max(np.abs(own - lengths)))
        if dev > LENGTH_TOL:
            fails.append(f"a record's length differs from its class by {dev:.3e}")
    return fails


def _points_config(x, y, **sections) -> dict:
    d = len(x)
    cfg = {"dim": d, "bodies": {"a": {"kind": "point", "x": list(x)},
                                "b": {"kind": "point", "x": list(y)}},
           "pair": ["a", "b"]}
    cfg.update(sections)
    return cfg


def _point_spectrum_op(name: str, x, y, T0: float, T: float, known_failure: str = "") -> Op:
    v = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = v.size
    xi_ref, len_ref = ref.point_lengths(v, T0, T)

    def row_length(xi, theta):
        return np.linalg.norm(2.0 * math.pi * xi - v, axis=1)

    def check(out: Path) -> list:
        return _check_lengths(_rows(out / "spectrum.csv"), d, xi_ref, len_ref, row_length)

    cfg = _points_config(x, y, ranges={"T0": T0, "T": T})
    return Op(name, ["spectrum"], cfg, check, known_failure)


def _poincare_op(rng, x, y) -> Op:
    v = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    T0, T = 1.0, POINCARE_T
    real_s = np.sort(rng.uniform(0.2, 2.0, 4))
    s_grid = [complex(s, 0.0) for s in real_s] + [
        complex(rng.uniform(0.2, 0.5), rng.uniform(0.5, 3.0)) for _ in range(2)]
    ladder = np.geomspace(0.1, 9.0 / T, 8)
    _, lengths = ref.point_lengths(v, T0, T)
    direct = ref.poincare_direct(lengths, s_grid)
    y_max = POINCARE_Y[1]
    roots = np.sqrt(ref.sums_of_three_squares(int((y_max + 1.0) ** 2)))

    def check(out: Path) -> list:
        fails = []
        vals = _rows(out / "poincare_values.csv")
        got_s = vals[:, 0] + 1j * vals[:, 1]
        if got_s.size != len(s_grid) or np.max(np.abs(got_s - s_grid)) > 1e-15:
            fails.append("poincare_values.csv does not list the configured s grid")
        else:
            rel = _rel(vals[:, 2] + 1j * vals[:, 3], direct)
            if rel > POINCARE_REL:
                fails.append(f"Poincare values off the direct sums by {rel:.3e} relative")
        lines = _json(out / "scan.json")["lines"]
        for ln in lines:
            gap = float(np.min(np.abs(roots - ln["location"])))
            if gap > 0.01:
                fails.append(f"scan line at {ln['location']:.4f} is {gap:.4f} from every sqrt(n)")
        stack = [ln for ln in lines if ln["location"] < 0.1]
        spectral = [ln for ln in lines if ln["location"] >= 0.1]
        if len(spectral) < 3:
            fails.append(f"{len(spectral)} spectral lines found, need 3")
        for ln in spectral:
            if abs(ln["exponent"] + 2.0) > 0.3:
                fails.append(f"line at {ln['location']:.4f} has exponent {ln['exponent']:.3f}")
        if len(stack) != 1 or abs(stack[0]["exponent"] + 3.0) > 0.3:
            fails.append("the y = 0 pole stack is missing or its exponent is off -3")
        rows = _rows(out / "spectral.csv")
        if rows.shape[0] != real_s.size:
            fails.append(f"spectral.csv has {rows.shape[0]} rows, expected {real_s.size}")
        elif _rel(rows[:, 2] + 1j * rows[:, 3], rows[:, 4] + 1j * rows[:, 5]) > SPECTRAL_REL:
            fails.append("series and dual columns of spectral.csv disagree beyond 1e-6")
        return fails

    cfg = _points_config(x, y, ranges={
        "T0": T0, "T": T, "sweep": [1.0],
        "poincare_s_grid": [_pair(s) for s in s_grid],
        "y_grid": {"start": POINCARE_Y[0], "stop": y_max, "num": POINCARE_Y[2]},
        "eps_ladder": ladder.tolist()})
    return Op("poincare", ["poincare"], cfg, check)


def _guinand_op(rng, x, y) -> Op:
    width = float(rng.uniform(0.18, 0.22))
    v = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    center = ref.first_line(GUINAND_BETA0)
    length_side = ref.guinand_length_side(v, GUINAND_BETA0, center, width, GUINAND_T)
    spectral_side = ref.guinand_spectral_side(v, GUINAND_BETA0, center, width)

    def check(out: Path) -> list:
        fails = []
        g = _json(out / "guinand.json")
        if abs(g["window"]["center"] - center) > 1e-6:
            fails.append(f"window centre {g['window']['center']!r}, first line is {center!r}")
        got = complex(g["length_side_re"], g["length_side_im"])
        if _rel(got, length_side) > GUINAND_REL:
            fails.append(f"length side {got:.6g} vs brute force {length_side:.6g}")
        got = complex(g["spectral_side_re"], g["spectral_side_im"])
        if _rel(got, spectral_side) > GUINAND_REL:
            fails.append(f"spectral side {got:.6g} vs dual comb {spectral_side:.6g}")
        return fails

    cfg = _points_config(x, y, twist={"beta0": list(GUINAND_BETA0)},
                         ranges={"T": GUINAND_T}, window={"width": width})
    return Op("guinand", ["guinand"], cfg, check)


def marked_points(rng) -> list:
    shift = rng.uniform(-math.pi, math.pi, 3)
    x = shift.tolist()
    y = (shift + np.asarray(POINT_Y)).tolist()
    return [
        _point_spectrum_op("spectrum", x, y, 1.0, SPECTRUM_T),
        _poincare_op(rng, x, y),
        _guinand_op(rng, x, y),
        _point_spectrum_op("window-edge", list(EDGE_C), [0.0, 0.0], 1.0, EDGE_T,
                           known_failure="enumerate prefilters on h_lo/h_hi taken from an "
                           "order-24 grid padded by 1e-6 and drops xi = (4, 2) of length 26.58499"),
    ]


# ---------------------------------------------------------------------------
# convex bodies


def _check_volumes(got: dict, want, what: str) -> list:
    vals = np.array([got[f"V{k}"] for k in range(len(want))])
    rel = _rel(vals, want)
    return [f"{what}: intrinsic volumes off the closed form by {rel:.3e}"] if rel > VOLUME_REL else []


def _volumes_op(rng) -> Op:
    egg = {"kind": "ellipsoid", "center": rng.uniform(-0.3, 0.3, 3).tolist(),
           "semiaxes": [1.1, 0.8, 0.6], "rotation": _rotation(rng, 3)}
    orb = {"kind": "ball", "center": rng.uniform(-0.3, 0.3, 3).tolist(), "radius": 0.5}
    lump = {"kind": "harmonic",
            "base": {"kind": "ball", "center": rng.uniform(-0.3, 0.3, 3).tolist(), "radius": 0.6},
            "terms": [[2, _unit(rng, 3), 0.05], [4, _unit(rng, 3), 0.01]]}

    def check(out: Path) -> list:
        vol = _json(out / "volumes.json")
        fails = _check_volumes(vol["egg"]["intrinsic"], ref.ellipsoid_intrinsic(1.1, 0.8, 0.6),
                               "ellipsoid")
        fails += _check_volumes(vol["orb"]["intrinsic"], ref.ball_intrinsic(3, 0.5), "ball")
        # zonal bumps of degree >= 2 integrate to zero: V0, V1 stay those of the base
        fails += _check_volumes(vol["lump"]["intrinsic"], ref.ball_intrinsic(3, 0.6)[:2],
                                "harmonic body (V0, V1)")
        return fails

    return Op("volumes", ["volumes"], {"dim": 3, "bodies": {"egg": egg, "orb": orb, "lump": lump}},
              check)


def _residue_op(name: str, d: int, b1: dict, b2: dict, volumes_L) -> Op:
    want = ref.zeta_residues(volumes_L)

    def check(out: Path) -> list:
        rows = _json(out / "residues.json")
        fails = []
        for key in ("residue_re", "predicted_from_volumes"):
            got = [r[key] for r in sorted(rows, key=lambda r: r["pole"])]
            if len(got) != d or _rel(got, want) > VOLUME_REL:
                fails.append(f"{key} {got} vs closed form {want.tolist()}")
        return fails

    cfg = {"dim": d, "bodies": {"a": b1, "b": b2}, "pair": ["a", "b"],
           "ranges": {"T": RESIDUE_T[d], "sweep": [1.0, 2.0]}}
    return Op(name, ["zeta", "--report-residues"], cfg, check)


def _twist_op(rng) -> Op:
    c = _coeff(rng, 0.1, 0.25)
    cfg = {"dim": 2,
           "bodies": {"e": {"kind": "ellipsoid", "center": rng.uniform(-0.3, 0.3, 2).tolist(),
                            "semiaxes": [0.5, 0.3], "rotation": _rotation(rng, 2)},
                      "o": {"kind": "point", "x": rng.uniform(-1.0, 1.0, 2).tolist()}},
           "pair": ["e", "o"],
           "twist": {"beta0": [1.0, 0.0], "modes": {"1,0": _pair(c), "-1,0": _pair(c.conjugate())}},
           "ranges": {"T": TWIST_T, "sweep": [1.0, 2.0]}}

    def check(out: Path) -> list:
        rep = _json(out / "twist.json")
        if rep["mode"] != "weighted" or rep["certified"] is not True:
            return [f"twist report mode {rep['mode']!r}, certified {rep['certified']!r}"]
        return []

    return Op("zeta-twist", ["zeta"], cfg, check)


def _body_spectrum_op(name: str, rng, b1: dict, b2: dict) -> Op:
    L = ref.Difference(ref.Body(3, b1), ref.Body(3, b2))
    T0, T = BODY_SPECTRUM_T0, BODY_SPECTRUM_T
    xi_ref, len_ref = ref.body_lengths(L, T0, T)
    picks = rng.random(8)
    probe = ref.fibonacci_sphere(20000)

    def row_length(xi, theta):
        # t from the closing condition 2 pi xi = t theta + grad h_L(theta)
        return np.einsum("ni,ni->n", theta, 2.0 * math.pi * xi - L.grad(theta))

    def check(out: Path) -> list:
        rows = _rows(out / "spectrum.csv")
        fails = _check_lengths(rows, 3, xi_ref, len_ref, row_length)
        theta, t = rows[:, 3:6], rows[:, 6]
        closing = np.linalg.norm(2.0 * math.pi * rows[:, :3] - t[:, None] * theta
                                 - L.grad(theta), axis=1)
        if np.max(closing, initial=0.0) > LENGTH_TOL:
            fails.append(f"closing residual {np.max(closing):.3e}")
        for p in picks:
            i = int(p * rows.shape[0])
            best = ref.brute_max(L, 2.0 * math.pi * rows[i, :3], probe)
            if abs(best - t[i]) > 1e-8:
                fails.append(f"record {i}: length {t[i]!r}, brute maximum {best!r}")
        return fails

    cfg = {"dim": 3, "bodies": {"a": b1, "b": b2}, "pair": ["a", "b"],
           "ranges": {"T0": T0, "T": T}}
    return Op(name, ["spectrum"], cfg, check)


def convex_bodies(rng) -> list:
    ops = [_volumes_op(rng)]
    ellipse = {"kind": "ellipsoid", "center": rng.uniform(-0.3, 0.3, 2).tolist(),
               "semiaxes": [1.3, 0.7], "rotation": _rotation(rng, 2)}
    origin = {"kind": "point", "x": rng.uniform(-1.0, 1.0, 2).tolist()}
    ops.append(_residue_op("zeta-ellipse-point", 2, ellipse, origin,
                           ref.ellipse_intrinsic(1.3, 0.7)))

    def ball(r):
        return {"kind": "ball", "center": rng.uniform(-0.5, 0.5, 3).tolist(), "radius": r}

    def egg():
        return {"kind": "ellipsoid", "center": rng.uniform(-0.5, 0.5, 3).tolist(),
                "semiaxes": [0.5, 0.35, 0.25], "rotation": _rotation(rng, 3)}

    ops.append(_residue_op("zeta-ball-ball", 3, ball(0.3), ball(0.2), ref.ball_intrinsic(3, 0.5)))
    ops.append(_residue_op("zeta-ellipsoid-ball", 3, egg(), ball(0.2), ref.parallel_intrinsic(
        ref.ellipsoid_intrinsic(0.5, 0.35, 0.25), 0.2)))
    ops.append(_twist_op(rng))
    ops.append(_body_spectrum_op("spectrum-ellipsoid-ball", rng, egg(), ball(0.2)))
    lump = {"kind": "harmonic", "base": ball(0.4),
            "terms": [[2, _unit(rng, 3), 0.03], [4, _unit(rng, 3), 0.008]]}
    ops.append(_body_spectrum_op("spectrum-harmonic-ball", rng, lump, ball(0.2)))
    return ops


# ---------------------------------------------------------------------------
# oscillatory


def _oscint_op(rng, d: int) -> Op:
    xi = _unit(rng, d)
    cfg = {"dim": d, "oscint": {"xi": xi}}
    if d == 3:
        cfg["ranges"] = {"t_grid": np.geomspace(*OSC3_T).tolist()}

    def check(out: Path) -> list:
        fails = []
        rows = _rows(out / "oscint.csv")
        ts = rows[:, 0]
        if d == 2 and (ts.size != 12 or ts[0] != 50.0 or abs(ts[-1] - 800.0) > 1e-9):
            fails.append("the d = 2 run did not use the default t grid 50..800")
        dev = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - ref.sphere_transform(d, ts))))
        if dev > OSC_ABS:
            fails.append(f"oscillatory integral off the closed form by {dev:.3e}")
        rep = _json(out / "oscint.json")
        if not rep["cap_exponent"] <= -3.0:
            fails.append(f"cap exponent {rep['cap_exponent']:.3f} > -3")
        return fails

    return Op(f"oscint-{d}d", ["oscint"], cfg, check)


def _modes(obs: dict) -> dict:
    return {",".join(map(str, k)): _pair(c) for k, c in obs.items()}


def _correlate_op(rng, d: int) -> Op:
    if d == 2:
        # the demo observables of demos/configs/correlate_modes.json
        beta0 = [0.15, -0.35]
        phi = {(1, 0): 1.0, (0, 1): 0.5j, (1, 1): 0.25}
        psi = {(-1, 0): 1.0, (0, -1): -0.5j, (-1, -1): 0.25}
        ts = np.array(CORR2_T)
    else:
        beta0 = [0.15, -0.35, 0.1]
        phi = {(1, 0, 0): _coeff(rng, 0.5, 1.0), (0, 1, 1): _coeff(rng, 0.2, 0.6)}
        psi = {(-1, 0, 0): _coeff(rng, 0.5, 1.0), (0, -1, -1): _coeff(rng, 0.2, 0.6)}
        ts = np.geomspace(*CORR3_T)
    want = [ref.correlation(phi, psi, beta0, t) for t in ts]
    lead = [ref.correlation_two_pole(phi, psi, beta0, t) for t in ts]
    cfg = {"dim": d, "twist": {"beta0": beta0},
           "observables": {"phi": {"modes": _modes(phi)}, "psi": {"modes": _modes(psi)}},
           "ranges": {"t_grid": ts.tolist()}}
    if d == 2:
        cfg["aniso"] = {"s0": 2, "s1": 1, "N0": 1.0, "N1": 1.0, "gamma": [1, 0]}

    def check(out: Path) -> list:
        fails = []
        rows = _rows(out / "correlate.csv")
        dev = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - np.array(want))))
        if dev > CORR_ABS:
            fails.append(f"correlations off the closed form by {dev:.3e}")
        dev = float(np.max(np.abs(rows[:, 3] + 1j * rows[:, 4] - np.array(lead))))
        if dev > CORR_ABS:
            fails.append(f"expansion off the two-pole formula by {dev:.3e}")
        if d == 2:
            norms = _json(out / "norms.json")["norms"]
            if not all(math.isfinite(v) and v > 0 for v in norms.values()):
                fails.append(f"anisotropic norms {norms} are not positive and finite")
        return fails

    return Op(f"correlate-{d}d", ["correlate"], cfg, check)


def _real_observable(rng, d: int, freqs) -> dict:
    modes = {(0,) * d: complex(rng.uniform(0.5, 2.0))}
    for k in freqs:
        c = _coeff(rng, 0.2, 0.6)
        modes[k] = c
        modes[tuple(-x for x in k)] = c.conjugate()
    return modes


def _equidist_disc_op(rng) -> Op:
    center = rng.uniform(-0.5, 0.5, 2)
    radius = 0.8
    f = _real_observable(rng, 2, [(1, 0), (1, 1)])
    want = [ref.disc_average(f, center, radius, t) for t in EQUI2_T]
    cfg = {"dim": 2, "bodies": {"disc": {"kind": "ball", "center": center.tolist(),
                                         "radius": radius}},
           "body": "disc", "observables": {"f": {"modes": _modes(f), "real": True}},
           "ranges": {"t_grid": list(EQUI2_T)}}

    def check(out: Path) -> list:
        rows = _rows(out / "equidist.csv")
        dev = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - np.array(want))))
        return [f"disc averages off the J0 closed form by {dev:.3e}"] if dev > DISC_ABS else []

    return Op("equidist-disc", ["equidist"], cfg, check)


def _equidist_ellipsoid_op(rng) -> Op:
    f = _real_observable(rng, 3, [(1, 0, 0)])
    ts = [t0 * (1.0 + 0.03 * j) for t0 in EQUI3_WINDOWS for j in range(8)]
    cfg = {"dim": 3,
           "bodies": {"egg": {"kind": "ellipsoid", "center": rng.uniform(-0.3, 0.3, 3).tolist(),
                              "semiaxes": [1.1, 0.8, 0.6], "rotation": _rotation(rng, 3)}},
           "body": "egg", "observables": {"f": {"modes": _modes(f), "real": True}},
           "ranges": {"t_grid": ts}}

    def check(out: Path) -> list:
        rows = _rows(out / "equidist.csv")
        # the largest error over each window of 8 samples follows t^{-(d-1)/2}
        env = rows[:, 5].reshape(len(EQUI3_WINDOWS), 8).max(axis=1)
        slope = float(np.polyfit(np.log(EQUI3_WINDOWS), np.log(env), 1)[0])
        return [f"error decay slope {slope:.3f}, expected -1 +- 0.15"] if abs(slope + 1.0) > 0.15 else []

    return Op("equidist-ellipsoid", ["equidist"], cfg, check)


def oscillatory(rng) -> list:
    return [_oscint_op(rng, 3), _oscint_op(rng, 2), _correlate_op(rng, 2),
            _correlate_op(rng, 3), _equidist_disc_op(rng), _equidist_ellipsoid_op(rng)]


_BUILDERS = {"marked-points": marked_points, "convex-bodies": convex_bodies,
             "oscillatory": oscillatory}


def build(workload: str, seed: int) -> list:
    """The operations of one workload, with inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)
