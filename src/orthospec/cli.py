"""Configuration-driven experiment runner.

Every capability is a subcommand reading one JSON configuration document and
writing CSV/JSON artifacts plus a gnuplot script into the output directory.
Identical configurations produce byte-identical artifacts regardless of the
worker count; the fully resolved configuration and tool version are echoed
next to the outputs so runs are self-describing.

``load_config`` checks every section of the configuration, whatever the
subcommand, and hands the parsed value of each to the subcommands in
``built``; a subcommand applies its own defaults and the few checks that
depend on it, and echoes what it used.  Each subcommand imports only the
modules it runs, inside its own function: ``oscint`` loads spherequad
alone, and no oscillatory subcommand loads spectrum or zetafns.  A section
whose check lives in a module loads it only when the configuration sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__, _tables

if TYPE_CHECKING:  # the subcommands import these inside their functions
    from . import convex, dynamics, spectrum, zetafns

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(Exception):
    """Configuration document violates the schema."""


_DEFAULTS = {
    "dim": 2,
    "bodies": {},
    "pair": None,            # [name, name]; defaults to the first two bodies
    "body": None,            # equidist target; defaults to pair[0]
    "twist": {"beta0": None, "modes": {}},
    "ranges": {"T0": None, "T": None, "sweep": [1.0, 2.0, 4.0], "zeta_s_grid": None,
               "poincare_s_grid": None, "eps_ladder": None, "y_grid": None, "t_grid": None},
    "window": {"center": None, "width": 0.2},
    "observables": {},
    "aniso": None,
    "oscint": {"xi": None},
}

_SPECTRUM_T = 50.0  # the window end of spectrum when ranges.T is unset; guinand's least
# each body kind: the keys it may omit and the keys it needs, besides "kind"
_BODY_KEYS = {
    "point": (("x",), ()),
    "ball": (("center",), ("radius",)),
    "ellipsoid": (("center", "rotation"), ("semiaxes",)),
    "harmonic": ((), ("base", "terms")),
}


@contextlib.contextmanager
def _config_errors(what: str):
    """Raise the error that a malformed entry causes as a ConfigError."""
    try:
        yield
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _fields(name: str, given, defaults: dict, required=()) -> dict:
    """given over a copy of defaults; a non-object, unknown or missing key is a ConfigError."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be an object")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown {name} key '{key}'")
    for key in required:
        if key not in given:
            raise ConfigError(f"{name} needs key '{key}'")
    return {**copy.deepcopy(defaults), **given}


def load_config(path) -> tuple:
    """Read, validate, and materialize defaults into one configuration.

    Every section is checked here, whatever the subcommand.  Returns
    (cfg, built): cfg as echoed, and built with the parsed value of each
    section: "bodies" and "observables" by name, "aniso", "twist" (a
    TwistForm if twist.modes is set), "beta0", "xi", "window" as (center,
    width) and each grid of ranges, None where unset.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    cfg = _fields("top-level", raw, _DEFAULTS)
    for key in ("twist", "ranges", "window", "oscint"):
        cfg[key] = _fields(key, cfg[key], _DEFAULTS[key])
    d = cfg["dim"]
    if not isinstance(d, int) or d < 2:
        raise ConfigError("dim must be an integer >= 2")
    for key in ("bodies", "observables"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must map names to objects")
    built = {"bodies": {}, "observables": {},
             **dict.fromkeys(("aniso", "twist", "eps_ladder", "y_grid"))}
    for name, spec in cfg["bodies"].items():
        _check_body(name, spec)
        built["bodies"][name] = build_body(d, spec)
    r = cfg["ranges"]
    T0, T = r["T0"], r["T"]
    with _config_errors("ranges.T0 and ranges.T"):
        if not all(v is None or math.isfinite(_number(v)) for v in (T0, T)):
            raise ValueError("must be finite")
    if (T0 is not None and T0 < 0) or (None not in (T0, T) and T <= T0):
        raise ConfigError("ranges need T > T0 >= 0")
    with _config_errors("ranges.sweep"):
        sweep = [_number(f) for f in r["sweep"]]
    if not sweep or not all(1.0 <= f < math.inf for f in sweep):
        raise ConfigError("ranges.sweep: sweep factors must be finite and >= 1")
    ts = built["t_grid"] = _grid(r, "t_grid")
    if ts is not None and not (ts.size and np.all((ts > 0.0) & (ts < math.inf))):
        raise ConfigError("ranges.t_grid needs entries, each finite and > 0")
    for key in ("zeta_s_grid", "poincare_s_grid"):
        with _config_errors(f"ranges.{key}"):
            s_grid = built[key] = None if r[key] is None else np.array(
                [complex(_number(x), _number(y)) for x, y in r[key]], dtype=complex)
        if s_grid is not None and not np.all(np.isfinite(s_grid)):
            raise ConfigError(f"ranges.{key} needs finite entries")
    ps, eps, y = built["poincare_s_grid"], _grid(r, "eps_ladder"), _grid(r, "y_grid")
    if any(v is not None for v in (ps, eps, y)):
        from . import zetafns
        if ps is not None and not np.all(ps.real >= zetafns._EPS_FLOOR):
            raise ConfigError(f"ranges.poincare_s_grid needs Re(s) >= {zetafns._EPS_FLOOR}")
        with _config_errors("ranges"):  # the T-free part of singularity_scan's check
            built["eps_ladder"], built["y_grid"] = zetafns._check_scan_grids(eps, y)
    if cfg["pair"] is None and len(cfg["bodies"]) >= 2:
        cfg["pair"] = sorted(cfg["bodies"])[:2]
    if cfg["pair"] is not None and (
            not isinstance(cfg["pair"], list) or len(cfg["pair"]) != 2
            or not all(isinstance(n, str) and n in cfg["bodies"] for n in cfg["pair"])):
        raise ConfigError("pair must name two bodies from 'bodies'")
    if cfg["body"] is not None and not (isinstance(cfg["body"], str)
                                        and cfg["body"] in cfg["bodies"]):
        raise ConfigError(f"unknown body '{cfg['body']}'")
    if cfg["twist"]["beta0"] is None:
        cfg["twist"]["beta0"] = [0.0] * d
    built["beta0"] = _vector("twist.beta0", cfg["twist"]["beta0"], d)  # echoed as given
    _check_modes(d, "twist.modes", cfg["twist"]["modes"])
    if cfg["twist"]["modes"]:
        from . import spectrum
        with _config_errors("twist"):
            modes = {_parse_freq(k): _parse_coeff(v) for k, v in cfg["twist"]["modes"].items()}
            built["twist"] = spectrum.TwistForm(built["beta0"], modes)
    xi = cfg["oscint"]["xi"]
    built["xi"] = _vector("oscint.xi", [1.0] + [0.0] * (d - 1) if xi is None else xi, d)
    w = cfg["window"]
    with _config_errors("window"):
        center = None if w["center"] is None else _number(w["center"])
        built["window"] = center, _number(w["width"])
        if "window" in raw:
            from . import zetafns
            zetafns.GaussianWindow(0.0 if center is None else center, built["window"][1])
    if cfg["aniso"] is not None or cfg["observables"]:
        from . import dynamics
    if cfg["aniso"] is not None:
        a = cfg["aniso"] = _fields("aniso", cfg["aniso"], {
            "s0": None, "s1": None, "N0": None, "N1": None, "gamma": [0.0] * d},
            required=("s0", "s1", "N0", "N1"))
        _vector("aniso.gamma", a["gamma"], d)  # checked, and echoed as given
        with _config_errors("aniso"):
            # AnisoParams refuses orders that are not integral numbers
            built["aniso"] = dynamics.AnisoParams(
                s0=a["s0"], s1=a["s1"], N0=_number(a["N0"]),
                N1=_number(a["N1"]), gamma=tuple(a["gamma"]))
    for name, spec in cfg["observables"].items():
        spec = cfg["observables"][name] = _fields(
            f"observable '{name}'", spec, {"modes": None, "real": False}, required=("modes",))
        if not isinstance(spec["real"], bool):
            raise ConfigError(f"observable '{name}' needs real true or false")
        _check_modes(d, f"observable '{name}' modes", spec["modes"])
        with _config_errors(f"observable '{name}'"):
            modes = {_parse_freq(k): _parse_coeff(v) for k, v in spec["modes"].items()}
            built["observables"][name] = dynamics.TorusObservable(d, modes, real=spec["real"])
    return cfg, built


def _check_body(name: str, spec) -> None:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _BODY_KEYS:
        raise ConfigError(f"body '{name}' needs kind in {sorted(_BODY_KEYS)}")
    optional, required = _BODY_KEYS[kind]
    _fields(f"{kind} '{name}'", spec, dict.fromkeys(("kind", *optional, *required)), required)
    if kind == "harmonic":
        _check_body(f"{name}.base", spec["base"])


def _check_modes(d: int, name: str, modes) -> None:
    if not isinstance(modes, dict):
        raise ConfigError(f"{name} must be an object")
    for key in modes:
        if len(_parse_freq(key)) != d:
            raise ConfigError(f"{name} key '{key}' dimension mismatch")


def _parse_freq(key: str) -> tuple:
    with _config_errors(f"bad frequency key '{key}'"):
        return tuple(int(c) for c in str(key).split(","))


def _parse_coeff(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(v[0]), _number(v[1]))
    return complex(_number(v))


def build_body(dim: int, spec: dict) -> convex.SupportBody:
    """The body of a checked description; one the constructors reject is a ConfigError."""
    from . import convex
    kind = spec["kind"]
    with _config_errors(f"{kind} body"):
        if kind == "point":
            body = convex.point(spec.get("x", [0.0] * dim))
        elif kind == "ball":
            body = convex.ball(spec.get("center", [0.0] * dim), spec["radius"])
        elif kind == "ellipsoid":
            body = convex.ellipsoid(spec.get("center", [0.0] * dim), spec["semiaxes"],
                                    rotation=spec.get("rotation"))
        else:
            body = convex.harmonic(build_body(dim, spec["base"]), spec["terms"])
    if body.dim != dim:
        raise ConfigError(f"{kind} body has dimension {body.dim}, not {dim}")
    return body


def _twist_form(built: dict) -> spectrum.TwistForm:
    """The configured twist: the form built at load, or beta0 alone."""
    from . import spectrum
    return spectrum.TwistForm(built["beta0"]) if built["twist"] is None else built["twist"]


def _observable(built: dict, name: str) -> dynamics.TorusObservable:
    if name not in built["observables"]:
        raise ConfigError(f"configuration lacks observable '{name}'")
    return built["observables"][name]


def _pair_bodies(cfg: dict, built: dict) -> tuple:
    if cfg["pair"] is None:
        raise ConfigError("this subcommand needs a body pair")
    return tuple(built["bodies"][name] for name in cfg["pair"])


def _beta0(built: dict, command: str) -> np.ndarray:
    if built["twist"] is not None:
        raise ConfigError(f"{command} reads twist.beta0 alone; twist.modes must be empty")
    return built["beta0"]


def _enumerated(cfg: dict, k1, k2, beta, workers: int, default_T: float,
                reach: float = 1.0) -> spectrum.LengthSpectrum:
    """The spectrum of the pair (k1, k2) on (T0, reach * T].

    T is ranges.T or default_T, and T0 is ranges.T0 or the start
    spectrum.enumerate takes from the bodies; an empty window is a
    ConfigError.  The T0 and T used are written back into cfg["ranges"], so
    config.resolved.json records the window of the run.
    """
    from . import spectrum
    r = cfg["ranges"]
    T = default_T if r["T"] is None else float(r["T"])
    T0 = spectrum._default_T0(k1, k2) if r["T0"] is None else r["T0"]
    if not reach * T > T0:
        raise ConfigError(f"ranges need T > T0 >= 0; the window ({T0:g}, {reach * T:g}] is empty")
    spec = spectrum.enumerate(k1, k2, T0=T0, T=reach * T, beta=beta, workers=workers)
    r["T0"], r["T"] = spec.T0, T
    return spec


def _grid(ranges: dict, key: str):
    """ranges[key] as an array, None if unset: a list of numbers, or
    {start, stop, num=20} with an integral num, spaced as np.linspace."""
    spec = ranges[key]
    if spec is None:
        return None
    with _config_errors(f"ranges.{key}"):
        if isinstance(spec, dict):
            spec = _fields(f"ranges.{key}", spec, {
                "start": None, "stop": None, "num": 20}, required=("start", "stop"))
            num = _number(spec["num"])
            if not num.is_integer():
                raise ValueError(f"num {num!r} is not an integral number")
            return np.linspace(_number(spec["start"]), _number(spec["stop"]), int(num))
        return np.asarray([_number(x) for x in spec])


def _number(value) -> float:
    """value as a float; a string, a bool or a list is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _vector(what: str, values, d: int) -> np.ndarray:
    """values as an array of d finite numbers; anything else is a ConfigError."""
    with _config_errors(what):
        v = np.array([_number(x) for x in values])
        if v.shape != (d,) or not np.all(np.isfinite(v)):
            raise ValueError(f"needs {d} finite entries")
    return v


def _write_series(path, ts, values, expansions) -> None:
    residual = [abs(complex(v) - complex(e)) for v, e in zip(values, expansions)]
    _tables.write_csv(path, ["t", "value", "expansion", "residual"],
                      [ts, values, expansions, residual])


def _plot_script(path, title: str, lines: list) -> None:
    text = "\n".join(
        ["set datafile separator ','", f"set title '{title}'", "set key left"]
        + lines
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_volumes(cfg, built, out, workers, log):
    from . import convex
    if not built["bodies"]:
        raise ConfigError("volumes needs at least one body")
    report = {}
    for name, body in sorted(built["bodies"].items()):
        data = convex.steiner(body)
        report[name] = {**vars(data),
                        "intrinsic": {f"V{k}": v for k, v in enumerate(data.intrinsic)}}
        log(f"volumes[{name}]: V = [{', '.join(f'{v:.6f}' for v in data.intrinsic)}]")
    _tables.write_json(os.path.join(out, "volumes.json"), report)
    _plot_script(
        os.path.join(out, "volumes.gp"),
        "intrinsic volumes",
        ["# data in volumes.json; plot per body as impulses of V_k vs k"],
    )
    return 0


def _cmd_spectrum(cfg, built, out, workers, log):
    from . import spectrum
    k1, k2 = _pair_bodies(cfg, built)
    spec = _enumerated(cfg, k1, k2, _twist_form(built), workers, _SPECTRUM_T)
    log(f"spectrum: {spec.lengths.size} orthogeodesics in ({spec.T0:g}, {spec.T:g}]")
    spectrum.to_csv(spec, os.path.join(out, "spectrum.csv"),
                    os.path.join(out, "spectrum.meta.json"))
    rho = spectrum.density_coeffs(k1, k2)
    ts = np.linspace(spec.T0 + 1.0, spec.T, 60)
    counts = [spectrum.counting(spec, float(tv)) for tv in ts]
    model = [sum(rho[k - 1] * (tv**k - spec.T0**k) / k for k in range(1, spec.dim + 1))
             for tv in ts]  # counted from T0, as count is
    weighted = [spectrum.counting_weighted(spec, float(tv)) for tv in ts]
    _tables.write_csv(os.path.join(out, "counting.csv"), ["T", "count", "model", "weighted"],
                      [ts, counts, model, weighted])
    _plot_script(
        os.path.join(out, "spectrum.gp"),
        "orthogeodesic counting",
        ["plot 'counting.csv' using 1:2 every ::1 with steps title 'N(T)', \\",
         "     'counting.csv' using 1:3 every ::1 with lines title 'model'"],
    )
    return 0


def _zeta_model(cfg, k1, k2, beta, workers) -> zetafns.ZetaModel:
    """The model with head T (default 60 pi / d) of the spectrum to T * max(ranges.sweep)."""
    from . import zetafns
    spec = _enumerated(cfg, k1, k2, beta, workers, 60.0 * math.pi / cfg["dim"],
                       float(max(cfg["ranges"]["sweep"])))
    return zetafns.build_zeta_model(spec, cfg["ranges"]["T"])


def _cmd_zeta(cfg, built, out, workers, log, report_residues=False):
    from . import zetafns
    k1, k2 = _pair_bodies(cfg, built)
    beta = _twist_form(built)
    if report_residues and not beta.is_zero:
        raise ConfigError("--report-residues needs the untwisted setting")
    s_grid = (np.array([complex(0.25 + 0.5 * k, 0.0) for k in range(2 * cfg["dim"] + 1)])
              if built["zeta_s_grid"] is None else built["zeta_s_grid"])
    model = _zeta_model(cfg, k1, k2, beta, workers)
    values = np.array([zetafns.zeta_continue(model, s) for s in s_grid.tolist()],
                      dtype=complex)
    cfg["ranges"]["zeta_s_grid"] = [[s.real, s.imag] for s in s_grid.tolist()]
    _tables.write_csv(os.path.join(out, "zeta_values.csv"), ["s", "value"], [s_grid, values])
    if report_residues:
        ests = zetafns.residues(model)
        _tables.write_json(os.path.join(out, "residues.json"), [
            {"pole": est.pole, "residue": est.residue, "err": est.error,
             "predicted_from_volumes": est.predicted_from_volumes,
             "bound": est.bound, "certified": est.certified}
            for est in ests])
        for est in ests:
            log(f"zeta: Res at s={est.pole} is {est.residue:.9g} "
                f"(volumes predict {est.predicted_from_volumes:.9g})")
    if not beta.is_zero:
        rep = zetafns.twist_suppression(model)
        _tables.write_json(os.path.join(out, "twist.json"), rep)
        log(f"zeta: twist suppression certified={rep.certified}")
    _plot_script(
        os.path.join(out, "zeta.gp"),
        "zeta continuation on the real axis",
        ["plot 'zeta_values.csv' using 1:3 every ::1 with linespoints title 'Re zeta'"],
    )
    return 0


def _cmd_poincare(cfg, built, out, workers, log):
    from . import zetafns
    k1, k2 = _pair_bodies(cfg, built)
    beta = _twist_form(built)
    s_grid = (np.array([complex(0.2, y) for y in np.linspace(0.0, 3.2, 33)])
              if built["poincare_s_grid"] is None else built["poincare_s_grid"])
    # a default head whose tail dominates some value is doubled once
    for doubling in (cfg["ranges"]["T"] is None, False):
        model = _zeta_model(cfg, k1, k2, beta, workers)
        with _config_errors("ranges"):  # the check singularity_scan runs, before any artifact
            eps_ladder, y_grid = zetafns._scan_grids(built["eps_ladder"], built["y_grid"],
                                                     model.spec.T)
        try:
            values = zetafns.poincare_eval(model, s_grid)
            break
        except zetafns.TailDominates:
            if not doubling:
                raise
            cfg["ranges"]["T"] *= 2.0  # _enumerated wrote the default head back
    cfg["ranges"]["poincare_s_grid"] = [[s.real, s.imag] for s in s_grid.tolist()]
    _tables.write_csv(os.path.join(out, "poincare_values.csv"), ["s", "value"],
                      [s_grid, values])
    fits = zetafns.singularity_scan(model, eps_ladder=eps_ladder, y_grid=y_grid)
    kappa, _ = zetafns.spectral_constants(model.spec.dim)
    _tables.write_json(os.path.join(out, "scan.json"), {"kappa": kappa, "lines": fits})
    for f in fits:
        log(f"poincare: line at y={f.location:.4f} exponent {f.exponent:+.3f} "
            f"(nearest {f.nearest_line:.4f})")
    if k1.is_point and k2.is_point:
        x = zetafns._point_location(k1)
        y = zetafns._point_location(k2)
        if not zetafns._same_torus_point(x, y):
            # real s only: bench/workloads.py checks one row per real s
            real = (s_grid.real > 0) & (s_grid.imag == 0.0)
            series = values[real]
            dual = np.array([zetafns.poincare_points_spectral(x, y, beta, s)
                             for s in s_grid[real].tolist()], dtype=complex)
            rel = [abs(a - b) / max(abs(b), 1e-300)
                   for a, b in zip(series.tolist(), dual.tolist())]
            _tables.write_csv(os.path.join(out, "spectral.csv"),
                              ["s", "series", "spectral", "rel_diff"],
                              [s_grid[real], series, dual, rel])
    _plot_script(
        os.path.join(out, "poincare.gp"),
        "Poincare series toward the boundary",
        ["plot 'poincare_values.csv' using 2:(sqrt($3*$3+$4*$4)) every ::1 "
         "with lines title '|P(eps+iy)|'"],
    )
    return 0


def _cmd_guinand(cfg, built, out, workers, log):
    from . import zetafns
    k1, k2 = _pair_bodies(cfg, built)
    beta = _twist_form(built)
    if cfg["ranges"]["T0"] not in (None, 0):
        raise ConfigError("guinand enumerates from T0 = 0; ranges.T0 must be 0 or unset")
    cfg["ranges"]["T0"] = 0.0
    with _config_errors("pair"):
        zetafns._check_pairing(k1, k2)
    center, width = built["window"]
    if center is None:
        # the lattice point nearest beta0 lies within sqrt(d)/2 of it; when
        # that point is beta0 itself, a neighbour lies at distance 1
        lines = zetafns.predicted_lines(beta, math.sqrt(cfg["dim"]) / 2.0 + 1.0)
        center = float(lines[lines > 1e-9][0])
    window = zetafns.GaussianWindow(center, width)
    cfg["window"]["center"] = center
    # the default T, from 50 up, leaves a window mass exp(-(width T)^2 / 2) within
    # _MASS_TOL; the factor 1 + 1e-12 keeps rounding from failing that check
    T = math.sqrt(-2.0 * math.log(zetafns._MASS_TOL)) / width * (1.0 + 1e-12)
    spec = _enumerated(cfg, k1, k2, beta, workers, max(_SPECTRUM_T, T))
    res = zetafns.guinand_pairing(spec, window)
    diff = abs(res.length_side - res.spectral_side)
    denom = max(abs(res.length_side), abs(res.spectral_side))
    _tables.write_json(os.path.join(out, "guinand.json"), {
        **vars(res), "window": window, "abs_diff": diff,
        "rel_diff": diff / denom if denom > 0 else 0.0})
    log(f"guinand: length {res.length_side:.6g} vs spectral "
        f"{res.spectral_side:.6g} (abs diff {diff:.3g})")
    _plot_script(
        os.path.join(out, "guinand.gp"),
        "window against the spectral lines",
        [f"w(x) = exp(-0.5*((x-{center!r})/{width!r})**2)",
         "plot [0:{0!r}] w(x) title 'window'".format(center + 6 * width)],
    )
    return 0


def _cmd_correlate(cfg, built, out, workers, log):
    from . import dynamics
    beta0 = _beta0(built, "correlate")
    phi = _observable(built, "phi")
    psi = _observable(built, "psi")
    ts = np.geomspace(50.0, 800.0, 16) if built["t_grid"] is None else built["t_grid"]
    cfg["ranges"]["t_grid"] = ts.tolist()
    params = built["aniso"]
    values = dynamics.correlation(phi, psi, beta0, ts)
    expans = [dynamics.correlation_expansion(phi, psi, beta0, float(t)) for t in ts]
    _write_series(os.path.join(out, "correlate.csv"), ts, values, expans)
    log(f"correlate: {len(ts)} samples, last residual "
        f"{abs(values[-1] - expans[-1]):.3e}")
    if params is not None:
        report = {}
        for name, obs in (("phi", phi), ("psi", psi)):
            val = dynamics.aniso_norm(obs, params)
            report[name] = val
            log(f"correlate: aniso norm of {name} = {val:.6g}")
        _tables.write_json(os.path.join(out, "norms.json"), {"params": params, "norms": report})
    _plot_script(
        os.path.join(out, "correlate.gp"),
        "correlation against its expansion",
        ["set logscale xy",
         "plot 'correlate.csv' using 1:(sqrt($2*$2+$3*$3)) every ::1 "
         "with linespoints title '|correlation|', \\",
         "     'correlate.csv' using 1:6 every ::1 with linespoints "
         "title 'residual'"],
    )
    return 0


def _cmd_equidist(cfg, built, out, workers, log):
    from . import dynamics
    name = cfg["body"]
    if name is None:
        if not cfg["bodies"]:
            raise ConfigError("equidist needs a body")
        name = cfg["pair"][0] if cfg["pair"] else sorted(cfg["bodies"])[0]
    body = built["bodies"][name]
    f = _observable(built, "f")
    mean = dynamics._torus_mean(f)
    ts = np.geomspace(10.0, 500.0, 18) if built["t_grid"] is None else built["t_grid"]
    cfg["ranges"]["t_grid"] = ts.tolist()
    res = dynamics.equidistribute(body, f, ts)
    values = res.average
    _write_series(os.path.join(out, "equidist.csv"), ts, values, [mean] * len(ts))
    _tables.write_json(os.path.join(out, "equidist.json"),
                       {"doubling_error_max": np.max(res.error_estimate)})
    log(f"equidist: |error| from {abs(values[0] - mean):.3e} down to "
        f"{abs(values[-1] - mean):.3e}")
    _plot_script(
        os.path.join(out, "equidist.gp"),
        "boundary equidistribution error",
        ["set logscale xy",
         "plot 'equidist.csv' using 1:6 every ::1 with linespoints "
         "title '|average - mean|', \\",
         "     'equidist.csv' using 1:(0.5/sqrt($1)) every ::1 with lines "
         "title 't^{-1/2} guide'"],
    )
    return 0


def _cmd_oscint(cfg, built, out, workers, log):
    from . import spherequad
    d = cfg["dim"]
    xi = built["xi"]
    cfg["oscint"]["xi"] = xi.tolist()
    beta0 = _beta0(built, "oscint")
    ts = np.geomspace(50.0, 800.0, 12) if built["t_grid"] is None else built["t_grid"]
    if ts.size < 2:
        raise ConfigError("oscint needs two or more ranges.t_grid entries to fit the cap decay")
    cfg["ranges"]["t_grid"] = ts.tolist()
    lam = float(np.linalg.norm(xi - beta0))
    if not lam > 0.0:
        raise ConfigError("oscint needs oscint.xi != twist.beta0 for the stationary points")
    res = spherequad.osc_integral(d, xi=xi, beta0=beta0, t=ts)
    sps, scaled = [], []
    for t, v in zip(ts.tolist(), res.value.tolist()):
        sp, order = spherequad.stationary_phase(d, xi=xi, beta0=beta0, t=t)
        sps.append(sp)
        scaled.append(abs(v - sp) * t ** (-order))
    _tables.write_csv(os.path.join(out, "oscint.csv"),
                      ["t", "value", "stationary", "scaled_residual"],
                      [ts, res.value, sps, scaled])
    cap = spherequad.cap_decay_check(d, xi=xi, ts=list(ts), beta0=beta0)
    _tables.write_json(os.path.join(out, "oscint.json"), {
        "xi": xi, "lambda": lam, "remainder_order": order, "cap_exponent": cap,
        "doubling_error_max": np.max(res.error_estimate)})
    log(f"oscint: equator piece decays like t^{cap:.2f}")
    _plot_script(
        os.path.join(out, "oscint.gp"),
        "oscillatory integral against stationary phase",
        ["set logscale xy",
         "plot 'oscint.csv' using 1:6 every ::1 with linespoints "
         "title 'scaled remainder'"],
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "volumes": _cmd_volumes,
    "spectrum": _cmd_spectrum,
    "zeta": _cmd_zeta,
    "poincare": _cmd_poincare,
    "guinand": _cmd_guinand,
    "correlate": _cmd_correlate,
    "equidist": _cmd_equidist,
    "oscint": _cmd_oscint,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON configuration path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--workers", type=int, default=1,
                        help="worker count of the enumeration (default: 1)")
    common.add_argument("--verbose", action="store_true")
    parser = argparse.ArgumentParser(
        prog="orthospec",
        description="length orthospectra of convex bodies on flat tori",
    )
    parser.add_argument("--version", action="version",
                        version=f"orthospec {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name, parents=[common])
        if name == "zeta":
            sub.add_argument("--report-residues", action="store_true",
                             help="write the residue table")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print("orthospec: workers must be >= 1", file=sys.stderr)
        return 2

    def log(msg: str) -> None:
        if args.verbose:
            print(msg, file=sys.stderr)

    try:
        cfg, built = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        runner = _COMMANDS[args.command]
        extra = {"report_residues": args.report_residues} if args.command == "zeta" else {}
        code = runner(cfg, built, args.out, args.workers, log, **extra)
        _tables.write_json(os.path.join(args.out, "config.resolved.json"),
                           {"version": __version__, "config": cfg})
        return code
    except ConfigError as exc:
        print(f"orthospec: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # propagate module failures as nonzero exit
        print(f"orthospec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
