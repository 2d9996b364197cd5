"""Configuration-driven experiment runner.

Every capability is a subcommand reading one JSON configuration document and
writing CSV/JSON artifacts plus a gnuplot script into the output directory.
Identical configurations produce byte-identical artifacts regardless of the
worker count; the fully resolved configuration and tool version are echoed
next to the outputs so runs are self-describing.  Each subcommand imports
only the modules it runs, inside its own function: ``oscint`` loads
spherequad alone, and no oscillatory subcommand loads spectrum or zetafns.
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
    "ranges": {
        "T0": None,
        "T": None,
        "sweep": [1.0, 2.0, 4.0],
        "zeta_s_grid": None,
        "poincare_s_grid": None,
        "eps_ladder": None,
        "y_grid": None,
        "t_grid": None,
    },
    "window": {"center": None, "width": 0.2},
    "observables": {},
    "aniso": None,
    "oscint": {"xi": None},
}

_SPECTRUM_T = 50.0  # the window end of spectrum and guinand when ranges.T is unset
# each body kind: the keys it may omit and the keys it needs, besides "kind"
_BODY_KEYS = {
    "point": (("x",), ()),
    "ball": (("center",), ("radius",)),
    "ellipsoid": (("center", "rotation"), ("semiaxes",)),
    "harmonic": ((), ("base", "terms")),
}


@contextlib.contextmanager
def _config_errors(what: str):
    """Raise a malformed entry's IndexError, KeyError, TypeError or ValueError as a ConfigError."""
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as exc:
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


def load_config(path) -> dict:
    """Read, validate, and materialize defaults into one configuration."""
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
    for name, spec in cfg["bodies"].items():
        _check_body(d, name, spec)
    T0, T = cfg["ranges"]["T0"], cfg["ranges"]["T"]
    if any(isinstance(v, bool) or not isinstance(v, (int, float, type(None))) for v in (T0, T)):
        raise ConfigError("ranges.T0 and ranges.T must be numbers")
    if (T0 is not None and T0 < 0) or (None not in (T0, T) and T <= T0):
        raise ConfigError("ranges need T > T0 >= 0")
    if cfg["pair"] is None and len(cfg["bodies"]) >= 2:
        cfg["pair"] = sorted(cfg["bodies"])[:2]
    if cfg["pair"] is not None:
        if (not isinstance(cfg["pair"], list) or len(cfg["pair"]) != 2
                or not all(isinstance(n, str) and n in cfg["bodies"] for n in cfg["pair"])):
            raise ConfigError("pair must name two bodies from 'bodies'")
    if cfg["twist"]["beta0"] is None:
        cfg["twist"]["beta0"] = [0.0] * d
    with _config_errors("twist.beta0"):  # checked, and echoed as given
        if len([_number(b) for b in cfg["twist"]["beta0"]]) != d:
            raise ValueError(f"needs {d} entries")
    _check_modes(d, "twist.modes", cfg["twist"]["modes"])
    if cfg["aniso"] is not None:
        cfg["aniso"] = _fields("aniso", cfg["aniso"], {
            "s0": None, "s1": None, "N0": None, "N1": None, "gamma": [0.0] * d, "width": 0.2},
            required=("s0", "s1", "N0", "N1"))
    for name, spec in cfg["observables"].items():
        spec = cfg["observables"][name] = _fields(
            f"observable '{name}'", spec, {"modes": None, "real": False}, required=("modes",))
        if not isinstance(spec["real"], bool):
            raise ConfigError(f"observable '{name}' needs real true or false")
        _check_modes(d, f"observable '{name}' modes", spec["modes"])
    return cfg


def _check_body(d: int, name: str, spec) -> None:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _BODY_KEYS:
        raise ConfigError(f"body '{name}' needs kind in {sorted(_BODY_KEYS)}")
    optional, required = _BODY_KEYS[kind]
    _fields(f"{kind} '{name}'", spec, dict.fromkeys(("kind", *optional, *required)), required)
    if kind == "ellipsoid" and (not isinstance(spec["semiaxes"], list)
                                or len(spec["semiaxes"]) != d):
        raise ConfigError(f"ellipsoid '{name}' needs {d} semiaxes")
    if kind == "harmonic":
        _check_body(d, f"{name}.base", spec["base"])


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


def _twist_form(cfg: dict) -> spectrum.TwistForm:
    """The configured twist; one that TwistForm rejects is a ConfigError."""
    from . import spectrum
    with _config_errors("twist"):
        modes = {_parse_freq(k): _parse_coeff(v)
                 for k, v in cfg["twist"]["modes"].items()}
        return spectrum.TwistForm(cfg["twist"]["beta0"], modes)


def _observable(cfg: dict, name: str) -> dynamics.TorusObservable:
    from . import dynamics
    if name not in cfg["observables"]:
        raise ConfigError(f"configuration lacks observable '{name}'")
    spec = cfg["observables"][name]
    with _config_errors(f"observable '{name}'"):
        modes = {_parse_freq(k): _parse_coeff(v) for k, v in spec["modes"].items()}
        return dynamics.TorusObservable(cfg["dim"], modes, real=spec["real"])


def _pair_bodies(cfg: dict) -> tuple:
    if cfg["pair"] is None:
        raise ConfigError("this subcommand needs a body pair")
    k1 = build_body(cfg["dim"], cfg["bodies"][cfg["pair"][0]])
    k2 = build_body(cfg["dim"], cfg["bodies"][cfg["pair"][1]])
    return k1, k2


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
    if not reach * T > T0:  # so a NaN T or T0 fails too
        raise ConfigError(f"ranges need T > T0 >= 0; the window ({T0:g}, {reach * T:g}] is empty")
    spec = spectrum.enumerate(k1, k2, T0=T0, T=reach * T, beta=beta, workers=workers)
    r["T0"], r["T"] = spec.T0, T
    return spec


def _grid(cfg: dict, key: str, fallback=None):
    """ranges[key] as an array: a list, or {start, stop, num, spacing}; None is fallback.

    Every entry, start and stop is a number, num an integral one (20 by
    default), spacing "linear" (the default) or "log", and no other key is
    allowed.  Its consumer checks the values before any artifact is written.
    """
    spec = cfg["ranges"][key]
    if spec is None:
        return fallback
    with _config_errors(f"ranges.{key}"):
        if isinstance(spec, dict):
            spec = _fields(f"ranges.{key}", spec, {
                "start": None, "stop": None, "num": 20, "spacing": "linear"},
                required=("start", "stop"))
            num = _number(spec["num"])
            if not num.is_integer():
                raise ValueError(f"num {num!r} is not an integral number")
            spacing = spec["spacing"]
            space = {"linear": np.linspace, "log": np.geomspace}.get(spacing)
            if space is None:
                raise ValueError(f"spacing {spacing!r} is not 'linear' or 'log'")
            return space(_number(spec["start"]), _number(spec["stop"]), int(num))
        return np.asarray([_number(x) for x in spec])


def _t_grid(cfg: dict, fallback: np.ndarray, least: int = 1) -> np.ndarray:
    """ranges.t_grid, echoed into cfg: at least `least` entries, each finite and > 0."""
    ts = _grid(cfg, "t_grid", fallback)
    if ts.size < least or not np.all((ts > 0.0) & (ts < math.inf)):
        raise ConfigError(f"ranges.t_grid needs at least {least} entries, each finite and > 0")
    cfg["ranges"]["t_grid"] = ts.tolist()
    return ts


def _s_grid_spec(spec, fallback: list) -> np.ndarray:
    if spec is None:
        return np.array(fallback)
    with _config_errors("s grid"):
        s_grid = np.array([complex(_number(x), _number(y)) for x, y in spec], dtype=complex)
    if not np.all(np.isfinite(s_grid)):
        raise ConfigError("s grids need finite entries")
    return s_grid


def _number(value) -> float:
    """value as a float; a string, a bool or a list is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _write_series(path, ts, values, expansions) -> None:
    residual = [abs(complex(v) - complex(e)) for v, e in zip(values, expansions)]
    _tables.write_csv(path, ["t", "value", "expansion", "residual"],
                      [ts, values, expansions, residual])


def _echo_config(cfg: dict, out: str) -> None:
    _tables.write_json(os.path.join(out, "config.resolved.json"),
                       {"version": __version__, "config": cfg})


def _plot_script(path, title: str, lines: list) -> None:
    text = "\n".join(
        ["set datafile separator ','", f"set title '{title}'", "set key left"]
        + lines
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_volumes(cfg, out, workers, log):
    from . import convex
    if not cfg["bodies"]:
        raise ConfigError("volumes needs at least one body")
    report = {}
    for name in sorted(cfg["bodies"]):
        body = build_body(cfg["dim"], cfg["bodies"][name])
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


def _cmd_spectrum(cfg, out, workers, log):
    from . import spectrum
    k1, k2 = _pair_bodies(cfg)
    spec = _enumerated(cfg, k1, k2, _twist_form(cfg), workers, _SPECTRUM_T)
    log(f"spectrum: {spec.lengths.size} orthogeodesics in ({spec.T0:g}, {spec.T:g}]")
    spectrum.to_csv(spec, os.path.join(out, "spectrum.csv"),
                    os.path.join(out, "spectrum.meta.json"))
    rho = spectrum.density_coeffs(k1, k2)
    ts = np.linspace(spec.T0 + 1.0, spec.T, 60)
    counts = [spectrum.counting(spec, float(tv)) for tv in ts]
    model = [sum(rho[k - 1] * tv**k / k for k in range(1, spec.dim + 1)) for tv in ts]
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
    with _config_errors("ranges.sweep"):
        sweep = [_number(f) for f in cfg["ranges"]["sweep"]]
    if not sweep or not all(1.0 <= f < math.inf for f in sweep):
        raise ConfigError("ranges.sweep: sweep factors must be finite and >= 1")
    spec = _enumerated(cfg, k1, k2, beta, workers, 60.0 * math.pi / cfg["dim"], max(sweep))
    return zetafns.build_zeta_model(spec, cfg["ranges"]["T"])


def _cmd_zeta(cfg, out, workers, log, report_residues=False):
    from . import zetafns
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    if report_residues and not beta.is_zero:
        raise ConfigError("--report-residues needs the untwisted setting")
    r = cfg["ranges"]
    d = cfg["dim"]
    fallback = [complex(0.25 + 0.5 * k, 0.0) for k in range(2 * d + 1)]
    s_grid = _s_grid_spec(r["zeta_s_grid"], fallback)
    model = _zeta_model(cfg, k1, k2, beta, workers)
    if not beta.is_zero:
        # twisted series: no rational tail model, report convergent head sums
        s_grid = s_grid[s_grid.real > d]
    value = zetafns.zeta_continue if beta.is_zero else zetafns.zeta_eval
    values = np.array([value(model, s) for s in s_grid.tolist()], dtype=complex)
    cfg["ranges"]["zeta_s_grid"] = [[s.real, s.imag] for s in s_grid.tolist()]
    _tables.write_csv(os.path.join(out, "zeta_values.csv"), ["s", "value"], [s_grid, values])
    if report_residues:
        ests = zetafns.residues(model)
        _tables.write_json(os.path.join(out, "residues.json"), [
            {"pole": est.pole, "residue": est.residue, "err": est.error,
             "predicted_from_volumes": est.predicted_from_volumes}
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


def _cmd_poincare(cfg, out, workers, log):
    from . import zetafns
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    r = cfg["ranges"]
    fallback = [complex(0.2, y) for y in np.linspace(0.0, 3.2, 33)]
    s_grid = _s_grid_spec(r["poincare_s_grid"], fallback)
    if not np.all(s_grid.real >= zetafns._EPS_FLOOR):
        raise ConfigError(f"ranges.poincare_s_grid needs Re(s) >= {zetafns._EPS_FLOOR}")
    model = _zeta_model(cfg, k1, k2, beta, workers)
    with _config_errors("ranges"):  # the check singularity_scan runs, before any artifact
        eps_ladder, y_grid = zetafns._scan_grids(_grid(cfg, "eps_ladder"), _grid(cfg, "y_grid"),
                                                 model.spec.T)
    cfg["ranges"]["poincare_s_grid"] = [[s.real, s.imag] for s in s_grid.tolist()]
    values = np.array([zetafns.poincare_eval(model, s) for s in s_grid.tolist()], dtype=complex)
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
            # the exact dual-sum path is available on the real axis only
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


def _cmd_guinand(cfg, out, workers, log):
    from . import zetafns
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    if cfg["ranges"]["T0"] not in (None, 0):
        raise ConfigError("guinand enumerates from T0 = 0; ranges.T0 must be 0 or unset")
    cfg["ranges"]["T0"] = 0.0
    center = cfg["window"]["center"]
    if center is None:
        # the lattice point nearest beta0 lies within sqrt(d)/2 of it; when
        # that point is beta0 itself, a neighbour lies at distance 1
        lines = zetafns.predicted_lines(beta, math.sqrt(cfg["dim"]) / 2.0 + 1.0)
        center = float(lines[lines > 1e-9][0])
    with _config_errors("window"):
        window = zetafns.GaussianWindow(_number(center), _number(cfg["window"]["width"]))
    center, width = window.center, window.width
    cfg["window"]["center"] = center
    spec = _enumerated(cfg, k1, k2, beta, workers, _SPECTRUM_T)
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


def _cmd_correlate(cfg, out, workers, log):
    from . import dynamics
    beta0 = np.asarray(cfg["twist"]["beta0"], dtype=float)
    phi = _observable(cfg, "phi")
    psi = _observable(cfg, "psi")
    ts = _t_grid(cfg, np.geomspace(50.0, 800.0, 16))
    params = None
    if cfg["aniso"] is not None:
        a = cfg["aniso"]
        with _config_errors("aniso"):
            # AnisoParams refuses orders that are not integral numbers
            params = dynamics.AnisoParams(
                s0=a["s0"], s1=a["s1"], N0=_number(a["N0"]),
                N1=_number(a["N1"]), gamma=tuple(a["gamma"]), width=_number(a["width"]))
            if len(params.gamma) != cfg["dim"]:
                raise ValueError(f"gamma needs {cfg['dim']} entries")
            for g in params.gamma:  # checked, and echoed as given
                _number(g)
    values = dynamics.correlation(phi, psi, beta0, ts, workers=workers)
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


def _cmd_equidist(cfg, out, workers, log):
    from . import dynamics
    name = cfg["body"]
    if name is None:
        if not cfg["bodies"]:
            raise ConfigError("equidist needs a body")
        name = cfg["pair"][0] if cfg["pair"] else sorted(cfg["bodies"])[0]
    if not isinstance(name, str) or name not in cfg["bodies"]:
        raise ConfigError(f"unknown body '{name}'")
    body = build_body(cfg["dim"], cfg["bodies"][name])
    f = _observable(cfg, "f")
    mean = dynamics._torus_mean(f)
    ts = _t_grid(cfg, np.geomspace(10.0, 500.0, 18))
    res = dynamics.equidistribute(body, f, ts, workers=workers)
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


def _cmd_oscint(cfg, out, workers, log):
    from . import spherequad
    d = cfg["dim"]
    xi = cfg["oscint"]["xi"]
    with _config_errors("oscint.xi"):
        xi = np.asarray([1.0] + [0.0] * (d - 1) if xi is None else [_number(x) for x in xi])
    if xi.shape != (d,):
        raise ConfigError(f"oscint.xi needs {d} entries")
    cfg["oscint"]["xi"] = xi.tolist()
    beta0 = np.asarray(cfg["twist"]["beta0"], dtype=float)
    ts = _t_grid(cfg, np.geomspace(50.0, 800.0, 12), least=2)  # two to fit the cap decay
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
    common.add_argument("--workers", type=int, default=1, help="worker count (default: 1)")
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
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        runner = _COMMANDS[args.command]
        if args.command == "zeta":
            code = runner(cfg, args.out, args.workers, log,
                          report_residues=args.report_residues)
        else:
            code = runner(cfg, args.out, args.workers, log)
        _echo_config(cfg, args.out)
        return code
    except ConfigError as exc:
        print(f"orthospec: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # propagate module failures as nonzero exit
        print(f"orthospec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
