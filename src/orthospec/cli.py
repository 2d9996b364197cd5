"""Configuration-driven experiment runner.

Every capability is a subcommand reading one JSON configuration document and
writing CSV/JSON artifacts plus a gnuplot script into the output directory.
Identical configurations produce byte-identical artifacts regardless of the
worker count; the fully resolved configuration and tool version are echoed
next to the outputs so runs are self-describing.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, _tables, convex, dynamics, spectrum, spherequad, zetafns

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
_VALUE_HEADER = ["s_re", "s_im", "value_re", "value_im"]
_BODY_KINDS = {"point", "ball", "ellipsoid", "harmonic"}


@contextlib.contextmanager
def _config_errors(what: str):
    """Raise a malformed entry's IndexError, KeyError, TypeError or ValueError as a ConfigError."""
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _merge_section(name: str, defaults: dict, given) -> dict:
    if given is None:
        return copy.deepcopy(defaults)
    if not isinstance(given, dict):
        raise ConfigError(f"section '{name}' must be an object")
    out = copy.deepcopy(defaults)
    for k, v in given.items():
        if k not in defaults:
            raise ConfigError(f"unknown key '{k}' in section '{name}'")
        out[k] = v
    return out


def load_config(path) -> dict:
    """Read, validate, and materialize defaults into one configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    cfg = {}
    for key in raw:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown top-level key '{key}'")
    for key, default in _DEFAULTS.items():
        if key in ("twist", "ranges", "window", "oscint"):
            cfg[key] = _merge_section(key, default, raw.get(key))
        else:
            cfg[key] = copy.deepcopy(raw.get(key, default))
    d = cfg["dim"]
    if not isinstance(d, int) or d < 2:
        raise ConfigError("dim must be an integer >= 2")
    if not isinstance(cfg["bodies"], dict):
        raise ConfigError("bodies must map names to body descriptions")
    for name, spec in cfg["bodies"].items():
        _check_body(d, name, spec)
    T0, T = cfg["ranges"]["T0"], cfg["ranges"]["T"]
    if (T0 is not None and T0 < 0) or (None not in (T0, T) and T <= T0):
        raise ConfigError("ranges need T > T0 >= 0")
    if cfg["pair"] is None and len(cfg["bodies"]) >= 2:
        cfg["pair"] = sorted(cfg["bodies"])[:2]
    if cfg["pair"] is not None:
        if (not isinstance(cfg["pair"], list) or len(cfg["pair"]) != 2
                or any(n not in cfg["bodies"] for n in cfg["pair"])):
            raise ConfigError("pair must name two bodies from 'bodies'")
    if cfg["twist"]["beta0"] is None:
        cfg["twist"]["beta0"] = [0.0] * d
    if len(cfg["twist"]["beta0"]) != d:
        raise ConfigError("twist.beta0 dimension mismatch")
    if not isinstance(cfg["twist"]["modes"], dict):
        raise ConfigError("twist.modes must be an object")
    for key in cfg["twist"]["modes"]:
        if len(_parse_freq(key)) != d:
            raise ConfigError(f"twist mode '{key}' dimension mismatch")
    if cfg["aniso"] is not None:
        need = {"s0", "s1", "N0", "N1"}
        if not isinstance(cfg["aniso"], dict) or not need <= set(cfg["aniso"]):
            raise ConfigError("aniso needs keys s0, s1, N0, N1")
        cfg["aniso"].setdefault("gamma", [0.0] * d)
        cfg["aniso"].setdefault("width", 0.2)
    for name, spec in cfg["observables"].items():
        if not isinstance(spec, dict) or "modes" not in spec:
            raise ConfigError(f"observable '{name}' needs a 'modes' object")
        spec.setdefault("real", False)
        for key in spec["modes"]:
            if len(_parse_freq(key)) != d:
                raise ConfigError(f"observable '{name}' mode '{key}' dimension mismatch")
    return cfg


def _check_body(d: int, name: str, spec) -> None:
    if not isinstance(spec, dict) or spec.get("kind") not in _BODY_KINDS:
        raise ConfigError(f"body '{name}' needs kind in {sorted(_BODY_KINDS)}")
    kind = spec["kind"]
    if kind == "ball" and "radius" not in spec:
        raise ConfigError(f"ball '{name}' needs a radius")
    if kind == "ellipsoid" and len(spec.get("semiaxes", [])) != d:
        raise ConfigError(f"ellipsoid '{name}' needs {d} semiaxes")
    if kind == "harmonic":
        if "base" not in spec or "terms" not in spec:
            raise ConfigError(f"harmonic '{name}' needs base and terms")
        _check_body(d, f"{name}.base", spec["base"])


def _parse_freq(key: str) -> tuple:
    with _config_errors(f"bad frequency key '{key}'"):
        return tuple(int(c) for c in str(key).split(","))


def _parse_coeff(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def build_body(dim: int, spec: dict) -> convex.SupportBody:
    """The body of a checked description; one the constructors reject is a ConfigError."""
    kind = spec["kind"]
    with _config_errors(f"{kind} body"):
        if kind == "point":
            body = convex.point(spec.get("x", [0.0] * dim))
        elif kind == "ball":
            body = convex.ball(spec.get("center", [0.0] * dim), float(spec["radius"]))
        elif kind == "ellipsoid":
            rot = spec.get("rotation")
            body = convex.ellipsoid(
                spec.get("center", [0.0] * dim),
                spec["semiaxes"],
                rotation=None if rot is None else np.asarray(rot, dtype=float),
            )
        else:
            terms = [(int(t[0]), t[1], float(t[2])) for t in spec["terms"]]
            body = convex.harmonic(build_body(dim, spec["base"]), terms)
    if body.dim != dim:
        raise ConfigError(f"{kind} body has dimension {body.dim}, not {dim}")
    return body


def _twist_form(cfg: dict) -> spectrum.TwistForm:
    """The configured twist; one that TwistForm rejects is a ConfigError."""
    with _config_errors("twist"):
        modes = {_parse_freq(k): _parse_coeff(v)
                 for k, v in cfg["twist"]["modes"].items()}
        return spectrum.TwistForm(cfg["twist"]["beta0"], modes)


def _observable(cfg: dict, name: str) -> dynamics.TorusObservable:
    if name not in cfg["observables"]:
        raise ConfigError(f"configuration lacks observable '{name}'")
    spec = cfg["observables"][name]
    with _config_errors(f"observable '{name}'"):
        modes = {_parse_freq(k): _parse_coeff(v) for k, v in spec["modes"].items()}
        return dynamics.TorusObservable(cfg["dim"], modes, real=bool(spec["real"]))


def _pair_bodies(cfg: dict) -> tuple:
    if cfg["pair"] is None:
        raise ConfigError("this subcommand needs a body pair")
    k1 = build_body(cfg["dim"], cfg["bodies"][cfg["pair"][0]])
    k2 = build_body(cfg["dim"], cfg["bodies"][cfg["pair"][1]])
    return k1, k2


def _window_T(cfg: dict, default: float, k1, k2, T0, reach: float = 1.0) -> float:
    """ranges.T or its default; an empty window (T0, reach * T] is a ConfigError.

    T0 = None stands for the start the enumeration takes from the bodies.
    """
    T = default if cfg["ranges"]["T"] is None else float(cfg["ranges"]["T"])
    if T0 is None:
        T0 = spectrum._default_T0(k1, k2)
    if reach * T <= T0:
        raise ConfigError(f"ranges need T > T0 >= 0; the window ({T0:g}, {reach * T:g}] is empty")
    return T


def _grid_spec(spec, fallback: np.ndarray) -> np.ndarray:
    """Resolve a grid description: explicit list, {start, stop, num, spacing}."""
    if spec is None:
        return fallback
    with _config_errors("grid"):
        if isinstance(spec, dict):
            num = int(spec.get("num", 20))
            lo, hi = float(spec["start"]), float(spec["stop"])
            if spec.get("spacing", "linear") == "log":
                return np.geomspace(lo, hi, num)
            return np.linspace(lo, hi, num)
        return np.asarray([float(x) for x in spec])


def _s_grid_spec(spec, fallback: list) -> list:
    if spec is None:
        return fallback
    with _config_errors("s grid"):
        s_grid = [complex(float(p[0]), float(p[1])) for p in spec]
    if not np.all(np.isfinite(s_grid)):
        raise ConfigError("s grids need finite entries")
    return s_grid


def _re_im(values) -> list:
    """The real and imaginary columns of a sequence of complex numbers."""
    z = np.asarray(values, dtype=complex)
    return [z.real, z.imag]


def _write_series(path, ts, values, expansions) -> None:
    residual = [abs(complex(v) - complex(e)) for v, e in zip(values, expansions)]
    _tables.write_csv(
        path, ["t", "value_re", "value_im", "expansion_re", "expansion_im", "residual"],
        [ts] + _re_im(values) + _re_im(expansions) + [residual],
    )


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
    if not cfg["bodies"]:
        raise ConfigError("volumes needs at least one body")
    report = {}
    for name in sorted(cfg["bodies"]):
        body = build_body(cfg["dim"], cfg["bodies"][name])
        data = convex.steiner(body)
        report[name] = {
            "dim": data.dim,
            "volume": data.volume,
            "surface_moments": list(data.surface_moments),
            "steiner_coeffs": list(data.steiner_coeffs),
            "intrinsic": {f"V{k}": v for k, v in enumerate(data.intrinsic)},
        }
        log(f"volumes[{name}]: V = [{', '.join(f'{v:.6f}' for v in data.intrinsic)}]")
    _tables.write_json(os.path.join(out, "volumes.json"), report)
    _plot_script(
        os.path.join(out, "volumes.gp"),
        "intrinsic volumes",
        ["# data in volumes.json; plot per body as impulses of V_k vs k"],
    )
    return 0


def _cmd_spectrum(cfg, out, workers, log):
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    r = cfg["ranges"]
    T = _window_T(cfg, _SPECTRUM_T, k1, k2, r["T0"])
    spec = spectrum.enumerate(k1, k2, T0=r["T0"], T=T, beta=beta, workers=workers)
    log(f"spectrum: {spec.lengths.size} orthogeodesics in ({spec.T0:g}, {T:g}]")
    spectrum.to_csv(spec, os.path.join(out, "spectrum.csv"),
                    os.path.join(out, "spectrum.meta.json"))
    rho = spectrum.density_coeffs(k1, k2)
    ts = np.linspace(spec.T0 + 1.0, T, 60)
    counts = [spectrum.counting(spec, float(tv)) for tv in ts]
    model = [sum(rho[k - 1] * tv**k / k for k in range(1, spec.dim + 1)) for tv in ts]
    weighted = [spectrum.counting_weighted(spec, float(tv)) for tv in ts]
    _tables.write_csv(os.path.join(out, "counting.csv"),
                      ["T", "count", "model", "weighted_re", "weighted_im"],
                      [ts, counts, model] + _re_im(weighted))
    _plot_script(
        os.path.join(out, "spectrum.gp"),
        "orthogeodesic counting",
        ["plot 'counting.csv' using 1:2 every ::1 with steps title 'N(T)', \\",
         "     'counting.csv' using 1:3 every ::1 with lines title 'model'"],
    )
    return 0


def _zeta_model(cfg, k1, k2, beta, workers) -> zetafns.ZetaModel:
    r = cfg["ranges"]
    with _config_errors("ranges.sweep"):
        sweep = zetafns._sweep_factors(r["sweep"])
    T = _window_T(cfg, zetafns._default_T(cfg["dim"]), k1, k2, r["T0"], reach=sweep[-1])
    return zetafns.build_zeta_model(k1, k2, beta=beta, T=T, T0=r["T0"],
                                    workers=workers, sweep=sweep)


def _cmd_zeta(cfg, out, workers, log, report_residues=False):
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    r = cfg["ranges"]
    d = cfg["dim"]
    fallback = [complex(0.25 + 0.5 * k, 0.0) for k in range(2 * d + 1)]
    s_grid = _s_grid_spec(r["zeta_s_grid"], fallback)
    model = _zeta_model(cfg, k1, k2, beta, workers)
    if beta.is_zero:
        values = [zetafns.zeta_continue(model, s) for s in s_grid]
    else:
        # twisted series: no rational tail model, report convergent head sums
        s_grid = [s for s in s_grid if s.real > d]
        values = [zetafns.zeta_eval(model, s) for s in s_grid]
    cfg["ranges"]["zeta_s_grid"] = [[s.real, s.imag] for s in s_grid]
    _tables.write_csv(os.path.join(out, "zeta_values.csv"), _VALUE_HEADER,
                      _re_im(s_grid) + _re_im(values))
    if report_residues:
        if not beta.is_zero:
            raise ConfigError("--report-residues needs the untwisted setting")
        ests = zetafns.residues(model)
        _tables.write_json(os.path.join(out, "residues.json"), [
            {
                "pole": est.pole,
                "residue_re": est.residue.real,
                "residue_im": est.residue.imag,
                "err": est.error,
                "predicted_from_volumes": est.predicted_from_volumes,
            }
            for est in ests
        ])
        for est in ests:
            log(f"zeta: Res at s={est.pole} is {est.residue:.9g} "
                f"(volumes predict {est.predicted_from_volumes:.9g})")
    if not beta.is_zero:
        rep = zetafns.twist_suppression(model)
        if rep.mode == "decay":
            decided = {"t_ladder": list(rep.t_ladder), "ratios": list(rep.ratios),
                       "untwisted_level": rep.untwisted_level, "threshold": rep.threshold}
        else:
            (w_re, w_im), (e_re, e_im) = _re_im(rep.weighted), _re_im(rep.empirical)
            decided = {"weighted_re": w_re.tolist(), "weighted_im": w_im.tolist(),
                       "empirical_re": e_re.tolist(), "empirical_im": e_im.tolist(),
                       "deviation": rep.deviation}
        _tables.write_json(os.path.join(out, "twist.json"),
                           {"mode": rep.mode, "certified": rep.certified, **decided})
        log(f"zeta: twist suppression certified={rep.certified}")
    _plot_script(
        os.path.join(out, "zeta.gp"),
        "zeta continuation on the real axis",
        ["plot 'zeta_values.csv' using 1:3 every ::1 with linespoints title 'Re zeta'"],
    )
    return 0


def _cmd_poincare(cfg, out, workers, log):
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    r = cfg["ranges"]
    fallback = [complex(0.2, y) for y in np.linspace(0.0, 3.2, 33)]
    s_grid = _s_grid_spec(r["poincare_s_grid"], fallback)
    model = _zeta_model(cfg, k1, k2, beta, workers)
    cfg["ranges"]["poincare_s_grid"] = [[s.real, s.imag] for s in s_grid]
    values = [zetafns.poincare_eval(model, s) for s in s_grid]
    _tables.write_csv(os.path.join(out, "poincare_values.csv"), _VALUE_HEADER,
                      _re_im(s_grid) + _re_im(values))
    eps_ladder = r["eps_ladder"]
    y_spec = r["y_grid"]
    y_grid = None if y_spec is None else _grid_spec(y_spec, None)
    fits = zetafns.singularity_scan(
        model, eps_ladder=None if eps_ladder is None else list(eps_ladder),
        y_grid=y_grid,
    )
    kappa, _ = zetafns.spectral_constants(model.spec.dim)
    _tables.write_json(os.path.join(out, "scan.json"), {
        "kappa": kappa,
        "lines": [
            {
                "location": f.location,
                "alpha": f.alpha,
                "exponent": f.exponent,
                "exponent_ci": f.exponent_ci,
                "coefficient_re": f.coefficient.real,
                "coefficient_im": f.coefficient.imag,
                "residual": f.residual,
                "nearest_line": f.nearest_line,
                "line_distance": f.line_distance,
            }
            for f in fits
        ],
    })
    for f in fits:
        log(f"poincare: line at y={f.location:.4f} exponent {f.exponent:+.3f} "
            f"(nearest {f.nearest_line:.4f})")
    if k1.is_point and k2.is_point:
        x = zetafns._point_location(k1)
        y = zetafns._point_location(k2)
        if np.linalg.norm(x - y) > 1e-9:
            # the exact dual-sum path is available on the real axis only
            real = [(s, v) for s, v in zip(s_grid, values)
                    if s.real > 0 and s.imag == 0.0]
            s_real = [s for s, _ in real]
            series = [v for _, v in real]
            dual = [zetafns.poincare_points_spectral(x, y, beta, s)
                    for s in s_real]
            rel = [abs(a - b) / max(abs(b), 1e-300) for a, b in zip(series, dual)]
            _tables.write_csv(
                os.path.join(out, "spectral.csv"),
                ["s_re", "s_im", "series_re", "series_im", "spectral_re",
                 "spectral_im", "rel_diff"],
                _re_im(s_real) + _re_im(series) + _re_im(dual) + [rel],
            )
    _plot_script(
        os.path.join(out, "poincare.gp"),
        "Poincare series toward the boundary",
        ["plot 'poincare_values.csv' using 2:(sqrt($3*$3+$4*$4)) every ::1 "
         "with lines title '|P(eps+iy)|'"],
    )
    return 0


def _cmd_guinand(cfg, out, workers, log):
    k1, k2 = _pair_bodies(cfg)
    beta = _twist_form(cfg)
    T = _window_T(cfg, _SPECTRUM_T, k1, k2, 0.0)
    center = cfg["window"]["center"]
    if center is None:
        lines = zetafns.predicted_lines(beta, 10.0)
        positive = lines[lines > 1e-9]
        if positive.size == 0:
            raise ConfigError("no spectral line available for the window center")
        center = float(positive[0])
    with _config_errors("window"):
        width = float(cfg["window"]["width"])
        window = zetafns.GaussianWindow(center, width)
    cfg["window"]["center"] = center
    fwd = spectrum.enumerate(k1, k2, T0=0.0, T=T, beta=beta, workers=workers)
    bwd = spectrum.enumerate(k2, k1, T0=0.0, T=T, beta=beta, workers=workers)
    res = zetafns.guinand_pairing(fwd, bwd, window)
    diff = abs(res.length_side - res.spectral_side)
    denom = max(abs(res.length_side), abs(res.spectral_side))
    _tables.write_json(os.path.join(out, "guinand.json"), {
        "window": {"center": center, "width": width},
        "length_side_re": res.length_side.real,
        "length_side_im": res.length_side.imag,
        "spectral_side_re": res.spectral_side.real,
        "spectral_side_im": res.spectral_side.imag,
        "abs_diff": diff,
        "rel_diff": diff / denom if denom > 0 else 0.0,
        "truncation_mass": res.truncation_mass,
        "lines": list(res.lines),
    })
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
    beta0 = np.asarray(cfg["twist"]["beta0"], dtype=float)
    phi = _observable(cfg, "phi")
    psi = _observable(cfg, "psi")
    ts = _grid_spec(cfg["ranges"]["t_grid"], np.geomspace(50.0, 800.0, 16))
    cfg["ranges"]["t_grid"] = [float(t) for t in ts]
    values, expans = [], []
    for t in ts:
        values.append(dynamics.correlation(phi, psi, beta0, float(t),
                                           workers=workers))
        expans.append(dynamics.correlation_expansion(phi, psi, beta0, float(t)))
    _write_series(os.path.join(out, "correlate.csv"), ts, values, expans)
    log(f"correlate: {len(ts)} samples, last residual "
        f"{abs(values[-1] - expans[-1]):.3e}")
    if cfg["aniso"] is not None:
        a = cfg["aniso"]
        params = dynamics.AnisoParams(
            s0=int(a["s0"]), s1=int(a["s1"]), N0=float(a["N0"]),
            N1=float(a["N1"]), gamma=tuple(a["gamma"]), width=float(a["width"]))
        report = {}
        for name, obs in (("phi", phi), ("psi", psi)):
            val = dynamics.aniso_norm(obs, params)
            report[name] = val
            log(f"correlate: aniso norm of {name} = {val:.6g}")
        _tables.write_json(os.path.join(out, "norms.json"), {
            "params": {"s0": params.s0, "s1": params.s1, "N0": params.N0,
                       "N1": params.N1, "gamma": list(params.gamma),
                       "width": params.width},
            "norms": report,
        })
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
    name = cfg["body"]
    if name is None:
        if not cfg["bodies"]:
            raise ConfigError("equidist needs a body")
        name = cfg["pair"][0] if cfg["pair"] else sorted(cfg["bodies"])[0]
    if name not in cfg["bodies"]:
        raise ConfigError(f"unknown body '{name}'")
    body = build_body(cfg["dim"], cfg["bodies"][name])
    f = _observable(cfg, "f")
    mean = dynamics._torus_mean(f)
    ts = _grid_spec(cfg["ranges"]["t_grid"], np.geomspace(10.0, 500.0, 18))
    cfg["ranges"]["t_grid"] = [float(t) for t in ts]
    values = []
    for t in ts:
        res = dynamics.equidistribute(body, f, float(t), workers=workers)
        values.append(res.average)
    _write_series(os.path.join(out, "equidist.csv"), ts, values, [mean] * len(ts))
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
    d = cfg["dim"]
    xi = cfg["oscint"]["xi"]
    xi = np.asarray([1.0] + [0.0] * (d - 1) if xi is None else xi, dtype=float)
    if xi.shape != (d,):
        raise ConfigError(f"oscint.xi needs {d} entries")
    cfg["oscint"]["xi"] = [float(c) for c in xi]
    beta0 = np.asarray(cfg["twist"]["beta0"], dtype=float)
    ts = _grid_spec(cfg["ranges"]["t_grid"], np.geomspace(50.0, 800.0, 12))
    if ts.size < 2:
        raise ConfigError("oscint needs at least two t values to fit the cap decay")
    if not np.all(ts > 0.0):
        raise ConfigError("oscint needs t_grid entries > 0")
    cfg["ranges"]["t_grid"] = [float(t) for t in ts]
    lam = float(np.linalg.norm(xi - beta0))
    if not lam > 0.0:
        raise ConfigError("oscint needs oscint.xi != twist.beta0 for the stationary points")
    vals, sps, scaled, errs = [], [], [], []
    for t in ts:
        res = spherequad.osc_integral(d, xi=xi, beta0=beta0, t=float(t))
        sp, order = spherequad.stationary_phase(d, xi=xi, beta0=beta0, t=float(t))
        vals.append(res.value)
        errs.append(res.error_estimate)
        sps.append(sp)
        scaled.append(abs(res.value - sp) * float(t) ** (-order))
    _tables.write_csv(
        os.path.join(out, "oscint.csv"),
        ["t", "value_re", "value_im", "stationary_re", "stationary_im",
         "scaled_residual"],
        [ts] + _re_im(vals) + _re_im(sps) + [scaled],
    )
    cap = spherequad.cap_decay_check(d, xi=xi, ts=list(ts), beta0=beta0)
    _tables.write_json(os.path.join(out, "oscint.json"), {
        "xi": [float(c) for c in xi],
        "lambda": lam,
        "remainder_order": order,
        "cap_exponent": cap,
        "doubling_error_max": max(errs),
    })
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
    common.add_argument("--workers", type=int, default=None,
                        help="worker count (default: ORTHOSPEC_WORKERS or 1)")
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
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("ORTHOSPEC_WORKERS", "1"))
    if workers < 1:
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
            code = runner(cfg, args.out, workers, log,
                          report_residues=args.report_residues)
        else:
            code = runner(cfg, args.out, workers, log)
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
