"""Spans around the public functions of orthospec, recorded from outside.

``Tracer.install`` replaces module attributes with timing wrappers.  Code in
the package calls these functions through module attributes or module
globals, so internal calls (``spherequad.grid`` inside ``osc_integral``,
``fit_spectral_normalization`` inside ``spectral_constants``) are traced too.
Spans stay in memory as ``[name, start, end, parent, counts]`` lists, with
``parent`` the index of the enclosing span or -1, until the launcher writes
them out at exit.  ``layer_metrics`` turns the spans of a set of processes
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import resource
import time

_CONVEX_BUILDERS = ("point", "ball", "ellipsoid", "harmonic", "minkowski_sum", "reflect")

# (module, attribute) -> span name; counts are added by the hooks below
TRACED = {
    ("cli", "main"): "cli.main",
    **{("convex", f): "convex.build" for f in _CONVEX_BUILDERS},
    ("convex", "steiner"): "convex.steiner",
    ("spherequad", "grid"): "spherequad.grid",
    ("spherequad", "osc_integral"): "spherequad.osc_integral",
    ("spectrum", "enumerate"): "spectrum.enumerate",
    ("spectrum", "to_csv"): "spectrum.to_csv",
    ("zetafns", "build_zeta_model"): "zetafns.build_zeta_model",
    ("zetafns", "fit_spectral_normalization"): "zetafns.fit_spectral_normalization",
    ("zetafns", "singularity_scan"): "zetafns.singularity_scan",
    ("zetafns", "poincare_eval"): "zetafns.poincare_eval",
    ("zetafns", "poincare_points_spectral"): "zetafns.poincare_points_spectral",
    ("zetafns", "guinand_pairing"): "zetafns.guinand_pairing",
    ("zetafns", "residues"): "zetafns.residues",
    ("zetafns", "twist_suppression"): "zetafns.twist_suppression",
    ("dynamics", "correlation"): "dynamics.correlation",
    ("dynamics", "correlation_expansion"): "dynamics.correlation_expansion",
    ("dynamics", "aniso_norm"): "dynamics.aniso_norm",
    ("dynamics", "equidistribute"): "dynamics.equidistribute",
}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scan_terms(args, kwargs) -> int:
    """records x y points x (ladder + 1), read from the call's arguments."""
    model = kwargs.get("model", args[0] if args else None)
    ladder = kwargs.get("eps_ladder", args[2] if len(args) > 2 else None)
    y_grid = kwargs.get("y_grid", args[3] if len(args) > 3 else None)
    n_eps = 8 if ladder is None else len(ladder)  # defaults of singularity_scan
    n_y = 641 if y_grid is None else len(y_grid)
    return len(model.spec.lengths) * n_y * (n_eps + 1)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def install(self) -> None:
        from orthospec import cli, convex, dynamics, spectrum, spherequad, zetafns

        modules = {"cli": cli, "convex": convex, "dynamics": dynamics,
                   "spectrum": spectrum, "spherequad": spherequad, "zetafns": zetafns}
        for (mod, attr), name in TRACED.items():
            module = modules[mod]
            original = getattr(module, attr)
            if name == "spherequad.grid":
                wrapped = self._wrap_grid(original)
            else:
                wrapped = self._wrap(name, original)
            setattr(module, attr, wrapped)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> dict:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[4]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = _maxrss_mib() if name == "spectrum.enumerate" else 0.0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                counts = self._close(idx)
            if name == "spectrum.enumerate":
                counts["records"] = len(result)
                counts["rejects"] = len(result.rejects)
                counts["rss_rise_mb"] = _maxrss_mib() - rss0
            elif name == "spectrum.to_csv":
                spec = kwargs.get("spec", args[0] if args else None)
                counts["rows"] = len(spec)
            elif name == "zetafns.singularity_scan":
                counts["terms"] = _scan_terms(args, kwargs)
            return result

        return wrapper

    def _wrap_grid(self, cached):
        """The grid is lru-cached: a call that raised the miss count built a grid."""

        @functools.wraps(cached)
        def wrapper(*args, **kwargs):
            misses = cached.cache_info().misses
            idx = self._open("spherequad.grid")
            try:
                g = cached(*args, **kwargs)
            finally:
                counts = self._close(idx)
            counts["nodes"] = g.n_nodes
            counts["miss"] = cached.cache_info().misses - misses
            return g

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans: list) -> list:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _importtime(stderr_text: str) -> dict:
    """Cumulative seconds of the top-level orthospec imports and of scipy.signal."""
    out = {"orthospec": 0.0, "scipy.signal": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1]) * 1e-6
        except ValueError:  # the header line
            continue
        raw = fields[2]
        name = raw.strip()
        top_level = len(raw) - len(raw.lstrip()) <= 1
        if top_level and (name == "orthospec" or name.startswith("orthospec.")):
            out["orthospec"] += cumulative
        elif name == "scipy.signal":
            out["scipy.signal"] += cumulative
    return out


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(processes: list) -> dict:
    """Per-layer metrics of one round; ``processes`` holds (spans, stderr text) pairs."""
    self_s: dict = {}
    total_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    rss_rise = 0.0
    grid_build_s = 0.0
    nodes_built = 0
    imports = {"orthospec": 0.0, "scipy.signal": 0.0}
    for spans, stderr_text in processes:
        for key, value in _importtime(stderr_text).items():
            imports[key] += value
        for span, own in zip(spans, _self_times(spans)):
            name, start, end, _, cnt = span
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            for key, value in cnt.items():
                if key == "rss_rise_mb":
                    rss_rise = max(rss_rise, value)
                else:
                    counts[(name, key)] = counts.get((name, key), 0) + value
            if name == "spherequad.grid" and cnt.get("miss"):
                grid_build_s += end - start
                nodes_built += cnt["nodes"]

    def rate(name, key):
        busy = self_s.get(name, 0.0)
        return counts.get((name, key), 0) / busy if busy > 0 else 0.0

    m = {
        "import.orthospec_s": imports["orthospec"],
        "import.scipy_signal_s": imports["scipy.signal"],
        "spherequad.grid.build_s": grid_build_s,
        "spherequad.grid.builds": counts.get(("spherequad.grid", "miss"), 0),
        "spherequad.grid.nodes_built": nodes_built,
        "spherequad.grid.nodes_requested": counts.get(("spherequad.grid", "nodes"), 0),
        "spectrum.enumerate.rejects": counts.get(("spectrum.enumerate", "rejects"), 0),
        "spectrum.enumerate.records_per_s": rate("spectrum.enumerate", "records"),
        "spectrum.enumerate.rss_rise_mb": rss_rise,
        "spectrum.to_csv.rows_per_s": rate("spectrum.to_csv", "rows"),
        "zetafns.singularity_scan.terms_per_s": rate("zetafns.singularity_scan", "terms"),
        "zetafns.fit_spectral_normalization.total_s":
            total_s.get("zetafns.fit_spectral_normalization", 0.0),
    }
    for name in ("convex.steiner", "spherequad.osc_integral", "spectrum.enumerate"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in sorted(set(TRACED.values())):
        if name not in ("spherequad.grid", "zetafns.fit_spectral_normalization"):
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
    return m
