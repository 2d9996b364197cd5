"""Orthogeodesic enumeration between projected convex bodies.

Between the torus projections of two strictly convex bodies, orthogeodesics
of the flat metric correspond to lattice vectors: for the difference body
L = K1 + (-K2), the arc hitting both boundaries orthogonally with homotopy
data xi has length t(xi) = max over unit theta of (theta . 2 pi xi -
h_L(theta)).  The maximum is found by Riemannian Newton on the sphere; the
resulting records carry the lattice class, direction, length and the
holonomy phase of a twist one-form beta = beta0 . dx + df; the feet are
convex.inverse_gauss of the direction on the two bodies.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from . import _tables, convex, spherequad

__all__ = [
    "TwistForm",
    "LengthSpectrum",
    "NewtonDiverged",
    "difference_body",
    "enumerate",
    "counting",
    "counting_weighted",
    "steiner_density",
    "density_coeffs",
    "to_csv",
]

_GROUP_TOL = 1e-9
_NEWTON_TOL = 1e-12
_NEWTON_MAX = 50
_TRANSVERSALITY_TOL = 1e-6
_CHUNK = 200_000

_ORIENTATIONS = ("+-", "-+")


class NewtonDiverged(Exception):
    """A candidate that could fall in the requested window failed to converge."""


@dataclass(frozen=True)
class TwistForm:
    """Closed one-form beta0 . dx + df with f a real trigonometric polynomial.

    Modes map integer frequency tuples to complex coefficients and must be
    Hermitian (c_{-xi} = conj(c_xi)) so that f is real-valued.
    """

    beta0: np.ndarray
    modes: tuple = ()  # sorted ((xi tuple), coeff) pairs

    def __init__(self, beta0, modes: Optional[Mapping] = None):
        beta0 = np.asarray(beta0, dtype=float)
        items = []
        if modes:
            m = {tuple(int(c) for c in k): complex(v) for k, v in modes.items()}
            for k, v in m.items():
                neg = tuple(-c for c in k)
                if neg not in m or abs(m[neg] - np.conj(v)) > 1e-12:
                    raise ValueError(
                        "twist modes must be Hermitian (real-valued f): "
                        f"offending frequency {k}"
                    )
                if len(k) != beta0.size:
                    raise ValueError("twist mode dimension mismatch")
            items = sorted(m.items())
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "modes", tuple(items))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TwistForm) and np.array_equal(self.beta0, other.beta0)
                and self.modes == other.modes)

    @property
    def dim(self) -> int:
        return self.beta0.size

    @property
    def is_zero(self) -> bool:
        """True for the zero form, whose holonomy is 1 on every record."""
        return not (self.modes or np.any(self.beta0 != 0.0))

    @property
    def is_integer(self) -> bool:
        """True when beta0 has an integer representative (trivial holonomy class)."""
        return bool(np.all(np.abs(self.beta0 - np.round(self.beta0)) < 1e-12))

    def f_eval(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f at points x, shape (n, d) -> (n,), real."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0], dtype=complex)
        for k, c in self.modes:
            out += c * np.exp(1j * (x @ np.asarray(k, dtype=float)))
        return out.real

    def holonomy(self, start: np.ndarray, displacement: np.ndarray) -> np.ndarray:
        """exp(i integral of beta) along straight segments start -> start+displacement."""
        start = np.atleast_2d(start)
        displacement = np.atleast_2d(displacement)
        arg = displacement @ self.beta0 + self.f_eval(start + displacement) - self.f_eval(start)
        return np.exp(1j * arg)


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """Sorted orthospectrum records plus the query that produced them.

    Arrays are parallel and ordered by (length, xi lexicographic).  A record
    is its lattice class xi, unit direction theta, length and the holonomy
    phase of beta along it; its start foot is convex.inverse_gauss(theta) on
    body1 for "+-" and on body2 for "-+", and the arc ends length * theta
    further on.  rejects holds (xi, "NonUniqueMaximizer", approximate
    length) tuples for candidates that failed the transversality proxy.
    """

    dim: int
    body1: convex.SupportBody
    body2: convex.SupportBody
    orient: str
    T0: float
    T: float
    beta: TwistForm
    xi: np.ndarray       # (n, d) int
    theta: np.ndarray    # (n, d)
    lengths: np.ndarray  # (n,)
    phases: np.ndarray   # (n,) complex, unit modulus
    rejects: tuple = field(default=())

    def __len__(self) -> int:
        return self.lengths.size


def difference_body(K1: convex.SupportBody, K2: convex.SupportBody,
                    orient: str = "+-") -> convex.SupportBody:
    """The body governing the orthospectrum: K1 + (-K2) for "+-", reflected for "-+"."""
    if orient not in _ORIENTATIONS:
        raise ValueError(
            f"unsupported orientation {orient!r}: only the two convex "
            f"conventions {_ORIENTATIONS} give countable orthospectra"
        )
    if orient == "+-":
        return convex.minkowski_sum(K1, convex.reflect(K2))
    return convex.minkowski_sum(convex.reflect(K1), K2)


def _lattice_box(dim: int, radius: int) -> np.ndarray:
    """Integer points of the cube [-radius, radius]^dim, shape (n, dim), C order."""
    ax = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dim)


def _restart_directions(dim: int) -> np.ndarray:
    if dim == 2:
        a = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        return np.stack([np.cos(a), np.sin(a)], axis=1)
    return spherequad.grid(dim, 8).nodes


def _newton_system(L: convex.SupportBody, w: np.ndarray, theta: np.ndarray):
    """Newton system (A, g, f) of theta.w - h_L(theta) at unit theta, in ambient coordinates.

    f is the value, g the gradient w - grad h_L projected off theta, and
    A = H + f (I - theta theta^T) + theta theta^T with H the Hessian of h_L.
    As H theta = 0, A acts on the tangent space as the negated sphere Hessian
    and maps theta to itself, so A^-1 g is the tangent Newton step and
    min |eig A| is the transversality proxy capped at 1.
    """
    diff = w - L.grad(theta)
    g = diff - np.einsum("ni,ni->n", theta, diff)[:, None] * theta
    f = np.einsum("ni,ni->n", theta, w) - L.h(theta)
    # A = H + f I + (1 - f) theta theta^T, in place: one (n, d, d) temporary
    A = L.hess(theta)
    A += (1.0 - f)[:, None, None] * theta[:, :, None] * theta[:, None, :]
    diag = np.arange(w.shape[1])
    A[:, diag, diag] += f[:, None]
    return A, g, f


def _newton_batch(L: convex.SupportBody, w: np.ndarray, theta0: np.ndarray):
    """Maximize theta.w - h_L(theta) per row; returns (theta, value, min_curv).

    min_curv is min(1, smallest eigenvalue magnitude of the negated sphere
    Hessian) at the solution, the transversality proxy.  Rows that fail to
    converge get value = nan.
    """
    n = w.shape[0]
    theta = theta0.copy()
    active = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_MAX):
        if not np.any(active):
            break
        th = theta[active]
        wa = w[active]
        A, g, _ = _newton_system(L, wa, th)
        gnorm = np.linalg.norm(g, axis=1)
        scale = np.maximum(1.0, np.linalg.norm(wa, axis=1))
        done = gnorm <= _NEWTON_TOL * scale
        step = np.zeros_like(g)
        solvable = np.ones(th.shape[0], dtype=bool)
        try:
            step = np.linalg.solve(A, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in range(th.shape[0]):
                try:
                    step[i] = np.linalg.solve(A[i], g[i])
                except np.linalg.LinAlgError:
                    solvable[i] = False
        # fall back to a short gradient ascent step when the local model is
        # not positive or overshoots
        bad = ~solvable | (np.linalg.norm(step, axis=1) > 0.5)
        if np.any(bad):
            gb = g[bad]
            gn = np.linalg.norm(gb, axis=1, keepdims=True)
            step[bad] = gb / np.maximum(gn, 1e-30) * np.minimum(gn, 0.2)
        new = th + step
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        new[done] = th[done]
        theta[active] = new
        idx = np.flatnonzero(active)
        active[idx[done]] = False
    A, g, value = _newton_system(L, w, theta)
    gnorm = np.linalg.norm(g, axis=1)
    min_curv = np.min(np.abs(np.linalg.eigvalsh(A)), axis=1)
    value = np.where(gnorm <= 1e-10 * np.maximum(1.0, np.linalg.norm(w, axis=1)),
                     value, np.nan)
    return theta, value, min_curv


def _solve_chunk(L, xi_chunk, T0, T):
    """Newton-solve one candidate chunk; returns accepted arrays and rejects."""
    w = 2 * math.pi * xi_chunk.astype(float)
    wn = np.linalg.norm(w, axis=1)
    theta0 = np.where(wn[:, None] > 0, w / np.maximum(wn, 1e-300)[:, None], 0.0)
    if np.any(wn == 0):
        rd = _restart_directions(L.dim)
        vals = rd @ np.zeros(L.dim) - L.h(rd)
        theta0[wn == 0] = rd[int(np.argmax(vals))]
    theta, value, min_curv = _newton_batch(L, w, theta0)
    stuck = np.isnan(value)
    if np.any(stuck):
        rd = _restart_directions(L.dim)
        hs = L.h(rd)
        for i in np.flatnonzero(stuck):
            vals = rd @ w[i] - hs
            t2, v2, c2 = _newton_batch(
                L, w[i : i + 1], rd[int(np.argmax(vals))][None, :]
            )
            theta[i], value[i], min_curv[i] = t2[0], v2[0], c2[0]
        # every candidate passed the window prefilter, so it could land in (T0, T]
        diverged = np.flatnonzero(np.isnan(value))
        if diverged.size:
            raise NewtonDiverged(
                f"lattice candidate {tuple(int(c) for c in xi_chunk[diverged[0]])} did "
                f"not converge; raise T0 or inspect the body curvature"
            )
    rejects = []
    degenerate = min_curv < _TRANSVERSALITY_TOL
    window = (value > T0) & (value <= T)
    for i in np.flatnonzero(degenerate & window):
        rejects.append((tuple(int(c) for c in xi_chunk[i]),
                        "NonUniqueMaximizer", float(value[i])))
    keep = window & ~degenerate
    return xi_chunk[keep], theta[keep], value[keep], rejects


def _default_T0(K1: convex.SupportBody, K2: convex.SupportBody) -> float:
    """The default window start 2 (r_max(K1) + r_max(K2)) + 1.

    It lies above the transversality threshold for desk-scale bodies.
    """
    return 2.0 * (K1.r_max + K2.r_max) + 1.0


def enumerate(K1: convex.SupportBody, K2: convex.SupportBody, orient: str = "+-",
              T0: Optional[float] = None, T: float = 50.0,
              beta: Optional[TwistForm] = None,
              workers: int = 1) -> LengthSpectrum:
    """Enumerate all orthogeodesics with length in (T0, T].

    T0 defaults to _default_T0(K1, K2), and beta to the zero form.  The
    records, their order and their lengths do not depend on beta, which only
    sets the phases.  Results are independent of worker count.

    The candidate window is certified: with [h_lo, h_hi] = L.h_range(), a
    closed-form enclosure of h_L on the whole sphere, t(xi) lies between
    |2 pi xi| - h_hi (take theta along xi) and |2 pi xi| - h_lo (as
    theta . 2 pi xi <= |2 pi xi|), so no xi dropped by the prefilter
    |2 pi xi| - h_hi <= T, |2 pi xi| - h_lo > T0 can have a length in (T0, T].
    """
    if K1.dim != K2.dim:
        raise ValueError("body dimension mismatch")
    d = K1.dim
    if beta is None:
        beta = TwistForm(np.zeros(d))
    if beta.dim != d:
        raise ValueError("twist form dimension mismatch")
    L = difference_body(K1, K2, orient)
    if T0 is None:
        T0 = _default_T0(K1, K2)
    if not (T > T0 >= 0):
        raise ValueError("need T > T0 >= 0")
    h_lo, h_hi = L.h_range()
    cands = _lattice_box(d, int(math.floor((T + h_hi) / (2 * math.pi))))
    norms = np.linalg.norm(2 * math.pi * cands.astype(float), axis=1)
    cands = cands[(norms - h_hi <= T) & (norms - h_lo > T0)]
    chunks = [cands[i : i + _CHUNK] for i in range(0, max(cands.shape[0], 1), _CHUNK)]

    def work(chunk):
        return _solve_chunk(L, chunk, T0, T)

    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(work, chunks))
    else:
        parts = [work(c) for c in chunks]

    xi = np.concatenate([p[0] for p in parts], axis=0)
    theta = np.concatenate([p[1] for p in parts], axis=0)
    lengths = np.concatenate([p[2] for p in parts], axis=0)
    rejects = tuple(r for p in parts for r in p[3])

    order = np.lexsort(tuple(xi[:, k] for k in range(d - 1, -1, -1)) + (lengths,))
    xi, theta, lengths = xi[order], theta[order], lengths[order]

    start = convex.inverse_gauss(K1 if orient == "+-" else K2, theta)
    phases = beta.holonomy(start, lengths[:, None] * theta)

    return LengthSpectrum(
        dim=d, body1=K1, body2=K2, orient=orient, T0=float(T0), T=float(T),
        beta=beta, xi=xi, theta=theta, lengths=lengths,
        phases=phases, rejects=rejects,
    )


def counting(spec: LengthSpectrum, T: float) -> int:
    """N(T): number of orthogeodesics with length in (T0, T]."""
    if T > spec.T + _GROUP_TOL:
        raise ValueError("T exceeds the enumerated range")
    return int(np.searchsorted(spec.lengths, T + _GROUP_TOL, side="left"))


def counting_weighted(spec: LengthSpectrum, T: float) -> complex:
    """N_beta(T): the count weighted by the holonomy phases of the spectrum's own twist."""
    return complex(np.sum(spec.phases[:counting(spec, T)]))


def density_coeffs(K1: convex.SupportBody, K2: convex.SupportBody,
                   orient: str = "+-") -> np.ndarray:
    """Coefficients rho'_k, k=1..d, of the model density rho'(t) = sum rho'_k t^{k-1}.

    rho'_k = (2 pi)^{-d} m_{k-1}(L) with m_j the surface moments of the
    difference body L.
    """
    return _density_from_steiner(convex.steiner(difference_body(K1, K2, orient)))


def _density_from_steiner(data: convex.SteinerData) -> np.ndarray:
    """density_coeffs from the Steiner data of the difference body."""
    return data.surface_moments / (2 * math.pi) ** data.dim


def steiner_density(K1: convex.SupportBody, K2: convex.SupportBody,
                    orient: str, t) -> np.ndarray | float:
    """Smooth counting density rho'(t) = (2 pi)^{-d} d/dt Vol(L + tB)."""
    coeffs = density_coeffs(K1, K2, orient)
    t_arr = np.asarray(t, dtype=float)
    powers = t_arr[..., None] ** np.arange(coeffs.size)
    out = powers @ coeffs
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def to_csv(spec: LengthSpectrum, csv_path, meta_path=None) -> None:
    """Write the spectrum table; query parameters go to a JSON sidecar."""
    d = spec.dim
    header = (
        [f"xi_{k+1}" for k in range(d)]
        + [f"theta_{k+1}" for k in range(d)]
        + ["length", "phase_re", "phase_im"]
    )
    _tables.write_csv(
        csv_path, header,
        list(spec.xi.T) + list(spec.theta.T)
        + [spec.lengths, spec.phases.real, spec.phases.imag],
    )
    if meta_path is not None:
        _tables.write_json(meta_path, {
            "dim": d,
            "orient": spec.orient,
            "T0": spec.T0,
            "T": spec.T,
            "beta0": [float(b) for b in spec.beta.beta0],
            "f_modes": {",".join(str(c) for c in k): [v.real, v.imag]
                        for k, v in spec.beta.modes},
            "kind1": spec.body1.kind,
            "kind2": spec.body2.kind,
            "count": len(spec),
            "rejects": [list(r) for r in spec.rejects],
        })
