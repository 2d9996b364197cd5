"""Orthogeodesic enumeration between projected convex bodies.

Between the torus projections of two strictly convex bodies, orthogeodesics
of the flat metric correspond to lattice vectors: for the difference body
L = K1 + (-K2), the arc hitting both boundaries orthogonally with homotopy
data xi has length t(xi) = max over unit theta of (theta . 2 pi xi -
h_L(theta)).  Where 2 pi xi lies outside L this is its distance to L, and
where it lies in L (the lift of K2 by 2 pi xi meets K1) the class has no
orthogeodesic and is dropped.  When L is one point or one ball (centre c,
radius r) the length is |2 pi xi - c| - r in closed form; otherwise Newton
finds the nearest point of L.  The resulting records carry the lattice
class, direction, length and the holonomy phase of a twist one-form
beta = beta0 . dx + df.  Arcs run from K1 to K2, leaving K1 at
convex.inverse_gauss(K1, theta).  The reverse spectrum, from K2 to K1, is
this one reflected: its difference body is -L, so the class -xi has the
direction -theta, the same length and the conjugate phase, the arc run
backwards.
"""

from __future__ import annotations

import math
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
    "density_coeffs",
    "to_csv",
]

_GROUP_TOL = 1e-9
_NEWTON_TOL = 1e-12
_NEWTON_MAX = 50
_TRANSVERSALITY_TOL = 1e-6
_CHUNK = 200_000


class NewtonDiverged(Exception):
    """A candidate that could fall in the requested window failed to converge."""


@dataclass(frozen=True, eq=False)
class TwistForm:
    """Closed one-form beta0 . dx + df with f a real trigonometric polynomial.

    Modes map integer frequency tuples to complex coefficients and must be
    Hermitian (c_{-xi} = conj(c_xi)) so that f is real-valued; beta0 and
    every coefficient must be finite.
    """

    beta0: np.ndarray
    modes: tuple = ()  # sorted ((xi tuple), coeff) pairs

    def __init__(self, beta0, modes: Optional[Mapping] = None):
        beta0 = convex._finite("twist beta0", beta0)
        items = []
        if modes:
            m = {tuple(int(c) for c in k): complex(v) for k, v in modes.items()}
            for k, v in m.items():
                if not np.isfinite(v):
                    raise ValueError(f"twist mode {k} must have a finite coefficient")
                neg = tuple(-c for c in k)
                if neg not in m or not abs(m[neg] - np.conj(v)) <= 1e-12:
                    raise ValueError(
                        "twist modes must be Hermitian (real-valued f): "
                        f"offending frequency {k}"
                    )
                if len(k) != beta0.size:
                    raise ValueError("twist mode dimension mismatch")
            items = sorted(m.items())
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "modes", tuple(items))

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

    Arrays are parallel.  Sorted lengths are cut into groups wherever two
    consecutive ones differ by more than _GROUP_TOL; records are ordered by
    group, and by xi (lexicographic) within a group.  So lengths are
    non-decreasing up to _GROUP_TOL, and tied lengths keep one order
    whatever their last-bit roundoff.  A searchsorted cut at v is exact
    unless v falls inside the span of one group.  A record
    is its lattice class xi, unit direction theta, length and the holonomy
    phase of beta along it; the arc leaves body1 at its start foot
    convex.inverse_gauss(body1, theta) and ends length * theta further on,
    on body2.  rejects holds (xi, "NonUniqueMaximizer", length) tuples for
    classes whose maximizer is degenerate: length + r_lo(L) < 1e-6, r_lo(L)
    the lower end of radius_range() of the difference body L, so only a
    window with T0 < 1e-6 can produce one.
    """

    dim: int
    body1: convex.SupportBody
    body2: convex.SupportBody
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


def difference_body(K1: convex.SupportBody, K2: convex.SupportBody) -> convex.SupportBody:
    """The body governing the orthospectrum from K1 to K2: L = K1 + (-K2)."""
    return convex.minkowski_sum(K1, convex.reflect(K2))


def _lattice_box(dim: int, radius: int) -> np.ndarray:
    """Integer points of the cube [-radius, radius]^dim, shape (n, dim), C order."""
    ax = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dim)


def _lattice_slabs(dim: int, radius: int):
    """The points of _lattice_box(dim, radius) in its order, one first coordinate at a time.

    Each slab holds (2 radius + 1)^(dim - 1) points, so a caller that filters
    slab by slab never holds the whole cube.
    """
    rest = _lattice_box(dim - 1, radius) if dim > 1 else np.zeros((1, 0), dtype=np.int64)
    for first in range(-radius, radius + 1):
        yield np.concatenate([np.full((rest.shape[0], 1), first), rest], axis=1)


def _restart_directions(dim: int) -> np.ndarray:
    if dim == 2:
        a = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        return np.stack([np.cos(a), np.sin(a)], axis=1)
    return spherequad.grid(dim, 8).nodes


def _closed_form(part, w: np.ndarray):
    """theta.w - h_L(theta) maximized per row for L one point or ball: (theta, value).

    With centre c and radius r (0 for a point) the maximizer is
    theta = (w - c)/|w - c| and the value |w - c| - r.  theta is divided out
    only on rows with value > 0, the rows that can lie in a window (T0, T]
    with T0 >= 0; w = c leaves a zero row and no warning.
    """
    v = w - part.center
    dist = np.linalg.norm(v, axis=1)
    value = dist - part.radius
    theta = np.divide(v, dist[:, None], out=np.zeros_like(v), where=(value > 0)[:, None])
    return theta, value


def _phi(L, rho: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Phi(v) = |v|^2/2 + |v| (h_L(v/|v|) - rho) - w.v per row."""
    r = np.linalg.norm(v, axis=1)
    u = np.divide(v, r[:, None], out=np.zeros_like(v), where=(r > 0)[:, None])
    return 0.5 * r**2 + r * (L.h(u) - rho) - np.einsum("ni,ni->n", w, v)


def _newton_distance(L, xi_chunk, w: np.ndarray):
    """theta.w - h_L(theta) maximized over unit theta, per row: (theta, value).

    For w outside L the maximum t is the distance from w to L.  With
    rho = r_lo(L), L = L' + rho B for the convex L' with support h_L - rho
    (Hessian H_L - rho (I - u u^T) >= 0), so t = dist(w, L') - rho along
    v/|v|, v = w - P_L'(w) the minimizer of the 1-strongly convex _phi
    (Moreau's decomposition).  Newton on _phi steps v -= a J^-1 g with
    g = v + grad h_L'(v/|v|) - w and J = I + H_L'(v/|v|)/|v| >= I, a halved
    from 1 until _phi falls by a g.J^-1 g / 4 up to rounding.  A row starts
    along w, or at the best restart direction if F = theta.w - h_L'(theta)
    <= 0 there, from v = w - grad h_L'(theta) or from F theta (_phi =
    -F^2/2) if that is lower.  It converges once |g| <= _NEWTON_TOL
    max(1, |w|) and takes that last full step, so w closes to rounding; its
    value is theta.w - h_L(theta) at theta = v/|v|.  A row with F <= 0 at
    its start may have w in L', minimizer v = 0, with no orthogeodesic: it
    stops at |v| <= 1e-12 max(1, |w|) and takes value nan unless it
    converges.  Any other row that does not converge within _NEWTON_MAX
    raises NewtonDiverged.
    """
    rho = L.radius_range()[0]
    wn = np.linalg.norm(w, axis=1)
    scale = np.maximum(1.0, wn)
    theta = np.divide(w, wn[:, None], out=np.zeros_like(w), where=(wn > 0)[:, None])
    F = np.einsum("ni,ni->n", theta, w) - L.h(theta) + rho
    low = (wn == 0) | (F <= 0)
    if np.any(low):
        rd = _restart_directions(L.dim)
        vals = w[low] @ rd.T - L.h(rd) + rho
        best = np.argmax(vals, axis=1)
        theta[low], F[low] = rd[best], vals[np.arange(best.size), best]
    separated = F > 0
    v = w - L.grad(theta) + rho * theta
    phi = _phi(L, rho, v, w)
    lower = separated & (-0.5 * F**2 < phi)
    v[lower], phi[lower] = F[lower, None] * theta[lower], -0.5 * F[lower] ** 2

    diag = np.arange(w.shape[1])
    converged = np.zeros(w.shape[0], dtype=bool)
    active = np.arange(w.shape[0])
    for _ in range(_NEWTON_MAX):
        r = np.linalg.norm(v[active], axis=1)
        away = r > 1e-12 * scale[active]  # w in L' draws v to 0
        active, r = active[away], r[away]
        if not active.size:
            break
        va, wa, u = v[active], w[active], v[active] / r[:, None]
        g = va + L.grad(u) - rho * u - wa
        # J = I + (H_L - rho (I - u u^T)) / |v|
        J = (L.hess(u) + rho * u[:, :, None] * u[:, None, :]) / r[:, None, None]
        J[:, diag, diag] += 1.0 - rho / r[:, None]
        step = np.linalg.solve(J, g[..., None])[..., 0]
        done = np.linalg.norm(g, axis=1) <= _NEWTON_TOL * scale[active]
        fall = 0.25 * np.einsum("ni,ni->n", g, step)
        # the rounding of _phi: its terms are at most |phi| + |v| (|v| + 2 |w|) in size
        noise = 1e-14 * (np.abs(phi[active]) + r * (r + 2.0 * wn[active]))
        a = np.ones(active.size)
        new = va - step
        phi_new = _phi(L, rho, new, wa)
        for _ in range(40):
            short = ~done & (phi_new > phi[active] - a * fall + noise)
            if not np.any(short):
                break
            a[short] *= 0.5
            new[short] = va[short] - a[short, None] * step[short]
            phi_new[short] = _phi(L, rho, new[short], wa[short])
        v[active], phi[active] = new, phi_new
        converged[active[done]] = True
        active = active[~done]
    diverged = np.flatnonzero(separated & ~converged)
    if diverged.size:
        raise NewtonDiverged(
            f"lattice candidate {tuple(int(c) for c in xi_chunk[diverged[0]])} did "
            f"not converge; raise T0 or inspect the body curvature"
        )
    theta = np.divide(v, np.linalg.norm(v, axis=1, keepdims=True), out=np.zeros_like(v),
                      where=converged[:, None])
    return theta, np.where(converged, np.einsum("ni,ni->n", theta, w) - L.h(theta), np.nan)


def _solve_chunk(L, xi_chunk, T0, T):
    """Solve one candidate chunk; returns accepted arrays and rejects.

    A difference body that is one point or one ball takes the closed form;
    every other body takes _newton_distance, which gives the classes with
    2 pi xi in L a value <= 0 or nan, outside every window.  At the
    maximizer the negated sphere Hessian has the eigenvalues
    t + r_i(theta), so a class is rejected as degenerate when
    t + r_lo(L) < _TRANSVERSALITY_TOL = 1e-6, r_lo(L) the lower end of
    L.radius_range(); only a window with T0 < 1e-6 can hold such a class.
    """
    w = 2 * math.pi * xi_chunk.astype(float)
    if len(L.parts) == 1 and isinstance(L.parts[0], convex._Ball):
        theta, value = _closed_form(L.parts[0], w)
    else:
        theta, value = _newton_distance(L, xi_chunk, w)
    rejects = []
    degenerate = value + L.radius_range()[0] < _TRANSVERSALITY_TOL
    window = (value > T0) & (value <= T)
    for i in np.flatnonzero(degenerate & window):
        rejects.append((tuple(int(c) for c in xi_chunk[i]),
                        "NonUniqueMaximizer", float(value[i])))
    keep = window & ~degenerate
    return xi_chunk[keep], theta[keep], value[keep], rejects


def _default_T0(K1: convex.SupportBody, K2: convex.SupportBody) -> float:
    """The default window start 2 (r_hi(K1) + r_hi(K2)) + 1, r_hi the upper end of radius_range().

    It lies above the transversality threshold for desk-scale bodies.
    """
    return 2.0 * (K1.radius_range()[1] + K2.radius_range()[1]) + 1.0


def _record_order(lengths: np.ndarray) -> np.ndarray:
    """The record order of candidates listed in lexicographic xi order.

    Sorted lengths are cut into groups wherever two consecutive ones differ
    by more than _GROUP_TOL, and each group is ordered by xi.  Mathematically
    equal lengths share a group whatever their last-bit roundoff, so their
    order is that of xi alone.
    """
    n = lengths.size
    by_length = np.argsort(lengths, kind="stable")
    group = np.zeros(n, dtype=np.int64)
    np.cumsum(np.diff(lengths[by_length]) > _GROUP_TOL, out=group[1:])
    # a candidate's index is the lexicographic rank of its xi
    key = group * n + by_length
    key.sort()
    return key % n


def enumerate(K1: convex.SupportBody, K2: convex.SupportBody,
              T0: Optional[float] = None, T: float = 50.0,
              beta: Optional[TwistForm] = None,
              workers: int = 1) -> LengthSpectrum:
    """Enumerate all orthogeodesics with length in (T0, T].

    T0 defaults to _default_T0(K1, K2), and beta to the zero form.  The
    records, their order and their lengths do not depend on beta, which only
    sets the phases.  Results are independent of worker count.

    A difference body that is one point or one ball takes the closed form
    theta = (w - c)/|w - c|, t = |w - c| - r with w = 2 pi xi; every other
    body takes Newton on the distance from w to L, in the direction
    theta = (w - P_L(w))/|w - P_L(w)|.  A class with w in L, whose lift of
    K2 meets K1, has no orthogeodesic and no record.  Records are ordered
    by length groups within _GROUP_TOL, then by xi, as LengthSpectrum
    describes; lengths are non-decreasing up to _GROUP_TOL.

    At the maximizer the negated sphere Hessian has the eigenvalues
    t + r_i(theta), the length plus the principal radii of L.  A class with
    t + r_lo(L) < 1e-6, r_lo(L) the closed-form lower bound on those radii,
    is rejected as degenerate and listed in rejects, so only a window with
    T0 < 1e-6 can produce a reject.

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
    L = difference_body(K1, K2)
    if T0 is None:
        T0 = _default_T0(K1, K2)
    if not (math.isfinite(T) and T > T0 >= 0):  # a NaN or infinite T or T0 fails too
        raise ValueError("need finite T > T0 >= 0")
    h_lo, h_hi = L.h_range()
    cands = []
    for slab in _lattice_slabs(d, int(math.floor((T + h_hi) / (2 * math.pi)))):
        norms = np.linalg.norm(2 * math.pi * slab.astype(float), axis=1)
        cands.append(slab[(norms - h_hi <= T) & (norms - h_lo > T0)])
    cands = np.concatenate(cands)
    chunks = [cands[i : i + _CHUNK] for i in range(0, max(cands.shape[0], 1), _CHUNK)]

    def work(chunk):
        return _solve_chunk(L, chunk, T0, T)

    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(work, chunks))
    else:
        parts = [work(c) for c in chunks]

    xi = np.concatenate([p[0] for p in parts], axis=0)
    theta = np.concatenate([p[1] for p in parts], axis=0)
    lengths = np.concatenate([p[2] for p in parts], axis=0)
    rejects = tuple(r for p in parts for r in p[3])

    # the slabs list candidates in C order, lexicographic in xi, and every
    # filter and the chunk loop keep that order
    order = _record_order(lengths)
    xi, theta, lengths = xi[order], theta[order], lengths[order]

    start = convex.inverse_gauss(K1, theta)
    phases = beta.holonomy(start, lengths[:, None] * theta)

    return LengthSpectrum(
        dim=d, body1=K1, body2=K2, T0=float(T0), T=float(T),
        beta=beta, xi=xi, theta=theta, lengths=lengths,
        phases=phases, rejects=rejects,
    )


def counting(spec: LengthSpectrum, T: float) -> int:
    """N(T): number of orthogeodesics with length in (T0, T].

    The cut at T + _GROUP_TOL splits no group of tied lengths unless a
    length lies within _GROUP_TOL of it.
    """
    if T > spec.T + _GROUP_TOL:
        raise ValueError("T exceeds the enumerated range")
    return int(np.searchsorted(spec.lengths, T + _GROUP_TOL, side="left"))


def counting_weighted(spec: LengthSpectrum, T: float) -> complex:
    """N_beta(T): the count weighted by the holonomy phases of the spectrum's own twist."""
    return complex(np.sum(spec.phases[:counting(spec, T)]))


def density_coeffs(K1: convex.SupportBody, K2: convex.SupportBody) -> np.ndarray:
    """Coefficients rho'_k, k=1..d, of the model density rho'(t) = sum rho'_k t^{k-1}.

    rho'_k = (2 pi)^{-d} m_{k-1}(L) with m_j the surface moments of the
    difference body L.
    """
    return _density_from_steiner(convex.steiner(difference_body(K1, K2)))


def _density_from_steiner(data: convex.SteinerData) -> np.ndarray:
    """density_coeffs from the Steiner data of the difference body."""
    return data.surface_moments / (2 * math.pi) ** data.dim


def to_csv(spec: LengthSpectrum, csv_path, meta_path=None) -> None:
    """Write the spectrum table; query parameters go to a JSON sidecar."""
    d = spec.dim
    header = (
        [f"xi_{k+1}" for k in range(d)]
        + [f"theta_{k+1}" for k in range(d)]
        + ["length", "phase"]
    )
    _tables.write_csv(csv_path, header,
                      list(spec.xi.T) + list(spec.theta.T) + [spec.lengths, spec.phases])
    if meta_path is not None:
        _tables.write_json(meta_path, {
            "dim": d,
            "T0": spec.T0,
            "T": spec.T,
            "beta0": spec.beta.beta0,
            "f_modes": {",".join(str(c) for c in k): [v.real, v.imag]
                        for k, v in spec.beta.modes},
            "kind1": spec.body1.kind,
            "kind2": spec.body2.kind,
            "count": len(spec),
            "rejects": spec.rejects,
        })
