"""Quadrature and oscillatory integrals on round spheres.

Grids are tensor products of Gauss-Gegenbauer rules in the polar cosines and
a uniform (trapezoid) rule in the azimuth.  ``grid(dim, order)`` integrates
all polynomials of total degree <= 2*order - 1 exactly.
``grid(dim, order, inner)`` keeps ``order`` nodes in the outermost polar
cosine (the first coordinate) and puts ``grid(dim - 1, inner)`` on the
sphere beside it.

The Gauss rules are computed here, by Newton's method in the polar angle
theta (u = cos theta), and no evaluation loops over the order n.  Away from
the poles C^lam_n(cos theta) is the Darboux-Szego expansion
[2 Gamma(n + 2 lam) / (Gamma(lam) Gamma(n + lam + 1))] sum_m [(lam)_m
(1 - lam)_m / (m! (n + lam + 1)_m)] cos((n + m + lam) theta - (m + lam) pi/2)
/ (2 sin theta)^(m + lam), cut at its first negligible term; for integer lam
it ends at m = lam, is exact, and serves every angle.  Near the poles, where
(n + lam) theta < 25 (12 for lam > 2), a non-integer lam takes the exact
positive cosine sum sum_k g_k g_(n-k) cos((n - 2k) theta), g_k =
(lam)_k / k!.  The weights are proportional to 1 / (dC/dtheta)^2 and
scaled to the mass.  A rule raises ArithmeticError unless Newton converged
(its last step moved every node by at most 1e-15), every root lies in
(0, pi/2], and consecutive dC/dtheta alternate in sign.

Oscillatory integrals use such a grid with its polar axis turned onto the
stationary points +-omega of the phase: only the polar rule has to follow
t |xi - beta0|, while the inner rule follows the band limits of the amplitude
and of xtilde.  The polar order is rounded up to the ladder
{16, 19, 23, 27} x 2^k, which is closed under doubling, so the values of a
t grid fall on shared rungs, and the doubled order of one value's check is
the polar order of a value one octave up.  ``osc_integral`` takes the whole
t grid in one call: t enters only through the zonal phase e^{i kappa u} and
the powers t^j of the amplitude's columns, so each grid is turned, and F and
xtilde evaluated on it, once per rung and folded into one sum per polar ring;
each t is then a sum over the rings.  A constant amplitude without xtilde
needs no grid at all in dim >= 3, only the polar Gauss rule.  Each Gauss
rule is built once per process and cached read-only.  The turn is one
Householder reflection e1 -> a, where a is the sign of omega whose
largest-magnitude component is positive, so (xi, beta0, t) and
(-xi, -beta0, -t) see the same nodes.  All reductions run in a fixed order
over a fixed node ordering, which makes every value reproducible
bit-for-bit for a given (dim, order, inner), axis and t, whatever the rest
of the t grid.

The equator piece of a plane wave, for ``cap_decay_check``, is a midpoint
sum in the polar angle.  Every value is checked against twice its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SphericalGrid",
    "OscResult",
    "UnderResolved",
    "sphere_area",
    "grid",
    "pole_cutoffs",
    "osc_integral",
    "stationary_phase",
    "cap_decay_check",
]


_NEWTON_STEPS = 30  # before a Gauss rule counts as failed
_POLE_PHASE = 25.0  # (n + lam) theta below which a non-integer lam <= 2 takes the cosine sum
# the same for lam > 2, whose cosine sum cancels to about (n theta)^-lam of
# its terms, too far for Newton near a cut of 25 (n = 19 at lam = 5/2)
_POLE_PHASE_HIGH = 12.0
_SZEGO_TERMS = 25   # most terms of the Darboux-Szego expansion
_RUNGS = (16, 19, 23, 27)  # times 2^k: the polar orders of osc_integral
_CUTOFF_WIDTH = 0.2  # pole_cutoffs: chi_plus rises on [1 - width, 1 - width / 2]


class UnderResolved(Exception):
    """Doubling the grid order moved the value past the agreement tolerance."""


@dataclass(frozen=True)
class SphericalGrid:
    """Quadrature nodes and weights on the unit sphere S^(dim-1)."""

    dim: int
    nodes: np.ndarray   # (n_nodes, dim), unit vectors
    weights: np.ndarray  # (n_nodes,), positive, sums to the sphere area

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def sphere_area(dim: int) -> float:
    """Surface measure of S^(dim-1): 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _circle_grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    # 2*order uniform azimuth nodes: exact for trig degree <= 2*order - 1.
    m = 2 * order
    phi = 2.0 * math.pi * np.arange(m) / m
    nodes = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    weights = np.full(m, 2.0 * math.pi / m)
    return nodes, weights


def _gegenbauer(n: int, lam: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(C^lam_n(x), C^lam_(n-1)(x)) by C_k = (2x(k+lam-1) C_(k-1) - (k+2lam-2) C_(k-2)) / k."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(1, n + 1):
        prev, cur = cur, (2.0 * (k + lam - 1.0) * x * cur - (k + 2.0 * lam - 2.0) * prev) / k
    return cur, prev


def _gegenbauer_angle(n: int, lam: float, x, polar, pole_sum) -> tuple[np.ndarray, np.ndarray]:
    """(C^lam_n(cos theta), dC/dtheta) with theta = x on ``polar`` and pi/2 - x elsewhere.

    The two sums of ``_gauss_gegenbauer``, with no loop over n: the cosine
    sum on ``pole_sum`` (all of them polar), folded onto k <= n/2, and
    elsewhere the Szego expansion.  Its term m is a_m z^m e^{i phi_0} with
    z = r e^{i (theta - pi/2)} = (1 - i cot theta) / 2, r = 1 / (2 sin theta)
    and phi_0 = (n + lam) theta - lam pi/2, so one (angles x terms) array of
    powers of z serves the value and the derivative.  It is cut before its
    first term below 1e-17 at the smallest sin theta and after at most 25
    terms.
    """
    c = np.empty_like(x)
    dc = np.empty_like(x)
    if np.any(pole_sum):
        k = np.arange(n // 2 + 1)
        g = np.cumprod(np.concatenate([[1.0], (lam + np.arange(n)) / np.arange(1.0, n + 1)]))
        coef = g[k] * g[n - k] * np.where(2 * k < n, 2.0, 1.0)
        freq = n - 2.0 * k
        phase = np.outer(x[pole_sum], freq)
        c[pole_sum] = np.sum(np.cos(phase) * coef, axis=1)
        dc[pole_sum] = -np.sum(np.sin(phase) * (coef * freq), axis=1)
    szego = ~pole_sum
    if np.any(szego):
        xs, ps = x[szego], polar[szego]
        sin_t = np.where(ps, np.sin(xs), np.cos(xs))
        cot = np.where(ps, np.cos(xs), np.sin(xs)) / sin_t
        r_max = float(np.max(0.5 / sin_t))
        a = [1.0]  # (lam)_m (1 - lam)_m / (m! (n + lam + 1)_m)
        while len(a) < _SZEGO_TERMS:
            m = len(a)
            a_m = a[-1] * (lam + m - 1.0) * (m - lam) / (m * (n + lam + m))
            if abs(a_m) * r_max ** m < 1e-17:
                break
            a.append(a_m)
        a = np.asarray(a)
        powers = np.vander(0.5 - 0.5j * cot, a.size, increasing=True)
        # phi_0 from pi/2 - theta is n pi/2 - (n + lam) psi, with n pi/2 taken exactly
        phi0 = np.where(ps, (n + lam) * xs - lam * (math.pi / 2.0),
                        (n % 4) * (math.pi / 2.0) - (n + lam) * xs)
        turn = np.exp(1j * phi0)
        # sum_m a_m r^m e^{i phi_m}, and the same with a factor m; summed
        # element-wise, since BLAS products here stalled rule builds for
        # ~60 ms at a time on a 2-core host
        s0 = turn * np.sum(powers * a, axis=1)
        s1 = turn * np.sum(powers * (np.arange(a.size) * a), axis=1)
        # 2 Gamma(n + 2 lam) / (Gamma(lam) Gamma(n + lam + 1)) without overflow:
        # Gamma(n + 2 lam) / Gamma(n + lam + 1) over its value at n = 0 is
        # prod_(j < n) (1 + (lam - 1) / (j + lam + 1))
        growth = math.fsum(np.log1p((lam - 1.0) / (np.arange(n) + lam + 1.0)))
        scale = (2.0 * math.gamma(2.0 * lam) / (math.gamma(lam) * math.gamma(lam + 1.0))
                 * math.exp(growth) * (2.0 * sin_t) ** -lam)
        c[szego] = scale * s0.real
        # d/dtheta of a_m r^(m + lam) cos(phi_m) is
        # -a_m r^(m + lam) [(n + m + lam) sin(phi_m) + (m + lam) cot(theta) cos(phi_m)]
        dc[szego] = -scale * ((n + lam) * s0.imag + s1.imag + cot * (lam * s0.real + s1.real))
    return c, dc


@lru_cache(maxsize=None)
def _gauss_gegenbauer(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Order-n Gauss rule for the weight (1 - u^2)^(lam - 1/2) on [-1, 1], lam > 0.

    Newton's method in the polar angle theta (u = cos theta) finds the
    n // 2 roots of C^lam_n in (0, pi/2), starting from the
    Gatteschi-Pittaluga asymptotic angles; the other nodes are their mirror
    images and, for odd n, zero.  No evaluation loops over n.  For
    non-integer lam, roots with (n + lam) theta < 25 (12 for lam > 2) use
    the exact positive cosine sum

        C^lam_n(cos theta) = sum_k g_k g_(n-k) cos((n - 2k) theta),  g_k = (lam)_k / k!,

    and the others, and every root for integer lam, the Darboux-Szego
    expansion

        C^lam_n(cos theta) = [2 Gamma(n + 2 lam) / (Gamma(lam) Gamma(n + lam + 1))]
            sum_m [(lam)_m (1 - lam)_m / (m! (n + lam + 1)_m)]
                  cos((n + m + lam) theta - (m + lam) pi/2) / (2 sin theta)^(m + lam),

    cut at its first negligible term.  For integer lam the expansion stops
    at m = lam and is exact.  A root on the cosine sum or below pi/4 is
    carried as theta and the others as pi/2 - theta, so that u is as fine
    near 0 as near 1.  The weights are proportional to
    1 / (dC/dtheta)^2, since (1 - u^2) C_n'(u)^2 = (dC/dtheta)^2, and scaled
    to the total mass sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1).  The rule
    raises ArithmeticError unless Newton converged, every root's last step
    moving u by at most 1e-15, every root lies in (0, pi/2], and consecutive
    dC/dtheta over the sorted roots alternate in sign, so that no root is
    found twice.  Nodes are ascending and exactly symmetric.  A rule is
    built once per (n, lam) and its arrays are read-only.
    """
    big_n = n + lam
    phi = (np.arange(1, n // 2 + 1) + 0.5 * lam - 0.5) * (math.pi / big_n)
    theta = phi + (0.25 - (lam - 0.5) ** 2) / (2.0 * big_n * big_n * np.tan(phi))
    integer = lam == math.floor(lam)
    cut = _POLE_PHASE if lam <= 2.0 else _POLE_PHASE_HIGH
    pole_sum = (big_n * theta < cut) & (not integer)
    polar = pole_sum | (theta < math.pi / 4.0)
    x = np.where(polar, theta, math.pi / 2.0 - theta)
    sin_theta = np.sin(theta)
    for _ in range(_NEWTON_STEPS):
        c, dc = _gegenbauer_angle(n, lam, x, polar, pole_sum)
        step = c / dc  # in theta, and -step in pi/2 - theta
        x = x - np.where(polar, step, -step)
        converged = bool(np.all(np.abs(step) * sin_theta <= 1e-15))
        if converged:
            break
    if n % 2:  # the root at the equator
        x, polar = np.append(x, math.pi / 2.0), np.append(polar, True)
        pole_sum = np.append(pole_sum, big_n * math.pi / 2.0 < cut and not integer)
    theta = np.where(polar, x, math.pi / 2.0 - x)
    order = np.argsort(theta)
    theta, x, polar, pole_sum = (v[order] for v in (theta, x, polar, pole_sum))
    _, dc = _gegenbauer_angle(n, lam, x, polar, pole_sum)
    if not (converged and np.all(theta > 0.0) and np.all(theta <= math.pi / 2.0)
            and np.all(dc[1:] * dc[:-1] < 0.0)):
        raise ArithmeticError(f"Gauss-Gegenbauer Newton iteration failed (n={n}, lam={lam})")
    u = np.where(polar, np.cos(x), np.sin(x))
    if n % 2:
        u[-1] = 0.0
    w = 1.0 / (dc * dc)
    half = n // 2
    nodes = np.concatenate([-u[:half], u[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    mass = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
    weights = weights * (mass / np.sum(weights))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=64)
def grid(dim: int, order: int, inner: Optional[int] = None) -> SphericalGrid:
    """Product quadrature grid on S^(dim-1).

    The first coordinate takes an order-``order`` Gauss-Gegenbauer rule and the
    rest is ``grid(dim - 1, inner)``; ``inner=None`` means ``inner = order``,
    which is exact to polynomial degree 2*order-1.  On the circle (dim 2) the
    azimuth rule has order ``order`` and ``inner`` is unused.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    inner = order if inner is None else inner
    if order < 1 or inner < 1:
        raise ValueError("order and inner must be >= 1")
    nodes, weights = _circle_grid(order if dim == 2 else inner)
    for j in range(3, dim + 1):
        # S^(j-1) from S^(j-2): dsigma = (1-u^2)^((j-3)/2) du dsigma'.
        u, w = _gauss_gegenbauer(order if j == dim else inner, (j - 2) / 2.0)
        sin_part = np.sqrt((1.0 - u) * (1.0 + u))  # Gauss nodes have |u| < 1
        # new first coordinate u, remaining coordinates scaled previous node
        nodes = np.concatenate(
            [
                np.repeat(u, nodes.shape[0])[:, None],
                np.kron(sin_part[:, None], nodes),
            ],
            axis=1,
        )
        weights = np.kron(w, weights)
    nodes = np.ascontiguousarray(nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return SphericalGrid(dim=dim, nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# smooth pole/equator cutoffs


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    a = np.exp(-1.0 / xi)
    b = np.exp(-1.0 / (1.0 - xi))
    out[inside] = a / (a + b)
    out[x >= 1.0] = 1.0
    return out


def pole_cutoffs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition of unity (chi_minus, chi_0, chi_plus) in the polar cosine s.

    chi_plus is supported on [0.8, 1] and equals 1 on [0.9, 1] (_CUTOFF_WIDTH = 0.2);
    chi_minus mirrors it; chi_0 = 1 - chi_plus - chi_minus covers the equator.
    """
    s = np.asarray(s, dtype=float)
    a = 1.0 - _CUTOFF_WIDTH
    b = 1.0 - _CUTOFF_WIDTH / 2.0
    chi_plus = _smooth_step((s - a) / (b - a))
    chi_minus = _smooth_step((-s - a) / (b - a))
    chi_0 = 1.0 - chi_plus - chi_minus
    return chi_minus, chi_0, chi_plus


# ---------------------------------------------------------------------------
# oscillatory integrals


@dataclass(frozen=True)
class OscResult:
    """Value of a sphere oscillatory integral and its order-doubling change.

    Both are scalars for a scalar t and arrays over the grid for an array t.
    """

    value: complex | np.ndarray
    error_estimate: float | np.ndarray


def _sphere_fn(value) -> Callable:
    """value itself when callable, else the constant complex function of (n, d) directions."""
    if callable(value):
        return value
    c = complex(value)

    def const(theta: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(theta).shape[0], c)

    return const


def _polar_axis(delta: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(a, sgn, lam) with delta = sgn * lam * a and a a unit vector.

    a is the sign of delta/|delta| whose largest-magnitude component is
    positive, so delta and -delta share it; a = e1 when delta = 0.
    """
    lam = float(np.linalg.norm(delta))
    if lam == 0.0:
        return np.eye(delta.size)[0], 1.0, 0.0
    omega = delta / lam
    sgn = 1.0 if omega[np.argmax(np.abs(omega))] > 0.0 else -1.0
    return sgn * omega, sgn, lam


def _turn(nodes: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Nodes under the Householder reflection that maps e1 to the unit vector a."""
    tail = float(a[1:] @ a[1:])
    if tail < np.finfo(float).tiny:
        return nodes  # a is e1 to double precision, and 2 / (v @ v) would overflow
    # v = e1 - a; its first entry 1 - a0 = tail / (1 + a0) without cancellation,
    # and 1 + a0 >= 1 - 1/sqrt(2) because a's largest entry is positive.
    v = -a
    v[0] = tail / (1.0 + a[0])
    return nodes - np.outer(nodes @ v, (2.0 / (v @ v)) * v)


def _ring_table(dim: int, n: int, m: int, axis, F, xi, xtilde) -> tuple:
    """(u, G) for the grid of polar order n and inner order m turned onto the axis.

    u holds the unturned polar cosines of the rings, and G[i, j] is the
    weighted sum of F_j e^{i xi.xtilde} over ring i: the grid is polar-major,
    so a ring is a run of consecutive nodes, and on the circle every node is
    its own ring.  A constant F without xtilde needs no grid in dim >= 3:
    its ring sums are the polar Gauss weights times F |S^(dim-2)|.
    """
    if xtilde is None and not callable(F) and dim > 2:
        u, w = _gauss_gegenbauer(n, (dim - 2) / 2.0)
        return u, (w * (F * sphere_area(dim - 1)))[:, None]
    g = grid(dim, n, m) if dim > 2 else grid(2, n)  # the circle has no inner order
    nodes = _turn(g.nodes, axis)
    if callable(F):
        vals = np.asarray(F(nodes), dtype=complex).reshape(g.n_nodes, -1)
    else:
        vals = np.full((g.n_nodes, 1), F)
    if xtilde is not None:
        vals = vals * np.exp(1j * (np.asarray(xtilde(nodes)) @ xi))[:, None]
    ring = g.n_nodes // n if dim > 2 else 1
    table = (g.weights[:, None] * vals).reshape(-1, ring, vals.shape[1]).sum(axis=1)
    return g.nodes[::ring, 0], table


def osc_order(dim: int, xi, beta0, t: float, xtilde_scale: float = 0.0) -> int:
    """Grid order heuristic: 1.5x the peak phase frequency plus a margin."""
    xi = np.asarray(xi, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    freq = abs(t) * float(np.linalg.norm(xi - beta0)) + float(np.linalg.norm(xi)) * xtilde_scale
    return int(math.ceil(1.5 * freq + 20))


def _polar_rung(n: int) -> int:
    """The smallest element of {16, 19, 23, 27} x 2^k that is >= n."""
    scale = 1
    while _RUNGS[-1] * scale < n:
        scale *= 2
    return next(b * scale for b in _RUNGS if b * scale >= n)


def _doubling_error(v1: complex, v2: complex, what: str) -> float:
    """|v2 - v1| for v2 at twice the order of v1; UnderResolved unless within 1e-9 |v2| + 1e-12."""
    err = abs(v2 - v1)
    if not err <= 1e-9 * abs(v2) + 1e-12:
        raise UnderResolved(f"{what} moved the value by {err:.3e} (value {abs(v2):.3e})")
    return err


def osc_integral(
    dim: int,
    F=None,
    xi=None,
    beta0=None,
    t=0.0,
    xtilde: Optional[Callable] = None,
    xtilde_scale: Optional[float] = None,
) -> OscResult:
    """Integral of e^{i (xi-beta0).(t theta + xtilde)} e^{i beta0.xtilde} F(t, theta) over the sphere.

    ``t`` is a scalar or a 1-D array; a scalar is a grid of one and gives a
    complex value and a float error, an array gives arrays of both.  F is a
    constant, a callable returning (n,) values at (n, dim) directions, or a
    callable returning (n, k) columns of which column j multiplies t^j.

    The phase simplifies to (xi - beta0).(t theta) + xi.xtilde(theta), whose
    t-term depends only on the polar cosine u about omega = (xi-beta0)/|xi-beta0|.
    The grid ``grid(dim, n, m)`` is turned so that its polar axis lies on
    +-omega: the polar order n follows t |xi - beta0|, as osc_order(dim, xi,
    beta0, t, xtilde_scale) rounded up to the ladder {16, 19, 23, 27} x 2^k,
    and the inner order m = osc_order(dim, xi, beta0, 0, xtilde_scale) only
    the band limits of F and xtilde.  Rounding never lowers an order; it puts
    the values of a t grid on shared rungs.  F and xtilde are evaluated once
    per grid and folded into ring sums G (see ``_ring_table``), after which
    each t costs sum_i e^{i kappa u_i} G_i(t) with kappa = +-t |xi - beta0|.
    An ``xtilde`` comes with ``xtilde_scale``, a bound on |xtilde| such as
    the largest support value of a body.  Every value is computed again with
    both orders doubled; disagreement beyond 1e-9 relative (plus 1e-12
    absolute) raises UnderResolved, naming the t.  The value at each t is
    reproducible bit-for-bit for given inputs whatever the rest of the grid,
    and (xi, beta0, t) and (-xi, -beta0, -t) see the same nodes.
    """
    xi = np.zeros(dim) if xi is None else np.asarray(xi, dtype=float)
    beta0 = np.zeros(dim) if beta0 is None else np.asarray(beta0, dtype=float)
    F = F if callable(F) else complex(1.0 if F is None else F)
    if xtilde is not None and xtilde_scale is None:
        raise ValueError("xtilde needs xtilde_scale, a bound on |xtilde|")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    scale = xtilde_scale or 0.0
    axis, sgn, lam = _polar_axis(xi - beta0)
    m = osc_order(dim, xi, beta0, 0.0, scale)
    tables: dict = {}

    def value(n: int, inner: int, tk: float) -> complex:
        key = (n, inner if dim > 2 else 0)
        if key not in tables:
            tables[key] = _ring_table(dim, n, inner, axis, F, xi, xtilde)
        u, table = tables[key]
        return complex(np.exp(1j * (sgn * tk * lam * u)) @ (table @ tk ** np.arange(table.shape[1])))

    values = np.empty(ts.size, dtype=complex)
    errs = np.empty(ts.size)
    for k, tk in enumerate(ts.ravel().tolist()):
        n = _polar_rung(osc_order(dim, xi, beta0, tk, scale))
        v1 = value(n, m, tk)
        values[k] = value(2 * n, 2 * m, tk)
        errs[k] = _doubling_error(v1, values[k], f"at t = {tk!r}, order doubling "
                                  f"{n}->{2 * n} (inner {m}->{2 * m})")
    if ts.ndim == 0:
        return OscResult(value=complex(values[0]), error_estimate=float(errs[0]))
    return OscResult(value=values, error_estimate=errs)


def stationary_phase(
    dim: int,
    F=None,
    xi=None,
    beta0=None,
    t: float = 1.0,
) -> tuple[complex, float]:
    """Leading two-pole stationary phase value of the osc_integral integral without xtilde.

    Returns (value, remainder_order); the remainder of the full integral is
    O(t^remainder_order) with remainder_order = -(1 + (dim-1)/2).
    """
    xi = np.asarray(xi, dtype=float)
    beta0 = np.zeros(dim) if beta0 is None else np.asarray(beta0, dtype=float)
    F = _sphere_fn(1.0 if F is None else F)
    lam = float(np.linalg.norm(xi - beta0))
    if lam <= 0.0 or t <= 0.0:
        raise ValueError("stationary phase needs t > 0 and xi != beta0")
    omega = (xi - beta0) / lam
    total = 0.0 + 0.0j
    for sgn in (+1.0, -1.0):
        node = (sgn * omega)[None, :]
        amp = complex(np.asarray(F(node), dtype=complex)[0])
        total += (
            np.exp(1j * sgn * t * lam)
            * np.exp(-1j * sgn * math.pi * (dim - 1) / 4.0)
            * (2.0 * math.pi / (t * lam)) ** ((dim - 1) / 2.0)
            * amp
        )
    return complex(total), -(1.0 + (dim - 1) / 2.0)


def _equator_piece(dim: int, xi, beta0, t: float) -> complex:
    """Integral of chi_0 e^{i t (xi - beta0).theta} over S^(dim-1), checked by doubling.

    With chi_0 the equator cutoff of ``pole_cutoffs`` in the polar cosine
    cos phi about xi - beta0 and kappa = t |xi - beta0|, it is |S^(dim-2)|
    int_0^pi chi_0(cos phi) e^{i kappa cos phi} sin^(dim-2) phi dphi.  The
    integrand vanishes near both poles, so the midpoint rule in phi converges
    faster than any power of N; it takes N = max(2048, 2 osc_order) angles
    and then 2N.
    """
    kappa = t * float(np.linalg.norm(xi - beta0))

    def midpoint(n: int) -> complex:
        phi = (np.arange(n) + 0.5) * (math.pi / n)
        u = np.cos(phi)
        f = pole_cutoffs(u)[1] * np.sin(phi) ** (dim - 2) * np.exp(1j * kappa * u)
        return complex(sphere_area(dim - 1) * (math.pi / n) * np.sum(f))

    n = max(2048, 2 * osc_order(dim, xi, beta0, t))
    v2 = midpoint(2 * n)
    _doubling_error(midpoint(n), v2, f"angle doubling {n}->{2 * n}")
    return v2


def cap_decay_check(dim: int, xi, ts: Sequence[float], beta0=None) -> float:
    """Fitted log-log slope of |equator piece| against t.

    The piece is the plane wave e^{i t (xi - beta0).theta} cut off from the
    poles +-(xi - beta0)/|xi - beta0|, taken at each t by ``_equator_piece``
    under its doubling check (UnderResolved).  Its phase is non-stationary
    on the support of the cutoff for every t > 0, so the exact piece decays
    faster than any power of t.
    """
    xi = np.asarray(xi, dtype=float)
    beta0 = np.zeros(dim) if beta0 is None else np.asarray(beta0, dtype=float)
    ts = np.asarray(sorted(ts), dtype=float)
    if ts.size < 2:
        raise ValueError("need at least two t samples to fit a decay exponent")
    if ts[0] <= 0.0:
        raise ValueError("the decay fit needs t > 0")
    if float(np.linalg.norm(xi - beta0)) == 0.0:
        raise ValueError("the decay fit needs xi != beta0 to define the poles")
    mags = np.maximum(np.abs([_equator_piece(dim, xi, beta0, float(t)) for t in ts]), 1e-300)
    return float(np.polyfit(np.log(ts), np.log(mags), 1)[0])
