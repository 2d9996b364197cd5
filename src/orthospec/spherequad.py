"""Quadrature and oscillatory integrals on round spheres.

Grids are tensor products of Gauss-Gegenbauer rules in the polar cosines and
a uniform (trapezoid) rule in the azimuth.  The Gauss rules are computed
here, by Newton's method on the Gegenbauer three-term recurrence.
``grid(dim, order)`` integrates all polynomials of total degree <= 2*order - 1
exactly.  ``grid(dim, order, inner)`` keeps ``order`` nodes in the outermost
polar cosine (the first coordinate) and puts ``grid(dim - 1, inner)`` on the
sphere beside it.

Oscillatory integrals use such a grid with its polar axis turned onto the
stationary points +-omega of the phase: only the polar rule has to follow
t |xi - beta0|, while the inner rule follows the band limits of the amplitude
and of xtilde.  The polar order is rounded up to the ladder
{16, 19, 23, 27} x 2^k, which is closed under doubling, so the calls of a t
grid share polar rules, and the doubled order of one call's check is the
polar order of a call one octave up.  Each Gauss rule is built once per
process and cached read-only.  The turn is one Householder reflection
e1 -> a, where a is the sign of omega whose largest-magnitude component is
positive, so (xi, beta0, t) and (-xi, -beta0, -t) see the same nodes.  All
reductions use numpy's pairwise summation over a fixed node ordering, which
makes every value reproducible bit-for-bit for a given (dim, order, inner)
and axis.

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
_RUNGS = (16, 19, 23, 27)  # times 2^k: the polar orders of osc_integral


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


@lru_cache(maxsize=None)
def _gauss_gegenbauer(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Order-n Gauss rule for the weight (1 - u^2)^(lam - 1/2) on [-1, 1], lam > 0.

    Newton's method finds the n // 2 positive roots of C^lam_n, starting
    from the Gatteschi-Pittaluga asymptotic angles; the other nodes are
    their mirror images and, for odd n, zero.  The weights are proportional
    to 1 / ((1 - u^2) C_n'(u)^2) and scaled to the total mass
    sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1).  They take (1 - u^2) C_n' =
    (n + 2 lam - 1) C_(n-1) - n u C_n in full: C_(n-1) alone equals it at
    the root but follows the last bit of u near the ends far more closely
    (end weights 1.6e-8 off at n = 1000, against 2e-11).  Nodes are
    ascending and exactly symmetric.  A rule is built once per (n, lam)
    and its arrays are read-only.
    """
    big_n = n + lam
    phi = (np.arange(1, n // 2 + 1) + 0.5 * lam - 0.5) * (math.pi / big_n)
    u = np.cos(phi + (0.25 - (lam - 0.5) ** 2) / (2.0 * big_n * big_n * np.tan(phi)))
    for _ in range(_NEWTON_STEPS):
        c, cm = _gegenbauer(n, lam, u)
        du = (n + 2.0 * lam - 1.0) * cm - n * u * c  # (1 - u^2) C_n'(u)
        step = c * (1.0 - u) * (1.0 + u) / du
        u = u - step
        converged = bool(np.all(np.abs(step) <= 1e-15))
        if converged:
            break
    if n % 2:
        u = np.append(u, 0.0)
    c, cm = _gegenbauer(n, lam, u)
    # distinct consecutive roots of C_n enclose a root of C_(n-1)
    if not (converged and np.all(u >= 0.0) and np.all(cm[1:] * cm[:-1] < 0.0)):
        raise ArithmeticError(f"Gauss-Gegenbauer Newton iteration failed (n={n}, lam={lam})")
    du = (n + 2.0 * lam - 1.0) * cm - n * u * c
    w = (1.0 - u) * (1.0 + u) / (du * du)
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


def pole_cutoffs(s: np.ndarray, width: float = 0.2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition of unity (chi_minus, chi_0, chi_plus) in the polar cosine s.

    chi_plus is supported on [1-width, 1] and equals 1 on [1-width/2, 1];
    chi_minus mirrors it; chi_0 = 1 - chi_plus - chi_minus covers the equator.
    Default width 0.2 gives the support/plateau pair ([0.8,1], [0.9,1]).
    """
    if not 0.0 < width < 1.0:
        raise ValueError("width must lie in (0, 1)")
    s = np.asarray(s, dtype=float)
    a = 1.0 - width
    b = 1.0 - width / 2.0
    chi_plus = _smooth_step((s - a) / (b - a))
    chi_minus = _smooth_step((-s - a) / (b - a))
    chi_0 = 1.0 - chi_plus - chi_minus
    return chi_minus, chi_0, chi_plus


# ---------------------------------------------------------------------------
# oscillatory integrals


@dataclass(frozen=True)
class OscResult:
    """Value of a sphere oscillatory integral plus resolution diagnostics."""

    value: complex
    error_estimate: float


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


def _integrand(g: SphericalGrid, axis, kappa, F, xi, xtilde) -> np.ndarray:
    """F e^{i phase} at the nodes of g turned onto the axis.

    The phase is kappa u + xi.xtilde(theta), with u the first coordinate of
    the unturned grid and kappa = t (xi - beta0).axis.
    """
    nodes = _turn(g.nodes, axis)
    phase = kappa * g.nodes[:, 0]
    if xtilde is not None:
        phase = phase + np.asarray(xtilde(nodes)) @ xi
    return np.asarray(F(nodes), dtype=complex) * np.exp(1j * phase)


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
    t: float = 0.0,
    xtilde: Optional[Callable] = None,
    xtilde_scale: Optional[float] = None,
) -> OscResult:
    """Integral of e^{i (xi-beta0).(t theta + xtilde)} e^{i beta0.xtilde} F(theta) over the sphere.

    The phase simplifies to (xi - beta0).(t theta) + xi.xtilde(theta), whose
    t-term depends only on the polar cosine about omega = (xi-beta0)/|xi-beta0|.
    The grid ``grid(dim, n, m)`` is turned so that its polar axis lies on
    +-omega: the polar order n follows t |xi - beta0|, as osc_order(dim, xi,
    beta0, t, xtilde_scale) rounded up to the ladder {16, 19, 23, 27} x 2^k,
    and the inner order m = osc_order(dim, xi, beta0, 0, xtilde_scale) only
    the band limits of F and xtilde.  Rounding never lowers an order; it lets
    the calls of a t grid share the cached polar Gauss rules.  An ``xtilde``
    comes with ``xtilde_scale``, a bound on |xtilde| such as the support
    radius of a body.  The value is computed again with both orders doubled;
    disagreement beyond 1e-9 relative (plus 1e-12 absolute) raises
    UnderResolved.  The value is reproducible bit-for-bit for given inputs,
    and (xi, beta0, t) and (-xi, -beta0, -t) see the same nodes.
    """
    xi = np.zeros(dim) if xi is None else np.asarray(xi, dtype=float)
    beta0 = np.zeros(dim) if beta0 is None else np.asarray(beta0, dtype=float)
    F = _sphere_fn(1.0 if F is None else F)
    if xtilde is not None and xtilde_scale is None:
        raise ValueError("xtilde needs xtilde_scale, a bound on |xtilde|")
    axis, sgn, lam = _polar_axis(xi - beta0)
    n = _polar_rung(osc_order(dim, xi, beta0, t, xtilde_scale or 0.0))
    m = osc_order(dim, xi, beta0, 0.0, xtilde_scale or 0.0)
    kappa = sgn * t * lam
    g1 = grid(dim, n, m)
    v1 = complex(np.sum(g1.weights * _integrand(g1, axis, kappa, F, xi, xtilde)))
    g2 = grid(dim, 2 * n, 2 * m)
    v2 = complex(np.sum(g2.weights * _integrand(g2, axis, kappa, F, xi, xtilde)))
    err = _doubling_error(v1, v2, f"order doubling {n}->{2 * n} (inner {m}->{2 * m})")
    return OscResult(value=v2, error_estimate=err)


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
