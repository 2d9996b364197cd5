"""Strictly convex bodies described by their support functions.

A body is a Minkowski sum of primitive parts (point, ball, ellipsoid, zonal
harmonic bump).  Every primitive knows, in closed form, its support function
h restricted to unit vectors, the gradient of the 1-homogeneous extension
(the inverse Gauss map), the extension's Hessian, and an enclosure
[h_lo, h_hi] of h on the whole sphere.  The Hessian H annihilates u, so its
other d-1 eigenvalues are the principal curvature radii, and the area
element's coefficients are their elementary symmetric functions e_j(H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import spherequad

__all__ = [
    "SupportBody",
    "SteinerData",
    "QuadratureDisagreement",
    "point",
    "ball",
    "ellipsoid",
    "harmonic",
    "support",
    "inverse_gauss",
    "minkowski_sum",
    "reflect",
    "area_element",
    "principal_radii",
    "steiner",
]

_MIN_RADIUS = 1e-6
_VALIDATION_ORDER = 24  # grid on which a body's principal radii are checked
_STEINER_ORDER = 48     # doubled once to validate the Steiner integrals


class QuadratureDisagreement(Exception):
    """Doubling the quadrature order moved a Steiner integral past tolerance."""


# ---------------------------------------------------------------------------
# primitives


@dataclass(frozen=True, eq=False)
class _Point:
    x0: np.ndarray

    def h(self, u):
        return u @ self.x0

    def grad(self, u):
        return np.broadcast_to(self.x0, u.shape).copy()

    def hess(self, u):
        n, d = u.shape
        return np.zeros((n, d, d))

    def h_range(self):
        r = float(np.linalg.norm(self.x0))
        return -r, r

    def reflected(self):
        return _Point(-self.x0)


@dataclass(frozen=True, eq=False)
class _Ball:
    center: np.ndarray
    radius: float

    def h(self, u):
        return u @ self.center + self.radius

    def grad(self, u):
        return self.center[None, :] + self.radius * u

    def hess(self, u):
        n, d = u.shape
        eye = np.eye(d)[None, :, :]
        return self.radius * (eye - u[:, :, None] * u[:, None, :])

    def h_range(self):
        c = float(np.linalg.norm(self.center))
        return self.radius - c, self.radius + c

    def reflected(self):
        return _Ball(-self.center, self.radius)


@dataclass(frozen=True, eq=False)
class _Ellipsoid:
    center: np.ndarray
    quad_form: np.ndarray  # B = R diag(a_i^2) R^T

    def _q(self, u):
        return np.sqrt(np.einsum("ni,ij,nj->n", u, self.quad_form, u))

    def h(self, u):
        return u @ self.center + self._q(u)

    def grad(self, u):
        q = self._q(u)
        return self.center[None, :] + (u @ self.quad_form) / q[:, None]

    def hess(self, u):
        q = self._q(u)
        bu = u @ self.quad_form
        return (
            self.quad_form[None, :, :] / q[:, None, None]
            - bu[:, :, None] * bu[:, None, :] / (q ** 3)[:, None, None]
        )

    def h_range(self):
        # sqrt(u.Bu) lies between the square roots of B's extreme eigenvalues
        lam = np.linalg.eigvalsh(self.quad_form)
        c = float(np.linalg.norm(self.center))
        return math.sqrt(lam[0]) - c, math.sqrt(lam[-1]) + c

    def reflected(self):
        return _Ellipsoid(-self.center, self.quad_form)


def _zonal_profile(dim: int, k: int, s, m: int):
    """m-th s-derivative of the degree-k zonal harmonic on S^(dim-1), normalized to 1 at s=1.

    The profile is T_k(s) = C^1_k(s) - s C^1_(k-1)(s) for dim = 2 and
    C^lam_k(s) / C^lam_k(1) with lam = (dim-2)/2 otherwise; derivatives use
    d/ds C^lam_n = 2 lam C^(lam+1)_(n-1) and T_k' = k C^1_(k-1).  Requires
    m <= k.
    """
    if dim == 2:
        if m == 0:
            c, cm = spherequad._gegenbauer(k, 1.0, s)
            return c - s * cm
        c, _ = spherequad._gegenbauer(k - m, float(m), s)
        return k * 2.0 ** (m - 1) * math.factorial(m - 1) * c
    lam = (dim - 2) / 2.0
    rising = math.prod(lam + j for j in range(m))
    c, _ = spherequad._gegenbauer(k - m, lam + m, s)
    return 2.0 ** m * rising * c / math.comb(k + dim - 3, k)


@dataclass(frozen=True, eq=False)
class _Zonal:
    dim: int
    degree: int
    axis: np.ndarray  # unit vector
    coeff: float

    def h(self, u):
        return self.coeff * _zonal_profile(self.dim, self.degree, u @ self.axis, 0)

    def grad(self, u):
        s = u @ self.axis
        g, dg = (_zonal_profile(self.dim, self.degree, s, m) for m in range(2))
        return self.coeff * (
            g[:, None] * u + dg[:, None] * (self.axis[None, :] - s[:, None] * u)
        )

    def hess(self, u):
        # H = c [(G - s G') (I - u u^T) + G'' v v^T] with v = axis - s u
        d = u.shape[1]
        s = u @ self.axis
        g, dg, ddg = (_zonal_profile(self.dim, self.degree, s, m) for m in range(3))
        v = self.axis[None, :] - s[:, None] * u
        tangent = np.eye(d)[None, :, :] - u[:, :, None] * u[:, None, :]
        return self.coeff * (
            (g - s * dg)[:, None, None] * tangent
            + ddg[:, None, None] * (v[:, :, None] * v[:, None, :])
        )

    def h_range(self):
        # a normalized zonal harmonic is bounded by its value 1 at the pole
        return -abs(self.coeff), abs(self.coeff)

    def reflected(self):
        # even degree: h(-theta) = h with the axis flipped
        return _Zonal(self.dim, self.degree, -self.axis, self.coeff)


# ---------------------------------------------------------------------------
# bodies


@dataclass(frozen=True, eq=False)
class SupportBody:
    """Convex body given as a Minkowski sum of support-function primitives."""

    dim: int
    kind: str
    parts: tuple
    # least and greatest principal radius over the validation grid; a Minkowski
    # sum takes the sums of its operands' values, which bracket its own (Weyl)
    r_min: float = 0.0
    r_max: float = 0.0

    def h(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        out = np.zeros(u.shape[0])
        for p in self.parts:
            out = out + p.h(u)
        return out

    def grad(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        for p in self.parts:
            out = out + p.grad(u)
        return out

    def hess(self, u: np.ndarray) -> np.ndarray:
        """Hessian (n, d, d) of the 1-homogeneous extension of h at unit u."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        n, d = u.shape
        out = np.zeros((n, d, d))
        for p in self.parts:
            out = out + p.hess(u)
        return out

    def h_range(self) -> tuple:
        """(h_lo, h_hi) with h_lo <= h(u) <= h_hi for every unit u, from closed forms."""
        lo, hi = zip(*(p.h_range() for p in self.parts))
        return sum(lo), sum(hi)

    @property
    def is_point(self) -> bool:
        return all(isinstance(p, _Point) for p in self.parts)


def principal_radii(body: SupportBody, theta: np.ndarray) -> np.ndarray:
    """Principal curvature radii (n, d-1), ascending, at unit normals theta.

    Shifting theta's eigenvalue 0 of H to -(1 + |H|_F), below every other
    eigenvalue, leaves the radii as the top d-1 eigenvalues.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    H = body.hess(theta)
    mu = 1.0 + np.linalg.norm(H, axis=(1, 2))
    shifted = H - mu[:, None, None] * (theta[:, :, None] * theta[:, None, :])
    return np.linalg.eigvalsh(shifted)[:, 1:]


def _finite(name: str, value) -> np.ndarray:
    """value as a float array, refused unless every entry is finite."""
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _certify(dim: int, kind: str, parts: tuple) -> SupportBody:
    body = SupportBody(dim=dim, kind=kind, parts=parts)
    if body.is_point:
        return body
    g = spherequad.grid(dim, _VALIDATION_ORDER)
    radii = principal_radii(body, g.nodes)
    r_min = float(np.min(radii))
    r_max = float(np.max(radii))
    # np.min propagates a NaN radius, which only the pass condition refuses
    if not r_min > _MIN_RADIUS:
        raise ValueError(
            f"body is not strictly convex on the order-{_VALIDATION_ORDER} validation grid: "
            f"min principal radius {r_min:.3e} <= {_MIN_RADIUS:g}"
        )
    return replace(body, r_min=r_min, r_max=r_max)


def point(x0) -> SupportBody:
    x0 = _finite("point x0", x0)
    return SupportBody(dim=x0.size, kind="point", parts=(_Point(x0),))


def ball(center, radius: float) -> SupportBody:
    center = _finite("ball center", center)
    radius = float(_finite("ball radius", radius))
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    return _certify(center.size, "ball", (_Ball(center, radius),))


def ellipsoid(center, semiaxes, rotation: Optional[np.ndarray] = None) -> SupportBody:
    center = _finite("ellipsoid center", center)
    semiaxes = _finite("ellipsoid semiaxes", semiaxes)
    if np.any(semiaxes <= 0):
        raise ValueError("semiaxes must be positive")
    if center.size != semiaxes.size:
        raise ValueError("center and semiaxes dimension mismatch")
    B = np.diag(semiaxes ** 2)
    if rotation is not None:
        rotation = _finite("ellipsoid rotation", rotation)
        if rotation.shape != B.shape:
            raise ValueError("rotation must be a square matrix of the body dimension")
        B = rotation @ B @ rotation.T
    return _certify(center.size, "ellipsoid", (_Ellipsoid(center, B),))


def harmonic(base: SupportBody, terms: Sequence[tuple]) -> SupportBody:
    """Base body plus even zonal harmonic perturbations of the support function.

    Each term is (degree, axis, coeff) with even degree >= 2; the axis is
    normalized.  Construction fails unless the perturbed body stays strictly
    convex (min principal radius > 1e-6 on the validation grid).
    """
    parts = list(base.parts)
    for degree, axis, coeff in terms:
        degree = int(degree)
        if degree < 2 or degree % 2 != 0:
            raise ValueError("harmonic degrees must be even and >= 2")
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        coeff = float(_finite("harmonic coeff", coeff))
        parts.append(_Zonal(base.dim, degree, axis, coeff))
    return _certify(base.dim, "harmonic", tuple(parts))


# ---------------------------------------------------------------------------
# operations


def support(body: SupportBody, u) -> np.ndarray | float:
    """Support function h(u) = max over the body of u.x, for unit u."""
    u_arr = np.atleast_2d(np.asarray(u, dtype=float))
    vals = body.h(u_arr)
    return float(vals[0]) if np.asarray(u).ndim == 1 else vals

def inverse_gauss(body: SupportBody, u) -> np.ndarray:
    """Boundary point with outward normal u: the gradient of the extension of h."""
    u_arr = np.atleast_2d(np.asarray(u, dtype=float))
    vals = body.grad(u_arr)
    return vals[0] if np.asarray(u).ndim == 1 else vals


def _simplify(parts: list) -> list:
    points = [p for p in parts if isinstance(p, _Point)]
    balls = [p for p in parts if isinstance(p, _Ball)]
    rest = [p for p in parts if not isinstance(p, (_Point, _Ball))]
    out = []
    if balls:
        c = sum(b.center for b in balls) + sum(p.x0 for p in points)
        out.append(_Ball(np.asarray(c, dtype=float), sum(b.radius for b in balls)))
    elif points:
        shift = np.asarray(sum(p.x0 for p in points), dtype=float)
        if rest and isinstance(rest[0], _Ellipsoid):
            e = rest.pop(0)
            out.append(_Ellipsoid(e.center + shift, e.quad_form))
        else:
            out.append(_Point(shift))
    return out + rest


def minkowski_sum(a: SupportBody, b: SupportBody) -> SupportBody:
    """Body with support function h_a + h_b."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    parts = _simplify(list(a.parts) + list(b.parts))
    if len(parts) == 1:
        kind = {"_Point": "point", "_Ball": "ball", "_Ellipsoid": "ellipsoid"}.get(
            type(parts[0]).__name__, "sum"
        )
    else:
        kind = "sum"
    return SupportBody(dim=a.dim, kind=kind, parts=tuple(parts),
                       r_min=a.r_min + b.r_min, r_max=a.r_max + b.r_max)


def reflect(body: SupportBody) -> SupportBody:
    """The reflected body -K, whose support function is h(-u)."""
    # the reflection's Hessian at u is H(-u) and the validation grid is
    # antipodally symmetric, so its radii over the grid are the same
    return replace(body, parts=tuple(p.reflected() for p in body.parts))


def area_element(body: SupportBody, t, theta) -> np.ndarray:
    """Area element of the outer parallel body at distance t: product of (t + r_i(theta)).

    Monic of degree dim-1 in t; strictly positive for t >= 0 on strictly
    convex bodies; reduces to t^(dim-1) for points.
    """
    coeffs = _area_coeffs(body, np.atleast_2d(np.asarray(theta, dtype=float)))
    powers = np.asarray(t, dtype=float)[..., None] ** np.arange(body.dim)
    return (powers @ coeffs.T).squeeze()


def _area_coeffs(body: SupportBody, theta: np.ndarray) -> np.ndarray:
    """Coefficients a_j(theta) of P(t, theta) = sum_j a_j t^j, shape (n, dim).

    a_j = e_(dim-1-j)(H), the elementary symmetric functions of the radii,
    from the power sums p_k = tr(H^k) by Newton's identities
    k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i.
    """
    H = body.hess(theta)
    n, d, _ = H.shape
    power_sums = [np.trace(H, axis1=1, axis2=2)]
    Hk = H
    for _ in range(2, d):
        Hk = Hk @ H
        power_sums.append(np.trace(Hk, axis1=1, axis2=2))
    e = [np.ones(n)]
    for k in range(1, d):
        e.append(sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1]
                     for i in range(1, k + 1)) / k)
    # one contiguous column per coefficient, so sphere moments are plain dot products
    return np.stack(e[::-1]).T


@dataclass(frozen=True)
class SteinerData:
    """Integrated curvature data of a body.

    surface_moments[j] is the sphere integral of the area-element coefficient
    of t^j; steiner_coeffs[l] is the coefficient of t^l in the volume of the
    outer parallel body; intrinsic[j] is the j-th intrinsic volume, so
    intrinsic[0] = 1, intrinsic[dim] = volume, intrinsic[dim-1] = half the
    boundary surface.
    """

    dim: int
    volume: float
    surface_moments: np.ndarray  # (dim,)
    steiner_coeffs: np.ndarray   # (dim+1,)
    intrinsic: np.ndarray        # (dim+1,), index = intrinsic-volume degree

    def parallel_volume(self, t: float) -> float:
        return float(np.polyval(self.steiner_coeffs[::-1], t))


def steiner(body: SupportBody) -> SteinerData:
    """Steiner data by sphere quadrature, validated by order doubling (tol 1e-8)."""
    d = body.dim

    def compute(n):
        g = spherequad.grid(d, n)
        coeffs = _area_coeffs(body, g.nodes)
        moments = g.weights @ coeffs
        vol = float(g.weights @ (body.h(g.nodes) * coeffs[:, 0])) / d
        return vol, moments

    vol1, m1 = compute(_STEINER_ORDER)
    vol2, m2 = compute(2 * _STEINER_ORDER)
    # np.max, unlike max(), propagates a NaN into the disagreement
    disagreement = float(np.max(np.abs(np.append(m2 - m1, vol2 - vol1))))
    if not disagreement <= 1e-8:
        raise QuadratureDisagreement(
            f"steiner quadrature disagreement {disagreement:.3e} at orders "
            f"{_STEINER_ORDER}/{2 * _STEINER_ORDER}"
        )
    steiner_coeffs = np.zeros(d + 1)
    steiner_coeffs[0] = vol2
    steiner_coeffs[1:] = m2 / np.arange(1, d + 1)
    intrinsic_rev = steiner_coeffs * np.array(
        [math.gamma(ell / 2.0 + 1.0) / math.pi ** (ell / 2.0) for ell in range(d + 1)])
    return SteinerData(
        dim=d,
        volume=vol2,
        surface_moments=m2,
        steiner_coeffs=steiner_coeffs,
        intrinsic=intrinsic_rev[::-1].copy(),
    )
