"""Strictly convex bodies described by their support functions.

A body is a Minkowski sum of primitive parts (ball, a point being a ball of
radius 0, ellipsoid, zonal harmonic bump).  Every primitive knows, in closed
form, its support function h restricted to unit vectors, the gradient of the
1-homogeneous extension (the inverse Gauss map), the extension's Hessian,
and enclosures of h and of the principal radii on the whole sphere.  The
Hessian H annihilates u, so its other d-1 eigenvalues are the principal
curvature radii, and the area element's coefficients are their elementary
symmetric functions e_j(H).  Hessians add under Minkowski sums, so by Weyl's
inequality the parts' radius enclosures add (Schneider, Convex Bodies: The
Brunn-Minkowski Theory, 2nd ed., 2.5).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import spherequad

__all__ = [
    "SupportBody",
    "SteinerData",
    "point",
    "ball",
    "ellipsoid",
    "harmonic",
    "inverse_gauss",
    "minkowski_sum",
    "reflect",
    "steiner",
]

_MIN_RADIUS = 1e-6
_ORTHOGONAL_TOL = 1e-9  # max |R^T R - I| of an ellipsoid's rotation
_STEINER_ORDER = 48     # doubled once to validate the Steiner integrals


# ---------------------------------------------------------------------------
# primitives


@dataclass(frozen=True, eq=False)
class _Ball:
    center: np.ndarray
    radius: float  # 0 for a point

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

    def radius_range(self):
        return self.radius, self.radius

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

    def radius_range(self):
        # tangent unit v: v.Hv = det(B on span(u, v)) / q^3 >= lam_min / q and
        # v.Hv <= v.Bv / q, q^2 in [lam_min, lam_max]: [a_min^2/a_max, a_max^2/a_min]
        lo, hi = (float(v) for v in np.linalg.eigvalsh(self.quad_form)[[0, -1]])
        if not lo > 0.0:  # a singular rotation flattens the body
            return 0.0, math.inf
        return lo / math.sqrt(hi), hi / math.sqrt(lo)

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


def _zonal_radius_extremes(dim: int, k: int) -> tuple:
    """Least and greatest tangent eigenvalue of the degree-k zonal term with coefficient 1.

    At s = u . axis they are G - s G' + (1 - s^2) G'' (along the axis) and,
    for dim >= 3, G - s G' (normal to it): degree-k polynomials in s, whose
    extremes on [-1, 1] lie at the endpoints and the real critical points.
    """
    def eigenvalues(s):
        g, dg, ddg = (_zonal_profile(dim, k, s, m) for m in range(3))
        return [g - s * dg + (1.0 - s * s) * ddg, g - s * dg][: min(dim - 1, 2)]

    s = [np.array([-1.0, 1.0])]
    for i in range(min(dim - 1, 2)):
        p = np.polynomial.Chebyshev.interpolate(lambda x: eigenvalues(x)[i], k)
        # a real root that rounding moved off the real line is still a sample
        s.append(np.clip(p.deriv().roots().real, -1.0, 1.0))
    values = np.concatenate(eigenvalues(np.concatenate(s)))
    return float(np.min(values)), float(np.max(values))


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

    def radius_range(self):
        lo, hi = _zonal_radius_extremes(self.dim, self.degree)
        return min(self.coeff * lo, self.coeff * hi), max(self.coeff * lo, self.coeff * hi)

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

    def radius_range(self) -> tuple:
        """(r_lo, r_hi) enclosing every principal radius at every unit u, from closed forms."""
        lo, hi = zip(*(p.radius_range() for p in self.parts))
        return sum(lo), sum(hi)

    @property
    def is_point(self) -> bool:
        return all(isinstance(p, _Ball) and p.radius == 0.0 for p in self.parts)


def _finite(name: str, value) -> np.ndarray:
    """value as a float array, refused unless it holds integers or floats, every one finite."""
    array = np.asarray(value)
    # np.asarray reads [True, 0.1] as floats, so each entry is looked at for a bool too
    if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
        raise TypeError(f"{name} must hold real numbers, not bool")
    if array.dtype.kind not in "iuf":  # a string, a complex value, None
        raise TypeError(f"{name} must hold real numbers, not {array.dtype}")
    value = array.astype(float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _certify(dim: int, kind: str, parts: tuple) -> SupportBody:
    body = SupportBody(dim=dim, kind=kind, parts=parts)
    r_lo, _ = body.radius_range()
    # a NaN bound fails the pass condition too
    if not r_lo > _MIN_RADIUS:
        raise ValueError(
            f"body is not certified strictly convex: its principal radii are bounded "
            f"below by {r_lo:.3e}, not above {_MIN_RADIUS:g}"
        )
    return body


def point(x0) -> SupportBody:
    x0 = _finite("point x0", x0)
    return SupportBody(dim=x0.size, kind="point", parts=(_Ball(x0, 0.0),))


def ball(center, radius: float) -> SupportBody:
    center = _finite("ball center", center)
    radius = float(_finite("ball radius", radius))
    return _certify(center.size, "ball", (_Ball(center, radius),))


def ellipsoid(center, semiaxes, rotation: Optional[np.ndarray] = None) -> SupportBody:
    """The ellipsoid with these semiaxes along the columns of rotation.

    A rotation R must be orthogonal, max |R^T R - I| <= 1e-9; a singular
    one leaves a flat body, refused as not strictly convex.
    """
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
    body = _certify(center.size, "ellipsoid", (_Ellipsoid(center, B),))
    if rotation is not None:
        off = float(np.max(np.abs(rotation.T @ rotation - np.eye(center.size))))
        if off > _ORTHOGONAL_TOL:
            raise ValueError(f"rotation must be orthogonal: max |R^T R - I| = {off:.3g}")
    return body


def harmonic(base: SupportBody, terms: Sequence[tuple]) -> SupportBody:
    """Base body plus even zonal harmonic perturbations of the support function.

    Each term is (degree, axis, coeff) with even degree >= 2; the axis is
    normalized.  Construction fails unless the closed-form lower bound on the
    principal radii, the base's plus each term's, exceeds 1e-6.
    """
    parts = list(base.parts)
    for degree, axis, coeff in terms:
        if (isinstance(degree, bool) or not isinstance(degree, numbers.Real)
                or degree % 1 != 0 or degree < 2 or degree % 2 != 0):
            raise ValueError(f"harmonic degree {degree!r} is not an even integer >= 2")
        degree = int(degree)
        axis = _finite("harmonic axis", axis)
        norm = float(np.linalg.norm(axis))
        if not 0.0 < norm < math.inf:  # a zero axis, or one whose norm overflows
            raise ValueError(f"harmonic axis needs a finite nonzero norm, not {norm}")
        axis = axis / norm
        coeff = float(_finite("harmonic coeff", coeff))
        parts.append(_Zonal(base.dim, degree, axis, coeff))
    return _certify(base.dim, "harmonic", tuple(parts))


# ---------------------------------------------------------------------------
# operations


def inverse_gauss(body: SupportBody, u) -> np.ndarray:
    """Boundary point with outward normal u: the gradient of the extension of h."""
    u_arr = np.atleast_2d(np.asarray(u, dtype=float))
    vals = body.grad(u_arr)
    return vals[0] if np.asarray(u).ndim == 1 else vals


def _simplify(parts: list) -> list:
    """Merge the balls and points into one ball, or shift an ellipsoid by the points."""
    balls = [p for p in parts if isinstance(p, _Ball)]
    rest = [p for p in parts if not isinstance(p, _Ball)]
    if not balls:
        return rest
    c = np.asarray(sum(b.center for b in balls), dtype=float)
    r = sum(b.radius for b in balls)
    if r == 0.0 and rest and isinstance(rest[0], _Ellipsoid):
        return [_Ellipsoid(rest[0].center + c, rest[0].quad_form)] + rest[1:]
    return [_Ball(c, r)] + rest


def minkowski_sum(a: SupportBody, b: SupportBody) -> SupportBody:
    """Body with support function h_a + h_b."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    parts = _simplify(list(a.parts) + list(b.parts))
    kind = "sum"
    if len(parts) == 1 and isinstance(parts[0], _Ellipsoid):
        kind = "ellipsoid"
    elif len(parts) == 1 and isinstance(parts[0], _Ball):
        kind = "ball" if parts[0].radius else "point"
    return SupportBody(dim=a.dim, kind=kind, parts=tuple(parts))


def reflect(body: SupportBody) -> SupportBody:
    """The reflected body -K, whose support function is h(-u)."""
    return replace(body, parts=tuple(p.reflected() for p in body.parts))


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


def steiner(body: SupportBody) -> SteinerData:
    """Steiner data, in closed form for points and balls, else by sphere quadrature.

    Balls alone sum to a ball of radius r, and Vol(K + tB) = omega_d (r + t)^d.  Any other
    body takes the order-96 product grid; spherequad._doubling_error checks each surface
    moment and the volume against order 48 and raises UnderResolved.
    """
    d = body.dim

    def compute(n):
        g = spherequad.grid(d, n)
        coeffs = _area_coeffs(body, g.nodes)
        return float(g.weights @ (body.h(g.nodes) * coeffs[:, 0])) / d, g.weights @ coeffs

    if all(isinstance(p, _Ball) for p in body.parts):
        r = float(_finite("ball radius", sum(p.radius for p in body.parts)))
        omega = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)  # the unit ball's volume
        volume = omega * r ** d
        moments = np.array([d * omega * math.comb(d - 1, j) * r ** (d - 1 - j) for j in range(d)])
    else:
        (vol1, m1), (volume, moments) = compute(_STEINER_ORDER), compute(2 * _STEINER_ORDER)
        orders = f"order doubling {_STEINER_ORDER}->{2 * _STEINER_ORDER}"
        for j in range(d):
            spherequad._doubling_error(m1[j], moments[j], f"steiner surface moment {j}, {orders},")
        spherequad._doubling_error(vol1, volume, f"steiner volume, {orders},")
    steiner_coeffs = np.zeros(d + 1)
    steiner_coeffs[0] = volume
    steiner_coeffs[1:] = moments / np.arange(1, d + 1)
    intrinsic_rev = steiner_coeffs * np.array(
        [math.gamma(ell / 2.0 + 1.0) / math.pi ** (ell / 2.0) for ell in range(d + 1)])
    return SteinerData(
        dim=d,
        volume=volume,
        surface_moments=moments,
        steiner_coeffs=steiner_coeffs,
        intrinsic=intrinsic_rev[::-1].copy(),
    )
