"""Reference computations made apart from orthospec.

Everything here uses numpy and scipy only and never imports the package
under test.  The formulas follow the standalone oracle scripts in
``tests/oracles``; ``selftest.py`` pins each one against the figures those
scripts print.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre
from scipy.special import elliprg, ellipe, erfcx, gammaincc, j0

TWO_PI = 2.0 * math.pi


def lattice_box(dim: int, radius: int) -> np.ndarray:
    """All integer points of [-radius, radius]^dim, shape (n, dim)."""
    ax = np.arange(-radius, radius + 1)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dim)


# ---------------------------------------------------------------------------
# marked points


def point_lengths(v, T0: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Lattice classes xi and lengths |2 pi xi - v| in (T0, T], sorted by length.

    v = x1 - x2 is the difference of the two marked points.
    """
    v = np.asarray(v, dtype=float)
    r = int(math.ceil((T + np.linalg.norm(v)) / TWO_PI)) + 1
    xi = lattice_box(v.size, r)
    lengths = np.linalg.norm(TWO_PI * xi - v, axis=1)
    keep = (lengths > T0) & (lengths <= T)
    xi, lengths = xi[keep], lengths[keep]
    order = np.argsort(lengths, kind="stable")
    return xi[order], lengths[order]


def poincare_direct(lengths: np.ndarray, s_values) -> np.ndarray:
    """Direct sums of exp(-s l) over the given lengths, one per s."""
    return np.array([np.sum(np.exp(-complex(s) * lengths)) for s in s_values])


def _ewald_kernel(a: float, b: np.ndarray) -> np.ndarray:
    # int_0^1 tau^{-1/2} exp(-a tau - b / tau) dtau, a > 0, b >= 0
    sa, sb = math.sqrt(a), np.sqrt(b)
    t1 = -erfcx(sa + sb) * np.exp(-a - b)
    t2 = np.where(sb >= sa, erfcx(np.abs(sb - sa)) * np.exp(-a - b),
                  2.0 * np.exp(-2.0 * sa * sb) - erfcx(np.abs(sa - sb)) * np.exp(-a - b))
    return 0.5 * math.sqrt(math.pi / a) * (t1 + t2)


def poincare_dual(v, s: float) -> float:
    """Dual form of sum_xi exp(-s |2 pi xi + v|) in d = 3 with c_3 = 1/pi^2, kappa = 1.

    c_3 s sum_m e^{-i m.v} (s^2 + |m|^2)^-2, summed by an Ewald split.
    """
    u = -np.asarray(v, dtype=float)
    m = lattice_box(3, 8).astype(float)
    A = s**2 + np.sum(m * m, axis=1)
    lattice = np.sum(np.exp(1j * (m @ u)) * A**-2.0 * gammaincc(2.0, A))
    w = u - TWO_PI * lattice_box(3, 4)
    images = math.pi**1.5 * np.sum(_ewald_kernel(s**2, np.sum(w * w, axis=1) / 4.0))  # / Gamma(2)
    return float((lattice + images).real * s / math.pi**2)


def sums_of_three_squares(n_max: int) -> np.ndarray:
    """Sorted integers 0..n_max of the form a^2 + b^2 + c^2."""
    r = int(math.isqrt(n_max)) + 1
    m = lattice_box(3, r)
    n = np.unique(np.sum(m * m, axis=1))
    return n[n <= n_max]


def first_line(beta0) -> float:
    """Smallest positive |m - beta0| over integer m (d = 3)."""
    beta0 = np.asarray(beta0, dtype=float)
    m = lattice_box(beta0.size, int(math.ceil(np.linalg.norm(beta0))) + 2)
    rho = np.linalg.norm(m - beta0, axis=1)
    return float(np.min(rho[rho > 1e-9]))


def _window(lam, center, width):
    return np.exp(-((lam - center) ** 2) / (2.0 * width**2))


def _window_hat(t, center, width):
    return width * math.sqrt(TWO_PI) * np.exp(-1j * center * t - 0.5 * width**2 * t**2)


def guinand_length_side(v, beta0, center, width, T) -> complex:
    """sum over u in 2 pi Z^3 + v, |u| <= T, of e^{i beta0.u} [phihat(|u|) - phihat(-|u|)] / |u|."""
    v = np.asarray(v, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    r = int(math.ceil((T + np.linalg.norm(v)) / TWO_PI)) + 1
    u = TWO_PI * lattice_box(v.size, r) + v
    ln = np.linalg.norm(u, axis=1)
    keep = (ln > 0) & (ln <= T)
    u, ln = u[keep], ln[keep]
    terms = np.exp(1j * (u @ beta0)) * (
        _window_hat(ln, center, width) - _window_hat(-ln, center, width)) / ln
    return complex(np.sum(terms))


def guinand_spectral_side(v, beta0, center, width) -> complex:
    """(2 pi)^-3 sum_m e^{i m.v} ghat(|m - beta0|), ghat = -4 i pi^2 q(rho) / rho."""
    v = np.asarray(v, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    radius = int(math.ceil(center + np.linalg.norm(beta0) + 12.0 * width)) + 1
    m = lattice_box(3, radius).astype(float)
    rho = np.linalg.norm(m - beta0, axis=1)
    q = _window(rho, center, width) - _window(-rho, center, width)
    ghat = -4j * math.pi**2 * q / np.maximum(rho, 1e-300)
    return complex(np.sum(np.exp(1j * (m @ v)) * ghat) / TWO_PI**3)


# ---------------------------------------------------------------------------
# sphere transforms


def sphere_transform(dim: int, rho) -> np.ndarray:
    """Integral of e^{i rho theta.e} over the unit sphere: 2 pi J0 (d = 2), 4 pi sinc (d = 3)."""
    rho = np.asarray(rho, dtype=float)
    if dim == 2:
        return TWO_PI * j0(rho)
    if dim == 3:
        return 4.0 * math.pi * np.sinc(rho / math.pi)
    raise ValueError("closed forms exist here for d = 2 and d = 3")


def correlation(phi: dict, psi: dict, beta0, t: float) -> complex:
    """sum_xi phihat_xi psihat_{-xi} * sphere transform at t |xi - beta0| (x-only modes)."""
    beta0 = np.asarray(beta0, dtype=float)
    total = 0.0 + 0.0j
    for xi in set(phi) | {tuple(-c for c in k) for k in psi}:
        a = phi.get(xi, 0.0) * psi.get(tuple(-c for c in xi), 0.0)
        lam = float(np.linalg.norm(np.asarray(xi, dtype=float) - beta0))
        total += a * complex(sphere_transform(beta0.size, t * lam))
    return total


def correlation_two_pole(phi: dict, psi: dict, beta0, t: float) -> complex:
    """Leading two-pole stationary phase of the correlation for x-only modes."""
    beta0 = np.asarray(beta0, dtype=float)
    d = beta0.size
    total = 0.0 + 0.0j
    for xi in set(phi) | {tuple(-c for c in k) for k in psi}:
        a = phi.get(xi, 0.0) * psi.get(tuple(-c for c in xi), 0.0)
        lam = float(np.linalg.norm(np.asarray(xi, dtype=float) - beta0))
        total += a * 2.0 * (TWO_PI / (t * lam)) ** ((d - 1) / 2.0) * math.cos(
            t * lam - math.pi * (d - 1) / 4.0)
    return total


def disc_average(modes: dict, center, radius: float, t: float) -> complex:
    """Average of sum c_xi e^{i xi.x} over the circle of radius t + r about center."""
    center = np.asarray(center, dtype=float)
    total = 0.0 + 0.0j
    for xi, c in modes.items():
        k = np.asarray(xi, dtype=float)
        total += c * np.exp(1j * (k @ center)) * j0((t + radius) * np.linalg.norm(k))
    return total


# ---------------------------------------------------------------------------
# intrinsic volumes


def unit_ball_volume(k: int) -> float:
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def ball_intrinsic(dim: int, r: float) -> np.ndarray:
    """V_0..V_dim of a ball of radius r in R^dim."""
    return np.array([math.comb(dim, k) * unit_ball_volume(dim) / unit_ball_volume(dim - k)
                     * r**k for k in range(dim + 1)])


def ellipse_intrinsic(a: float, b: float) -> np.ndarray:
    """V_0, V_1 = perimeter / 2, V_2 = area of an ellipse."""
    a, b = max(a, b), min(a, b)
    perimeter = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    return np.array([1.0, 0.5 * perimeter, math.pi * a * b])


def ellipsoid_intrinsic(a: float, b: float, c: float) -> np.ndarray:
    """V_0..V_3 of an ellipsoid by Carlson's symmetric integral R_G.

    V_1 = (1/pi) int_{S^2} h = 4 R_G(a^2, b^2, c^2); the surface area is
    4 pi a b c R_G(a^-2, b^-2, c^-2) and V_2 is half of it.
    """
    v1 = 4.0 * float(elliprg(a * a, b * b, c * c))
    area = 4.0 * math.pi * a * b * c * float(elliprg(a**-2, b**-2, c**-2))
    return np.array([1.0, v1, 0.5 * area, 4.0 / 3.0 * math.pi * a * b * c])


def parallel_intrinsic(V: np.ndarray, r: float) -> np.ndarray:
    """Intrinsic volumes of K + r B from those of K (Steiner formula)."""
    d = V.size - 1
    out = np.zeros(d + 1)
    for k in range(d + 1):
        out[k] = sum(math.comb(d - j, k - j) * unit_ball_volume(d - j)
                     / unit_ball_volume(d - k) * r ** (k - j) * V[j]
                     for j in range(k + 1))
    return out


def zeta_residues(V: np.ndarray) -> np.ndarray:
    """Residues of the length zeta at s = 1..d from the intrinsic volumes of L."""
    d = V.size - 1
    return np.array([ell * math.pi ** (ell / 2.0) / (TWO_PI**d * math.gamma(ell / 2.0 + 1.0))
                     * V[d - ell] for ell in range(1, d + 1)])


# ---------------------------------------------------------------------------
# support functions of generated bodies


class Body:
    """Support function and its gradient for a body description of the config schema."""

    def __init__(self, dim: int, spec: dict):
        kind = spec["kind"]
        self.center = np.zeros(dim)
        self.quad = None
        self.zonal = []
        if kind == "point":
            self.center = np.asarray(spec["x"], dtype=float)
            self.quad = np.zeros((dim, dim))
        elif kind == "ball":
            self.center = np.asarray(spec["center"], dtype=float)
            self.quad = float(spec["radius"]) ** 2 * np.eye(dim)
        elif kind == "ellipsoid":
            self.center = np.asarray(spec["center"], dtype=float)
            rot = np.asarray(spec.get("rotation", np.eye(dim)), dtype=float)
            self.quad = rot @ np.diag(np.asarray(spec["semiaxes"], dtype=float) ** 2) @ rot.T
        elif kind == "harmonic":
            if dim != 3:
                raise ValueError("zonal references are written for d = 3")
            base = Body(dim, spec["base"])
            self.center, self.quad = base.center, base.quad
            for degree, axis, coeff in spec["terms"]:
                axis = np.asarray(axis, dtype=float)
                poly = legendre.Legendre.basis(int(degree))
                self.zonal.append((poly, poly.deriv(), axis / np.linalg.norm(axis),
                                   float(coeff)))
        else:
            raise ValueError(kind)

    def h(self, u: np.ndarray) -> np.ndarray:
        q = np.sqrt(np.maximum(np.einsum("ni,ij,nj->n", u, self.quad, u), 0.0))
        out = u @ self.center + q
        for poly, _, axis, coeff in self.zonal:
            out = out + coeff * poly(u @ axis)
        return out

    def grad(self, u: np.ndarray) -> np.ndarray:
        """Gradient of the 1-homogeneous extension of h at unit vectors u."""
        q = np.sqrt(np.maximum(np.einsum("ni,ij,nj->n", u, self.quad, u), 0.0))
        bu = u @ self.quad
        out = self.center + np.where(q[:, None] > 0, bu / np.maximum(q, 1e-300)[:, None], 0.0)
        for poly, dpoly, axis, coeff in self.zonal:
            s = u @ axis
            out = out + coeff * (poly(s)[:, None] * u
                                 + dpoly(s)[:, None] * (axis[None, :] - s[:, None] * u))
        return out


class Difference:
    """L = K1 + (-K2): h_L(theta) = h1(theta) + h2(-theta)."""

    def __init__(self, k1: Body, k2: Body):
        self.k1, self.k2 = k1, k2

    def h(self, u):
        return self.k1.h(u) + self.k2.h(-u)

    def grad(self, u):
        return self.k1.grad(u) - self.k2.grad(-u)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors on S^2."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def body_lengths(L: Difference, T0: float, T: float, dim: int = 3):
    """All (xi, length) with length in (T0, T] for the difference body L.

    The maximizer of theta.w - h_L(theta) is the fixed point of
    theta -> (w - grad h_L(theta)) / |w - grad h_L(theta)|, a contraction
    with factor about r_max(L) / length, iterated to machine precision.
    """
    probe = fibonacci_sphere(4000)
    hmax = float(np.max(np.abs(L.h(probe)))) + float(np.max(np.linalg.norm(L.grad(probe), axis=1)))
    r = int(math.ceil((T + hmax) / TWO_PI)) + 1
    xi = lattice_box(dim, r)
    w = TWO_PI * xi.astype(float)
    wn = np.linalg.norm(w, axis=1)
    keep = (wn <= T + hmax) & (wn + hmax > T0)
    xi, w, wn = xi[keep], w[keep], wn[keep]
    theta = np.empty_like(w)
    moving = wn > 0
    theta[moving] = w[moving] / wn[moving, None]
    theta[~moving] = probe[int(np.argmin(L.h(probe)))]
    for _ in range(200):
        g = w - L.grad(theta)
        new = g / np.linalg.norm(g, axis=1, keepdims=True)
        step = np.linalg.norm(new - theta, axis=1)
        theta = new
        if float(np.max(step)) < 1e-15:
            break
    lengths = np.einsum("ni,ni->n", theta, w) - L.h(theta)
    # the map contracts by about r_max(L) / length; rows far below T0 may not settle
    if np.any((step >= 1e-13) & (lengths > T0 - 1.0)):
        raise RuntimeError("fixed-point iteration for the reference lengths did not settle")
    window = (lengths > T0) & (lengths <= T)
    order = np.argsort(lengths[window], kind="stable")
    return xi[window][order], lengths[window][order]


def brute_max(L: Difference, w: np.ndarray, probe: np.ndarray) -> float:
    """max over unit theta of theta.w - h_L(theta) by grid search with zooming caps."""
    vals = probe @ w - L.h(probe)
    theta = probe[int(np.argmax(vals))]
    radius = 0.05
    a = np.linspace(-1.0, 1.0, 21)
    A, B = np.meshgrid(a, a, indexing="ij")
    A, B = A.ravel(), B.ravel()
    best = float(np.max(vals))
    for _ in range(16):
        e1 = np.cross(theta, [1.0, 0.0, 0.0] if abs(theta[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(theta, e1)
        cand = theta + radius * (A[:, None] * e1 + B[:, None] * e2)
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = cand @ w - L.h(cand)
        k = int(np.argmax(vals))
        theta, best = cand[k], float(vals[k])
        radius *= 0.25
    return best
