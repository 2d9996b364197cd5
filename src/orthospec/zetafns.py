"""Zeta functions and Poincare series attached to a length orthospectrum.

The Dirichlet series Z(s) = sum phase * length^{-s} converges for Re(s) > d
and continues meromorphically once a smooth cutoff hands the tail to the
density of its twist: poles at s = 1..d with intrinsic volumes of the
difference body as residues untwisted, none for beta0 outside Z^d.  The
Laplace-type series P(s) = sum phase * exp(-s length) develops singularities
on the imaginary axis at the spectrum of a magnetic Laplacian; this module
locates and classifies them against the canonical F_alpha singular models,
and runs the crystalline summation check pairing lengths against dual
lattice lines.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from typing import Optional, Sequence

import numpy as np

from . import convex, spectrum, spherequad

__all__ = [
    "PoleHit",
    "TailDominates",
    "TruncationTooSmall",
    "FitAmbiguous",
    "GaussianWindow",
    "ZetaModel",
    "ResidueEstimate",
    "SingularityFit",
    "TwistReport",
    "GuinandResult",
    "build_zeta_model",
    "zeta_continue",
    "residues",
    "twist_suppression",
    "poincare_eval",
    "poincare_points_spectral",
    "spectral_constants",
    "F_alpha",
    "alpha_grid",
    "singularity_scan",
    "predicted_lines",
    "guinand_pairing",
]

_POLE_TOL = 1e-8
_EPS_FLOOR = 1e-3
_TAYLOR_TERMS = 16  # with |s delta| <= 1/2 the remainder is e^{1/2} 2^-16 / 16! < 1.2e-18
_TAIL_REL = 1e-6
_MASS_TOL = 1e-12
_EWALD_CUT = 45.0    # the dual sum keeps every term above e^{-45} of its size,
_EWALD_ETA = 6.0     # splits at an eta that keeps e^{-tau s^2} below e^6,
_EWALD_KAPPA = 16.0  # takes int_eta^inf where Re A >= 4/eta, 16 |Im A| (<= 36/16 rad per v),
_EWALD_TERMS = 2e6   # holds at most this many lattice terms (about 250 MB in d = 5)
_EWALD_LOSS = 1e7    # and refuses an s whose terms' magnitudes sum to more times |sum|
_J_MAX = 3       # line orders run up to (d-1)/2 + _J_MAX
_MAX_PEAKS = 16  # peaks refitted by one singularity scan
_CERTIFY_TOL = 0.05  # a Poisson bound certifies up to this share of its coefficient


class PoleHit(Exception):
    """Continuation requested within 1e-8 of a pole."""


class TailDominates(Exception):
    """The tail estimate _density_tail(rho, T, Re s) exceeds 1e-6 of the head."""


class TruncationTooSmall(Exception):
    """Enumerated spectra do not support the requested test window."""


class FitAmbiguous(Exception):
    """Two singular models fit a peak within a factor 2, or the scan values are not finite."""


# ---------------------------------------------------------------------------
# test windows


@dataclass(frozen=True)
class GaussianWindow:
    """Gaussian test function exp(-(lam - center)^2 / (2 width^2)).

    transform() is the Fourier transform with the e^{-i lam t} convention,
    width * sqrt(2 pi) * exp(-i center t - width^2 t^2 / 2).
    """

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and 0.0 < self.width < math.inf):
            raise ValueError("window center must be finite and width finite and positive")

    def value(self, lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(-((lam - self.center) ** 2) / (2.0 * self.width**2))

    def transform(self, t):
        t = np.asarray(t, dtype=float)
        return (
            self.width
            * math.sqrt(2.0 * math.pi)
            * np.exp(-1j * self.center * t - 0.5 * self.width**2 * t**2)
        )

    def odd_part(self, rho):
        return self.value(rho) - self.value(-np.asarray(rho, dtype=float))

    def odd_part_deriv(self, rho):
        rho = np.asarray(rho, dtype=float)
        w2 = self.width**2
        return (
            -(rho - self.center) / w2 * self.value(rho)
            + (rho + self.center) / w2 * self.value(-rho)
        )


# ---------------------------------------------------------------------------
# zeta model


@dataclass(frozen=True, eq=False)
class ZetaModel:
    """Smooth splice: the spectrum fading out over [T/2, T], the density of its twist beyond.

    rho[k-1] is the coefficient of t^{k-1} in the smooth counting density,
    taken from steiner, the Steiner data of the difference body; spec may
    run on beyond T.  The Poincare scan reads all of it, and so does
    _poisson_certificate, the Gaussian-smoothed estimate of rho behind
    residues and twist_suppression.  density is the nu = 0 density of the
    spectrum's own twist spec.beta: rho untwisted, 0 for beta0 outside Z^d,
    else the weighted residues, density_delta their order-doubling delta.
    """

    spec: spectrum.LengthSpectrum
    rho: np.ndarray
    T: float
    steiner: convex.SteinerData
    density: np.ndarray
    density_delta: np.ndarray

    @property
    def dim(self) -> int:
        return self.spec.dim

    def head(self):
        """(lengths, phases) of the records counted by N(T)."""
        n = spectrum.counting(self.spec, self.T)
        return self.spec.lengths[:n], self.spec.phases[:n]


@dataclass(frozen=True)
class ResidueEstimate:
    pole: int
    residue: complex
    error: float
    predicted_from_volumes: float
    bound: float      # what error may reach (see _poisson_certificate)
    certified: bool   # error <= bound <= _CERTIFY_TOL |residue|


@dataclass(frozen=True)
class SingularityFit:
    location: float
    alpha: float
    exponent: float
    coefficient: complex
    residual: float
    nearest_line: float
    line_distance: float


@dataclass(frozen=True)
class TwistReport:
    mode: str          # "weighted" (beta0 in Z^d) or "suppressed"
    certified: bool
    weighted: tuple    # weighted residues by quadrature; zeros when suppressed
    empirical: tuple   # _poisson_certificate estimate of the phase-weighted spectrum
    deviation: float   # |empirical - weighted| in the leading coefficient
    bound: float       # what the deviation may reach (see _poisson_certificate)


@dataclass(frozen=True)
class GuinandResult:
    length_side: complex
    spectral_side: complex
    lines: tuple
    truncation_mass: float


def build_zeta_model(spec: spectrum.LengthSpectrum, T: Optional[float] = None) -> ZetaModel:
    """Splice the head of spec, ending at T (default spec.T), to the density of its twist.

    A weighted density is rho W for a point difference body L, whose holonomy W is one
    constant and whose area coefficients are (0, ..., 0, 1); any other L takes
    _weighted_density_residues at order 64 in d = 2, 32 otherwise.  A T beyond spec.T
    is a ValueError, as spectrum.counting refuses it.
    """
    T = spec.T if T is None else float(T)
    if T > spec.T:
        raise ValueError(f"head T = {T:g} exceeds the enumerated range T = {spec.T:g}")
    d = spec.dim
    L = spectrum.difference_body(spec.body1, spec.body2)
    steiner = convex.steiner(L)
    rho = np.asarray(spectrum._density_from_steiner(steiner), dtype=float)
    density, delta = (rho if spec.beta.is_zero else np.zeros(d)), np.zeros(d)
    if spec.beta.is_integer and not spec.beta.is_zero and L.is_point:
        u = np.eye(d)[:1]
        density = rho * spec.beta.holonomy(spec.body1.grad(u), -L.grad(u))[0] + 0.0  # no -0.0
    elif spec.beta.is_integer and not spec.beta.is_zero:
        n = 64 if d == 2 else 32
        density, fine = (_weighted_density_residues(spec, m) for m in (n, 2 * n))
        delta = np.abs(fine - density)
    return ZetaModel(spec, rho, T, steiner, density, delta)


def _ball_density(ell: int, d: int) -> float:
    """ell omega_ell / (2 pi)^d, omega_ell the volume of the unit ell-ball.

    The counting-density coefficient of t^{ell-1} per unit intrinsic volume
    V_{d-ell} of the difference body.
    """
    return ell * math.pi ** (ell / 2.0) / ((2 * math.pi) ** d * math.gamma(ell / 2.0 + 1.0))


def zeta_continue(model: ZetaModel, s: complex) -> complex:
    """Z(s) = sum phase psi(l/T) l^-s + sum_k c_k T^{k-s} (G_k(s) + 1/(s - k)), every twist.

    psi = 1 - step(2u - 1) fades the head out over [T/2, T], step = spherequad._smooth_step,
    and c = model.density fills in what it drops: G_k(s) = int_{1/2}^1 step(2u - 1)
    u^{k-1-s} du, by Legendre rules of order n = 32 + ceil(|Im s|) and 2n that must agree.
    A smooth sum's nonzero dual terms decay faster than any power of T.  PoleHit for a
    non-finite s or one within 1e-8 of a k with c_k != 0.
    """
    s = complex(s)
    live = np.flatnonzero(model.density)
    k, c = live + 1, model.density[live]
    if not (cmath.isfinite(s) and np.all(np.abs(s - k) >= _POLE_TOL)):
        raise PoleHit(f"s = {s} sits on a pole of the continued zeta")
    lengths, phases = model.head()
    psi = 1.0 - spherequad._smooth_step(2.0 * lengths / model.T - 1.0)
    head = np.sum(phases * psi * np.exp(-s * np.log(lengths)))
    n = 32 + math.ceil(abs(s.imag))
    G = []
    for order in (n, 2 * n):
        x, w = spherequad._gauss_gegenbauer(order, 0.5)  # u = (3 + x) / 4
        ramp = 0.25 * w * spherequad._smooth_step(0.5 * (x + 1.0))
        G.append(ramp @ np.exp(np.outer(np.log(0.75 + 0.25 * x), k - 1.0 - s)))
    for v1, v2 in zip(*G):
        spherequad._doubling_error(v1, v2, f"ramp moment doubling {n}->{2 * n}")
    tail = np.sum(c * model.T ** (k - s) * (G[1] + 1.0 / (s - k)))
    return complex(head + tail)


def _poisson_certificate(model: ZetaModel) -> tuple:
    """(estimate, bound): the spectrum's smoothed density and a bound per coefficient.

    The estimate is P S, P = pinv(cols), the least-squares fit of the window sums
    S = sum phase * g_mu(l), g_mu = GaussianWindow(mu, sigma).value, at 2d centres mu in
    [T0 + 8.5 sigma, T - 8.5 sigma], sigma = min(8, (T - T0) / 25), by their Gaussian
    moments cols.  The record w = 2 pi xi = x_L(theta) + l theta has the phase
    e^{i beta0 . w} W(theta), |W| = 1 (W = 1 untwisted; see _weighted_density_residues),
    so Poisson summation over 2 pi Z^d turns S into (2 pi)^-d sum A(nu), nu in Z^d + beta0,
        A(nu) = int W e^{-i nu . x_L} int g_mu(t) a e^{-i t nu . theta} dt dtheta,
    dx = a dt dtheta, a = prod_i (t + r_i(theta)) over the radii of L.  nu = 0 (beta0 in
    Z^d) gives S0 = cols @ c, c the weighted density (rho untwisted), and W = 1 the
    untwisted Z = cols @ rho, at least sigma sqrt(2 pi) |bd(L + mu B)| as
    E (mu + sigma N)^j >= mu^j.  For nu != 0 the contour shift t -> t - i sigma^2 nu . theta
    leaves the factor e^{-sigma^2 (nu . theta)^2 / 2} and the phase nu . (x_L + mu theta),
    stationary only at theta = +-nu / |nu|, with Hessian |nu| (r_i + mu).  Leading-order
    stationary phase (for a point L, the Hankel asymptotic of J_{d/2-1}) gives
    |A(nu)| <= q Z e^{-sigma^2 |nu|^2 / 2} up to a relative O((mu |nu|)^-1), so the bound
    is asymptotic, checked on the test fixtures, not proven; c_d = 2^((d-1)/2) Gamma(d/2)
    / sqrt(pi) and q = c_d (1 + r_max/mu)^((d-1)/2) ((mu |nu|)^-2 + sigma^4/mu^4)^((d-1)/4)
    <= 1 (mu >= 8.5 sigma) once 8.5 sigma delta >= 2 c_d^(2/(d-1)) (1 + r_max/mu),
    delta = dist(beta0, Z^d) or 1.  That holds wherever a certificate is possible:
    P has P cols = I, so |P_j| Z >= |rho_j|, and
    Theta = sum_{nu != 0} e^{-sigma^2 |nu|^2 / 2} <= _CERTIFY_TOL needs sigma delta >= 2.4.
    So |S - S0| <= Z Theta, and the estimate P S is off c in coefficient j by at most
        bound_j = |P_j| Z Theta + n eps |P_j| sum_i g(l_i),
    adding the summation bound of the n-term window sums (the records close to rounding).
    """
    spec, d = model.spec, model.dim
    sigma = min(8.0, (spec.T - spec.T0) / 25.0)
    mu = np.linspace(spec.T0 + 8.5 * sigma, spec.T - 8.5 * sigma, 2 * d)
    windows = (GaussianWindow(m, sigma).value(spec.lengths) for m in mu)
    sums, mags = zip(*((np.sum(spec.phases * g), np.sum(g)) for g in windows))
    moments = [np.ones_like(mu), mu]  # E[(mu + sigma Z)^k]
    for k in range(2, d):
        moments.append(mu * moments[-1] + (k - 1) * sigma**2 * moments[-2])
    cols = sigma * math.sqrt(2.0 * math.pi) * np.stack(moments[:d], axis=1)
    # Theta factors over the axes of nu = k + r, less nu = 0 when r = 0; the k
    # past 2 + 10 / sigma add below e^-50, and rounding below 2 d eps < n eps
    r = spec.beta.beta0 - np.round(spec.beta.beta0)
    k = np.arange(-2 - int(10.0 / sigma), 3 + int(10.0 / sigma))[:, None]
    theta = float(np.prod(np.sum(np.exp(-0.5 * sigma**2 * (k + r) ** 2), axis=0)))
    P = np.linalg.pinv(cols)
    bound = np.abs(P) @ ((cols @ model.rho) * (theta - spec.beta.is_integer)
                         + len(spec) * np.finfo(float).eps * np.asarray(mags))
    return P @ np.asarray(sums), bound


def residues(model: ZetaModel) -> list:
    """Steiner residues rho[ell-1] at s = 1..d, each with its distance from the spectrum.

    error is |estimate - residue| and bound what it may reach, both from
    _poisson_certificate: the estimate is the zero dual frequency of Poisson
    summation, and a short window reports an unresolved identity, not a new
    residue.  certified = error <= bound <= _CERTIFY_TOL |residue|.
    """
    if not model.spec.beta.is_zero:
        raise ValueError("residues requires the untwisted series (beta = 0)")
    d = model.dim
    intrinsic = model.steiner.intrinsic
    estimate, bound = _poisson_certificate(model)
    out = []
    for ell in range(1, d + 1):
        exact = float(model.rho[ell - 1])
        error = float(abs(estimate[ell - 1] - exact))
        out.append(
            ResidueEstimate(
                pole=ell,
                residue=complex(exact),
                error=error,
                predicted_from_volumes=float(_ball_density(ell, d) * intrinsic[d - ell]),
                bound=float(bound[ell - 1]),
                certified=bool(error <= bound[ell - 1] <= _CERTIFY_TOL * abs(exact)),
            )
        )
    return out


def _weighted_density_residues(spec: spectrum.LengthSpectrum, order: int):
    """Quadrature of the curvature moments weighted by the holonomy of spec.beta.

    For an integer-representative beta0 the per-direction weight is the
    holonomy from the start foot along -x_L(theta), which ends on the other
    foot: exp(i [ -beta0 . x_L(theta) + f(end) - f(start) ]).  The weighted
    residue at s = ell is (2 pi)^{-d} int w(theta) a_{ell-1}(theta) dsigma.
    """
    L = spectrum.difference_body(spec.body1, spec.body2)
    g = spherequad.grid(spec.dim, order)
    w = g.weights * spec.beta.holonomy(spec.body1.grad(g.nodes), -L.grad(g.nodes))
    return (2 * math.pi) ** (-spec.dim) * (w @ convex._area_coeffs(L, g.nodes))


def twist_suppression(model: ZetaModel) -> TwistReport:
    """The leading smoothed density of the twisted spectrum against its Poisson value.

    That value is model.density: the weighted residue by quadrature when beta0 is
    in Z^d, else 0; bound is the leading bound of _poisson_certificate, which
    derives it, plus the quadrature's order-doubling delta, model.density_delta.
    certified = deviation <= bound <= _CERTIFY_TOL rho_d.
    """
    emp, bound = _poisson_certificate(model)
    bound = float(bound[-1] + model.density_delta[-1])
    deviation = float(abs(emp[-1] - model.density[-1]))
    return TwistReport(
        mode="weighted" if model.spec.beta.is_integer else "suppressed",
        certified=bool(deviation <= bound <= _CERTIFY_TOL * model.rho[-1]),
        weighted=tuple(complex(z) for z in model.density),
        empirical=tuple(complex(z) for z in emp),
        deviation=deviation,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# Poincare series


def poincare_eval(model: ZetaModel, s):
    """Head sums of phase * exp(-s length), by _head_boundary_values, at a scalar or 1-D s.

    A scalar s gives a complex value.  Every s needs Re(s) >= 1e-3, and TailDominates names
    the first s whose tail estimate _density_tail(rho, T, Re s) tops 1e-6 of its value."""
    flat = np.atleast_1d(np.asarray(s, dtype=complex))
    if not (flat.ndim == 1 and np.all(np.isfinite(flat)) and np.all(flat.real >= _EPS_FLOOR)):
        raise ValueError(f"poincare_eval needs 1-D finite s with Re(s) >= {_EPS_FLOOR}")
    values = _head_boundary_values(*model.head(), flat)
    tails = _density_tail(model.rho, model.T, flat.real)
    bad = np.flatnonzero(~(tails <= _TAIL_REL * np.abs(values)))
    if bad.size:
        k = bad[0]
        raise TailDominates(f"tail estimate {tails[k]:.3e} exceeds {_TAIL_REL:.0e} of "
                            f"|{values[k]:.6e}| at s = {flat[k]}")
    return complex(values[0]) if np.ndim(s) == 0 else values


def _density_tail(rho: np.ndarray, a: float, s):
    """int_a^inf rho'(t) e^{-st} dt = sum_k rho[k-1] J_k, J_k = int_a^inf t^{k-1} e^{-st} dt.

    Re s > 0; J_1 = e^{-sa} / s, J_{k+1} = (k J_k + a^k e^{-sa}) / s, all terms positive at real s.
    An estimate of the tail past a, not a bound: the lattice fluctuation of the counts puts
    the sum of e^{-s l} over l > a on either side of it, for point pairs at s <= 1 up to
    about 1.2 times it.
    """
    decay = np.exp(-s * a)
    term, acc = decay / s, 0.0
    for k in range(1, len(rho) + 1):
        acc = acc + rho[k - 1] * term
        term = (k * term + a**k * decay) / s
    return acc


def _ewald_order(s: complex, rho: float) -> int:
    """Legendre order of the dual sum at torus distance rho: its peaks are 1/sqrt(|s| rho) wide."""
    return 96 + 8 * math.ceil(abs(s) * max(1.0, rho / 2.0))


def _exp_sums(a: np.ndarray, c: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[sum_kj a_k c_j e^{-x_k y_j}, sum_kj |a_k c_j| e^{-x_k y_j}] for real x, y, in blocks
    of 2^20 terms, skipping the j where every term underflows."""
    live = y * x.min(initial=np.inf) <= 745.0
    y, c = y[live], np.stack([c[live].real, c[live].imag, np.abs(c[live])], axis=1)
    step, out = max(1, 2**20 // max(y.size, 1)), np.zeros(2, complex)
    for lo in range(0, x.size, step):
        ec = np.exp(-np.outer(x[lo:lo + step], y)) @ c
        out += [a[lo:lo + step] @ (ec[:, 0] + 1j * ec[:, 1]), np.abs(a[lo:lo + step]) @ ec[:, 2]]
    return out


def _ewald_dual_sum(s: complex, u: np.ndarray, beta0: np.ndarray, dim: int) -> complex:
    """sum_m e^{i m.u} A^{-p}, A = s^2 + |m + beta0|^2, p = (dim+1)/2, at complex s, Re s > 0.

    Ewald split at tau = eta = min(1, 6 / -Re s^2) of A^{-p} Gamma(p) = int_0^inf
    tau^{p-1} e^{-tau A} dtau (A avoids (-inf, 0]): the lattice terms int_eta^inf where
    Re A >= max(4/eta, 16 |Im A|), else A^{-p} Gamma(p) - int_0^eta, plus the images
    pi^{d/2} e^{-i w.beta0} int_0^eta tau^{-1/2} e^{-tau s^2 - |w|^2 / (4 tau)} dtau,
    w = u - 2 pi n, all over Gamma(p).  Terms above e^{-45} e^{-rho Re s}, the sum's size at
    the torus distance rho of u, are kept; more than _EWALD_TERMS is a ValueError.  Every
    integral is in v = |log(tau / eta)| on [0, 50], by one Legendre rule of order
    _ewald_order; twice that order must agree to 1e-9 |sum| + 1e-12 M, M the sum of the
    magnitudes of A^{-p} and of the integrands (spherequad.UnderResolved).  Rounding is
    about 1e-16 M, so an s with M > _EWALD_LOSS |sum| is a ValueError: a far pair at
    |Im s| >~ Re s >~ 2, whose sum is e^{-rho Re s} but whose terms are not, or a sum
    that is 0 by symmetry.
    """
    s, s2, p = complex(s), complex(s) ** 2, (dim + 1) / 2.0
    eta = _EWALD_ETA / max(_EWALD_ETA, -s2.real)
    rho = _torus_distance(u)
    cut = _EWALD_CUT + rho * s.real
    n, dist = _dual_points(u / (2.0 * math.pi),
                           math.sqrt(eta * cut + eta**2 * max(0.0, -s2.real)) / math.pi)
    reach = math.sqrt(max(cut / eta - s2.real, 0.0))
    if math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * reach**dim > _EWALD_TERMS:
        raise ValueError(f"the dual sum at s = {s} needs more than {_EWALD_TERMS:.0e} terms")
    m, norm = _dual_points(-beta0, reach)
    r = s2.real + norm**2  # Re A; every Im A is Im s^2
    up = r >= max(4.0 / eta, _EWALD_KAPPA * abs(s2.imag))
    phase = np.exp(1j * (m @ u))
    head = phase[~up] * (r[~up] + 1j * s2.imag) ** -p
    images = math.pi ** (dim / 2.0) * np.exp(-1j * ((u - 2.0 * math.pi * n) @ beta0))
    order = _ewald_order(s, rho)
    sums = []
    for k in (order, 2 * order):
        x, wt = spherequad._gauss_gegenbauer(k, 0.5)
        t = eta * np.exp(-25.0 * (x + 1.0))  # tau = eta e^{-v}, v = 25 (x + 1), and T = eta e^v
        T, wt = eta**2 / t, 25.0 * wt / math.gamma(p)
        sums.append([np.sum(head), np.sum(np.abs(head))]
                    + _exp_sums(-phase[~up], wt * t**p * np.exp(-1j * s2.imag * t), t, r[~up])
                    + _exp_sums(phase[up], wt * T**p * np.exp(-1j * s2.imag * T), T, r[up])
                    + _exp_sums(images, wt * np.sqrt(t) * np.exp(-s2 * t), 1 / t,
                                (math.pi * dist)**2))
    (v1, _), (v2, mag) = sums
    mag = mag.real
    spherequad._doubling_error(v1 / mag, v2 / mag, f"dual sum doubling {order}->{2 * order}, "
                               "in units of its terms' magnitudes,")
    if not mag <= _EWALD_LOSS * abs(v2):
        raise ValueError(f"the dual sum at s = {s} cancels {mag / abs(v2):.1e}-fold")
    return complex(v2)


def spectral_constants(dim: int) -> tuple:
    """(kappa, c_dim) of the dual representation, in closed form.

    Poisson summation of the kernel exp(-s|x|), whose Fourier transform on
    R^d is 2^d pi^{(d-1)/2} Gamma((d+1)/2) s (s^2 + |k|^2)^{-(d+1)/2}, gives
    kappa = 1 and c_d = Gamma((d+1)/2) / pi^{(d+1)/2}.
    """
    return 1.0, math.gamma((dim + 1) / 2.0) / math.pi ** ((dim + 1) / 2.0)


def fit_spectral_normalization() -> tuple:
    """spectral_constants(3); kept only for the span that bench/spans.py wraps by name."""
    return spectral_constants(3)


def _f_phase(beta: spectrum.TwistForm, x: np.ndarray, y: np.ndarray) -> complex:
    """exp(i (f(y) - f(x))): the exact part df of the twist, from x to y."""
    return complex(np.exp(1j * (beta.f_eval(y[None, :]) - beta.f_eval(x[None, :])))[0])


def _torus_distance(u: np.ndarray) -> float:
    """|u - 2 pi round(u / 2 pi)|: the distance of u from 2 pi Z^d."""
    return float(np.linalg.norm(u - 2.0 * math.pi * np.round(u / (2.0 * math.pi))))


def _same_torus_point(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether x and y agree modulo 2 pi Z^d, to 1e-9."""
    return _torus_distance(x - y) < 1e-9


def poincare_points_spectral(x, y, beta: spectrum.TwistForm, s: complex) -> complex:
    """Dual-lattice form of the two-point Poincare series at complex s with Re s > 0.

    c_d e^{i(f(y)-f(x))} s sum_xi e^{i xi.(x-y)} (s^2 + |xi+beta0|^2)^{-(d+1)/2} by
    _ewald_dual_sum, also next to the lines s = i|xi + beta0|, where the head sum of
    poincare_eval converges slowest; an s that sum refuses is a ValueError.  An accepted s
    is off by about 1e-16 M, M the sum of its terms' magnitudes, which _EWALD_LOSS keeps
    below 1e-9 |sum|; at real s in d = 5 that is 1.8e-13 (u = (pi, ..., pi), s = 2.5).
    """
    x, y, s = np.asarray(x, dtype=float), np.asarray(y, dtype=float), complex(s)
    if _same_torus_point(x, y):
        raise ValueError("x and y must differ modulo 2 pi Z^d")
    if not (cmath.isfinite(s) and s.real > 0):
        raise ValueError("the dual sum needs a finite s with Re(s) > 0")
    _, c_d = spectral_constants(x.size)
    return complex(_f_phase(beta, x, y) * c_d * s * _ewald_dual_sum(s, x - y, beta.beta0, x.size))


# ---------------------------------------------------------------------------
# singular models


def F_alpha(alpha: float, z) -> complex:
    """Canonical singular model: Laplace transform of the t^{-alpha} tail.

    ((-1)^n / n!) z^{n-1} log z for alpha = n a positive integer (to 1e-12),
    Gamma(1-alpha) z^{alpha-1} for every other alpha.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.isclose(z.imag, 0.0) & (z.real <= 0.0)):
        raise ValueError("F_alpha is defined off the negative real axis")
    n = int(round(alpha))
    if n >= 1 and abs(alpha - n) < 1e-12:
        out = ((-1.0) ** n / math.factorial(n)) * z ** (n - 1) * np.log(z)
    else:
        out = math.gamma(1.0 - alpha) * z ** (alpha - 1.0)
    return complex(out) if np.ndim(z) == 0 else out


def _line_orders(dim: int) -> np.ndarray:
    """Singular orders (d-1)/2 + j - l, j <= _J_MAX, l < d, of the lines off y = 0."""
    return np.unique([(dim - 1) / 2.0 + j - l
                      for j in range(_J_MAX + 1) for l in range(dim)])


def alpha_grid(dim: int) -> np.ndarray:
    """Candidate singular orders: the line orders joined with the y = 0 pole stack 1 - l."""
    return np.union1d(_line_orders(dim), 1.0 - np.arange(1, dim + 1))


def _dual_slabs(beta0: np.ndarray, reach: float):
    """Every m in Z^d with |m - beta0| <= reach and those norms, one first coordinate at a time.

    The slabs are spectrum._lattice_slabs of the cube [-R, R]^d,
    R = ceil(reach + |beta0|), so their concatenation is lexicographic.
    """
    # |m_i| <= |m| <= reach + |beta0|, so the cube holds every such m
    for m in spectrum._lattice_slabs(beta0.size, int(math.ceil(reach + np.linalg.norm(beta0)))):
        rho = np.linalg.norm(m - beta0, axis=1)
        keep = rho <= reach
        yield m[keep], rho[keep]


def _dual_points(beta0: np.ndarray, reach: float) -> tuple:
    """Every m in Z^d with |m - beta0| <= reach, in lexicographic order, and those norms."""
    slabs = list(_dual_slabs(beta0, reach))
    return np.concatenate([m for m, _ in slabs]), np.concatenate([rho for _, rho in slabs])


def predicted_lines(beta: spectrum.TwistForm, y_max: float) -> np.ndarray:
    """Sorted candidate singular locations |xi - beta0| up to y_max.

    Only each slab's rounded distinct norms are kept, so the memory follows the
    number of lines and not the (2 y_max)^d points of the cube.
    """
    return np.unique(np.concatenate(
        [np.unique(np.round(rho, 12)) for _, rho in _dual_slabs(beta.beta0, y_max + 1e-9)]))


def _head_boundary_values(lengths, phases, s) -> np.ndarray:
    """sum_k phases[k] exp(-s l_k) at every point of the complex array s.

    The carrier exp(-i y_c l) of the middle ordinate y_c of s moves into the
    phases, so z = s - i y_c has |z| <= r.  Bins of width 1/r from the least
    length (records are sorted only up to _GROUP_TOL) put every l within
    1/(2r) of its bin centre c_b, so exp(-z l) = exp(-z c_b) exp(-z delta) with
    |z delta| <= 1/2, and the sum is sum_b exp(-z c_b) sum_k (-z)^k m_{b,k} over
    the moments m_{b,k} = sum phase delta^k / k!, k < _TAYLOR_TERMS: a relative
    remainder of at most e^{1/2} 2^-16 / 16!, about 1.2e-18, per term.  The
    work is r (max l - min l) bins times the points of s; the largest
    temporary is one row of s by the bins.
    """
    s = np.asarray(s, dtype=complex)
    if lengths.size == 0:
        return np.zeros(s.shape, dtype=complex)
    y_c = 0.5 * (s.imag.min() + s.imag.max())
    z = np.atleast_2d(s - 1j * y_c)
    r = np.abs(z).max()
    b = np.floor((lengths - lengths.min()) * r).astype(np.intp)
    centres = lengths.min() + (np.arange(b.max() + 1) + 0.5) / r
    delta = lengths - centres[b]
    term = phases * np.exp(-1j * y_c * lengths)
    moments = np.empty((_TAYLOR_TERMS, centres.size), dtype=complex)
    for k in range(_TAYLOR_TERMS):
        moments[k] = np.bincount(b, term.real) + 1j * np.bincount(b, term.imag)
        term = term * delta / (k + 1)
    powers = np.arange(_TAYLOR_TERMS)
    out = [np.sum((-row[:, None]) ** powers * (np.exp(-np.outer(row, centres)) @ moments.T),
                  axis=1) for row in z]
    return np.reshape(out, s.shape)


def _local_maxima(x: np.ndarray):
    """Strict local maxima of x and their prominences.

    A plateau counts once, at its left-rounded midpoint, and only when both
    neighbouring values are lower; the end samples are never maxima.  The
    prominence is x[peak] minus the higher of the two minima taken between
    the peak and the nearest strictly higher sample (or the array end) on
    each side.
    """
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    v = x[starts]
    runs = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[runs] + starts[runs + 1] - 1) // 2
    prominences = np.empty(peaks.size)
    for j, p in enumerate(peaks):
        left = np.flatnonzero(x[:p] > x[p])
        right = np.flatnonzero(x[p + 1:] > x[p])
        lo = left[-1] + 1 if left.size else 0
        hi = p + 1 + right[0] if right.size else x.size
        prominences[j] = x[p] - max(x[lo:p + 1].min(), x[p:hi].min())
    return peaks, prominences


def _peak_indices(mag: np.ndarray) -> list:
    """The peaks of mag worth a fit, at most _MAX_PEAKS, strongest first (ties by index)."""
    raw, prominences = _local_maxima(mag)
    floor = 2.0 * float(np.median(mag))
    idx = [
        int(i)
        for i, prom in zip(raw, prominences)
        if mag[i] > floor and prom >= 0.15 * mag[i]
    ]
    if mag.size > 1 and mag[0] > mag[1] and mag[0] > floor:
        idx.insert(0, 0)
    idx.sort(key=lambda i: -mag[i])
    return idx[:_MAX_PEAKS]


def _check_scan_grids(eps_ladder: Optional[Sequence[float]],
                      y_grid: Optional[np.ndarray]) -> tuple:
    """The T-free part of _scan_grids: a given eps ladder, largest first, and a given y grid.

    None stays None.  The slope fit needs two or more distinct eps in
    [1e-3, 0.5], and the y grid must be finite and increasing, as the lines
    are predicted up to its last entry.  Any other grid is a ValueError.
    """
    eps = None if eps_ladder is None else np.asarray(sorted(eps_ladder, reverse=True),
                                                     dtype=float)
    if eps is not None and not (eps.size >= 2 and np.all(np.diff(eps) < 0.0)
                                and eps[-1] >= _EPS_FLOOR and eps[0] <= 0.5):
        raise ValueError("eps ladder needs two or more distinct values in [1e-3, 0.5]")
    y = None if y_grid is None else np.asarray(y_grid, dtype=float)
    if y is not None and not (y.size and np.all(np.isfinite(y)) and np.all(np.diff(y) > 0.0)):
        raise ValueError("the y grid needs increasing finite entries")
    return eps, y


def _scan_grids(eps_ladder: Optional[Sequence[float]], y_grid: Optional[np.ndarray],
                T: float) -> tuple:
    """The eps ladder, largest first, and the y grid singularity_scan runs on a head to T.

    None is the default.  Each grid must pass _check_scan_grids, and the
    ladder also min(eps) * T >= 6; any other grid is a ValueError.
    """
    if eps_ladder is None:
        # keep the fluctuation floor e^{-eps T} well under the weakest peaks
        eps_ladder = np.geomspace(1e-1, max(2e-2, 9.0 / T), 8)
    eps, y = _check_scan_grids(eps_ladder, y_grid)
    if eps[-1] * T < 6.0:
        raise ValueError("head too short for the requested ladder (need eps*T >= 6)")
    return eps, np.linspace(0.0, 3.2, 641) if y is None else y


def singularity_scan(
    model: ZetaModel,
    eps_ladder: Optional[Sequence[float]] = None,
    y_grid: Optional[np.ndarray] = None,
) -> list:
    """Locate and classify boundary singularities of the Poincare series.

    Peaks of |Z(eps_min + iy)| over the y grid are refitted along the eps
    ladder: the log-log slope p picks the nearest model order alpha with
    p = alpha - 1, and a matched filter against F_alpha recovers the
    coefficient.  A peak off y = 0 chooses among the line orders only; the
    pole-stack orders 1 - l occur at y = 0 alone.  The ladder must resolve
    the head truncation: min(eps) * T >= 6 keeps the discarded tail below
    the fit noise.

    _head_boundary_values sums the head on the ladder and once more, cut at
    0.85 T by spectrum.counting, at the smallest eps.  Each head less the
    Laplace transform of model.density over its own range, _density_tail at
    0 less _density_tail at the cut, is what the peaks are found on; eps T
    >= 6 keeps that difference well conditioned.  The head sums' work grows
    with T times the span of the y grid: at T = 150, 521 points over
    [0, 100] take about 25 times as long as over [0, 2.6].
    """
    spec, rho = model.spec, model.density
    eps_ladder, y_grid = _scan_grids(eps_ladder, y_grid, spec.T)

    s_mat = eps_ladder[:, None] + 1j * y_grid[None, :]
    values = _head_boundary_values(spec.lengths, spec.phases, s_mat)
    # the short head: truncation ripples move when the head is shortened
    # while genuine peaks persist
    cut = spectrum.counting(spec, 0.85 * spec.T)
    short_head = _head_boundary_values(spec.lengths[:cut], spec.phases[:cut], s_mat[-1])
    # deflate the truncated Laplace transform of the twist's own smooth
    # density: this removes the pole stack at y = 0 together with its
    # shoulder, leaving the spectral lines standing on the fluctuation floor
    whole = _density_tail(rho, 0.0, s_mat)
    deflated = values - (whole - _density_tail(rho, spec.T, s_mat))
    short = short_head - (whole[-1] - _density_tail(rho, 0.85 * spec.T, s_mat[-1]))
    # detect on the pointwise minimum of the full and short magnitudes
    detect = np.minimum(np.abs(deflated[-1]), np.abs(short))
    # a NaN phase or density coefficient leaves no peak to find, not no singularity
    if not np.all(np.isfinite(detect)):
        raise FitAmbiguous("the detection magnitudes are not all finite")

    d = model.dim
    lines = predicted_lines(spec.beta, float(y_grid[-1]) + 1.0)
    log_eps = np.log(eps_ladder)

    def classify(y0, z, grid):
        log_mag = np.log(np.abs(z))
        slope, _ = np.polyfit(log_eps, log_mag, 1)
        res = np.abs(slope - (grid - 1.0))
        order = np.argsort(res)
        if res[order[0]] > 0.35:
            return None
        # a NaN slope makes every residual NaN, which passes no comparison
        if not res[order[1]] >= 2.0 * res[order[0]]:
            raise FitAmbiguous(
                f"peak at y = {y0:.4f}: orders {grid[order[0]]} and "
                f"{grid[order[1]]} fit within a factor 2 (slope {slope:.3g})"
            )
        a = float(grid[order[0]])
        fvals = F_alpha(a, eps_ladder.astype(complex))
        coeff = complex(np.sum(z * np.conj(fvals)) / np.sum(np.abs(fvals) ** 2))
        j = int(np.argmin(np.abs(lines - y0))) if lines.size else 0
        nearest = float(lines[j]) if lines.size else math.nan
        return SingularityFit(
            location=y0,
            alpha=a,
            exponent=float(slope),
            coefficient=coeff,
            residual=float(res[order[0]]),
            nearest_line=nearest,
            line_distance=abs(y0 - nearest),
        )

    fits = []
    # the y = 0 pole stack lives in the raw values (it was deflated away
    # with the smooth density); fit it whenever it dominates the edge
    raw_mag = np.abs(values[-1])
    if y_grid[0] == 0.0 and raw_mag[0] > max(
        2.0 * float(np.median(raw_mag)), 4.0 * float(np.abs(deflated[-1, 0]))
    ):
        stack = classify(0.0, values[:, 0].copy(), alpha_grid(d))
        if stack is not None:
            fits.append(stack)

    accepted = []
    line_orders = _line_orders(d)
    for i in _peak_indices(detect):
        if y_grid[i] == 0.0:
            continue
        y0 = float(y_grid[i])
        z = deflated[:, i].copy()
        for yj, aj, cj in accepted:
            z -= cj * F_alpha(aj, eps_ladder + 1j * (y0 - yj))
        fit = classify(y0, z, line_orders)
        if fit is None:
            continue
        accepted.append((y0, fit.alpha, fit.coefficient))
        fits.append(fit)
    fits.sort(key=lambda f: f.location)
    return fits


# ---------------------------------------------------------------------------
# crystalline pairing


def _ghat_radial(dim: int, rho: np.ndarray, window: GaussianWindow) -> np.ndarray:
    """Radial spectral weight pairing the dual lattice lines with the window.

    Odd-dimensional closed forms; rho is clamped away from 0 where the
    expression has a removable singularity (error O(clamp^2)).
    """
    rho = np.maximum(np.asarray(rho, dtype=float), 1e-6)
    q = window.odd_part(rho)
    if dim == 3:
        return -4j * math.pi**2 * q / rho
    qp = window.odd_part_deriv(rho)
    return 8j * math.pi**3 * (qp / rho - q / rho**2) / rho


def _check_pairing(body1: convex.SupportBody, body2: convex.SupportBody) -> None:
    """ValueError unless the pair is two points in d = 3 or 5, where _ghat_radial is closed."""
    if not (body1.is_point and body2.is_point):
        raise ValueError("the exact pairing needs point bodies")
    if body1.dim not in (3, 5):
        raise ValueError("the crystalline pairing is implemented for d in {3, 5}")


def _point_location(body: convex.SupportBody) -> np.ndarray:
    e1 = np.zeros(body.dim)
    e1[0] = 1.0
    return body.grad(e1[None, :])[0]


def guinand_pairing(spec: spectrum.LengthSpectrum, window: GaussianWindow) -> GuinandResult:
    """Pair the two-sided length measure against the dual spectral comb.

    length_side = sum phase (phihat(l) - phihat(-l)) / l;
    spectral_side = e^{i(f(y)-f(x))} (2 pi)^{-d} sum_m e^{i m.(y-x)}
    ghat(|m - beta0|), over the m with |m - beta0| <= center + 12 width.
    The phases are those of spec's twist beta.  The reverse spectrum, from
    y back to x, is spec reflected (xi and theta negated, the same lengths,
    conjugate phases), so its terms conj(phase) phihat(-l)/l are spec's
    own.  Exact for the pairs _check_pairing admits: points in d = 3 or 5.
    """
    _check_pairing(spec.body1, spec.body2)
    if spec.T0 != 0.0:
        raise ValueError("the spectrum must be enumerated from T0 = 0")
    d = spec.dim
    mass = math.exp(-0.5 * window.width**2 * spec.T**2)
    if not mass <= _MASS_TOL:
        raise TruncationTooSmall(
            f"window mass {mass:.2e} beyond T = {spec.T}; enumerate further or widen"
        )

    lengths = spec.lengths
    length_side = complex(np.sum(
        spec.phases * (window.transform(lengths) - window.transform(-lengths)) / lengths))

    x = _point_location(spec.body1)
    y = _point_location(spec.body2)
    m, rho = _dual_points(spec.beta.beta0, window.center + 12.0 * window.width)
    comb = np.exp(1j * (m @ (y - x))) * _ghat_radial(d, rho, window)
    spectral_side = complex(_f_phase(spec.beta, x, y) * (2 * math.pi) ** (-d) * np.sum(comb))
    lines = np.unique(np.round(rho, 12))
    return GuinandResult(
        length_side=length_side,
        spectral_side=spectral_side,
        lines=tuple(float(r) for r in lines[np.argsort(np.abs(lines - window.center))][:8]),
        truncation_mass=mass,
    )
