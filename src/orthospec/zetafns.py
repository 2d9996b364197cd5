"""Zeta functions and Poincare series attached to a length orthospectrum.

The Dirichlet series Z(s) = sum phase * length^{-s} converges for Re(s) > d
and continues meromorphically once the tail of the spectrum is replaced by
the smooth Steiner density: the continued function has simple poles at
s = 1..d whose residues are intrinsic volumes of the difference body.  The
Laplace-type series P(s) = sum phase * exp(-s length) develops singularities
on the imaginary axis at the spectrum of a magnetic Laplacian; this module
locates and classifies them against the canonical F_alpha singular models,
and runs the crystalline summation check pairing lengths against dual
lattice lines.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from typing import Optional, Sequence

import numpy as np
from scipy.special import erfcx, gamma as _gamma, gammaincc

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
    "zeta_eval",
    "zeta_tail_bound",
    "zeta_continue",
    "residues",
    "twist_suppression",
    "poincare_eval",
    "poincare_tail_bound",
    "poincare_points_spectral",
    "spectral_constants",
    "F_alpha",
    "F_alpha_boundary",
    "alpha_grid",
    "singularity_scan",
    "predicted_lines",
    "guinand_pairing",
    "values_to_csv",
    "residues_to_json",
]

_POLE_TOL = 1e-8
_EPS_FLOOR = 1e-3
_TAIL_REL = 1e-6
_MASS_TOL = 1e-12


class PoleHit(Exception):
    """Continuation requested within 1e-8 of a pole."""


class TailDominates(Exception):
    """The reported tail bound exceeds 1e-6 of the partial sum."""


class TruncationTooSmall(Exception):
    """Enumerated spectra do not support the requested test window."""


class FitAmbiguous(Exception):
    """Two singular models fit a peak within a factor 2 of each other."""


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
        if self.width <= 0:
            raise ValueError("window width must be positive")

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
    """Head/tail splice: enumerated spectrum below T, Steiner density above.

    rho[k-1] is the coefficient of t^{k-1} in the smooth counting density;
    the spectrum extends to T * max(sweep) so the splice point can be swept
    for stability error bars.
    """

    spec: spectrum.LengthSpectrum
    rho: np.ndarray
    T: float
    sweep: tuple
    beta: Optional[spectrum.TwistForm]

    @property
    def dim(self) -> int:
        return self.spec.dim

    def head(self, factor: float = 1.0):
        """(lengths, phases) with length <= factor * T."""
        n = int(np.searchsorted(self.spec.lengths, factor * self.T + 1e-12))
        return self.spec.lengths[:n], self.spec.phases[:n]


@dataclass(frozen=True)
class ResidueEstimate:
    pole: int
    residue: complex
    error: float
    predicted_from_volumes: float

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error bar must be nonnegative")


@dataclass(frozen=True)
class SingularityFit:
    location: float
    alpha: float
    exponent: float
    exponent_ci: tuple
    coefficient: complex
    residual: float
    nearest_line: float
    line_distance: float


@dataclass(frozen=True)
class TwistReport:
    mode: str                      # "decay" or "weighted"
    certified: bool
    t_ladder: tuple = ()
    ratios: tuple = ()
    untwisted_level: float = 0.0
    threshold: float = 0.0
    poles: tuple = ()
    weighted: tuple = ()
    empirical: tuple = ()
    deviation: float = 0.0


@dataclass(frozen=True)
class GuinandResult:
    length_side: complex
    spectral_side: complex
    lines: tuple
    truncation_mass: float


def build_zeta_model(
    K1: convex.SupportBody,
    K2: convex.SupportBody,
    orient: str = "+-",
    beta: Optional[spectrum.TwistForm] = None,
    T: Optional[float] = None,
    T0: Optional[float] = None,
    workers: int = 1,
    sweep: Sequence[float] = (1.0, 2.0, 4.0),
) -> ZetaModel:
    """Enumerate the spectrum to T * max(sweep) and attach the tail density."""
    d = K1.dim
    if T is None:
        T = 30.0 * 2.0 * math.pi / d
    sweep = tuple(sorted(float(f) for f in sweep))
    if not sweep or sweep[0] < 1.0:
        raise ValueError("sweep factors must be >= 1")
    spec = spectrum.enumerate(
        K1, K2, orient=orient, T0=T0, T=T * sweep[-1], beta=beta, workers=workers
    )
    rho = spectrum.density_coeffs(K1, K2, orient)
    lead = _ball_density(d, d)
    if abs(rho[-1] - lead) > 1e-8 * lead:
        raise ValueError("tail density leading coefficient fails the sphere check")
    return ZetaModel(spec=spec, rho=np.asarray(rho, dtype=float), T=float(T),
                     sweep=sweep, beta=beta)


def _ball_density(ell: int, d: int) -> float:
    """ell omega_ell / (2 pi)^d, omega_ell the volume of the unit ell-ball.

    The counting-density coefficient of t^{ell-1} per unit intrinsic volume
    V_{d-ell} of the difference body.
    """
    return ell * math.pi ** (ell / 2.0) / ((2 * math.pi) ** d * _gamma(ell / 2.0 + 1.0))


def _require_untwisted(model: ZetaModel, what: str) -> None:
    b = model.beta
    if b is None:
        return
    if b.modes or np.any(b.beta0 != 0.0):
        raise ValueError(f"{what} requires the untwisted series (beta = 0)")


def _check_factor(model: ZetaModel, factor: float) -> float:
    if not 1.0 <= factor <= model.sweep[-1]:
        raise ValueError("splice factor outside the enumerated sweep range")
    return factor * model.T


def zeta_eval(model: ZetaModel, s: complex, factor: float = 1.0) -> complex:
    """Partial Dirichlet sum over the head; valid for Re(s) > d."""
    if s.real <= model.dim:
        raise ValueError("zeta_eval needs Re(s) > d; use zeta_continue instead")
    _check_factor(model, factor)
    lengths, phases = model.head(factor)
    return complex(np.sum(phases * lengths ** (-s)))


def zeta_tail_bound(model: ZetaModel, s: complex, factor: float = 1.0) -> float:
    """integral_T^inf t^{-Re(s)} rho'(t) dt, finite for Re(s) > d."""
    sig = s.real
    if sig <= model.dim:
        raise ValueError("tail integral diverges for Re(s) <= d")
    T = _check_factor(model, factor)
    k = np.arange(1, model.dim + 1)
    return float(np.sum(model.rho * T ** (k - sig) / (sig - k)))


def zeta_continue(model: ZetaModel, s: complex, factor: float = 1.0) -> complex:
    """Head sum plus the exact rational tail; poles only at s = 1..d."""
    _require_untwisted(model, "zeta_continue")
    s = complex(s)
    k = np.arange(1, model.dim + 1)
    if np.min(np.abs(s - k)) < _POLE_TOL:
        raise PoleHit(f"s = {s} sits on a pole of the continued zeta")
    T = _check_factor(model, factor)
    lengths, phases = model.head(factor)
    head = np.sum(phases * np.exp(-s * np.log(lengths)))
    tail = np.sum(model.rho * T ** (k - s) / (s - k))
    return complex(head + tail)


def _counting_fit(model: ZetaModel, weights: Optional[np.ndarray] = None):
    """Least-squares polynomial residues from (weighted) counting data.

    Returns per-sweep-factor arrays of fitted residues ell * c_ell from
    N(T') ~ sum c_k T'^k + c_0 over T' in [T0 + 1, factor * T].
    """
    lengths = model.spec.lengths
    w = np.ones(lengths.size, dtype=complex) if weights is None else weights
    d = model.dim
    out = []
    for factor in model.sweep:
        hi = factor * model.T
        lo = min(model.spec.T0 + 1.0, 0.5 * hi)
        grid = np.linspace(lo, hi, 200)
        counts = np.array(
            [np.sum(w[: np.searchsorted(lengths, t + 1e-12)]) for t in grid]
        )
        cols = np.vstack([grid**k for k in range(d + 1)]).T
        coef, *_ = np.linalg.lstsq(cols, counts, rcond=None)
        out.append(np.arange(1, d + 1) * coef[1:])
    return out


def residues(model: ZetaModel) -> list:
    """Tail-model residues at s = 1..d with a counting-stability error bar."""
    _require_untwisted(model, "residues")
    if model.spec.orient != "+-":
        raise ValueError("residues are defined for the (+,-) orientation")
    d = model.dim
    L = spectrum.difference_body(model.spec.body1, model.spec.body2,
                                 model.spec.orient)
    intrinsic = convex.steiner(L).intrinsic
    fits = _counting_fit(model)
    out = []
    for ell in range(1, d + 1):
        exact = float(model.rho[ell - 1])
        predicted = _ball_density(ell, d) * intrinsic[d - ell]
        err = max(abs(complex(f[ell - 1]) - exact) for f in fits)
        out.append(
            ResidueEstimate(
                pole=ell,
                residue=complex(exact),
                error=float(err),
                predicted_from_volumes=float(predicted),
            )
        )
    return out


def _weighted_density_residues(model: ZetaModel, beta: spectrum.TwistForm):
    """Quadrature of the holonomy-weighted curvature moments.

    For an integer-representative beta0 the per-direction weight is the
    holonomy from the start foot along -x_L(theta), which ends on the other
    foot: exp(i [ -beta0 . x_L(theta) + f(end) - f(start) ]).  The weighted
    residue at s = ell is (2 pi)^{-d} int w(theta) a_{ell-1}(theta) dsigma.
    """
    spec = model.spec
    L = spectrum.difference_body(spec.body1, spec.body2, spec.orient)
    d = model.dim
    g = spherequad.grid(d, 64 if d == 2 else 32)
    theta = g.nodes
    coeffs = convex._area_coeffs(L, theta)
    start = (spec.body1 if spec.orient == "+-" else spec.body2).grad(theta)
    w = beta.holonomy(start, -L.grad(theta))
    scale = (2 * math.pi) ** (-d)
    return np.array([scale * np.sum(g.weights * w * coeffs[:, j])
                     for j in range(d)])


def _phase_weights(spec: spectrum.LengthSpectrum,
                   beta: Optional[spectrum.TwistForm]) -> np.ndarray:
    """Holonomy weights for every record, recomputed for the given form."""
    if beta is None:
        return np.ones(spec.lengths.size, dtype=complex)
    return spectrum._record_phases(spec, beta)


def twist_suppression(
    model: ZetaModel,
    beta: spectrum.TwistForm,
    t_ladder: Optional[Sequence[float]] = None,
) -> TwistReport:
    """Certify the loss of the leading counting term under a twist.

    For beta0 without integer representative: |N_beta(T)| / T^d over a
    T-ladder, certified when the ratios decrease and the last sits below
    a quarter of the untwisted level.  For integer beta0 (including the
    f-only case): weighted residues by quadrature against the empirical
    counting fit.
    """
    spec = model.spec
    d = model.dim
    if not beta.is_integer:
        if t_ladder is None:
            t_ladder = tuple(spec.T * f for f in (0.25, 0.5, 1.0))
        t_ladder = tuple(float(t) for t in t_ladder)
        ratios = tuple(
            abs(spectrum.counting_weighted(spec, beta, t)) / t**d
            for t in t_ladder
        )
        level = _ball_density(d, d) / d
        threshold = 0.25 * level
        decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
        return TwistReport(
            mode="decay",
            certified=bool(decreasing and ratios[-1] < threshold),
            t_ladder=t_ladder,
            ratios=ratios,
            untwisted_level=level,
            threshold=threshold,
        )
    weighted = _weighted_density_residues(model, beta)
    fits = _counting_fit(model, _phase_weights(spec, beta))
    emp = fits[-1]
    dev = float(np.max(np.abs(emp - weighted)))
    lead_scale = float(model.rho[-1])
    return TwistReport(
        mode="weighted",
        certified=bool(abs(emp[-1] - weighted[-1]) <= 0.05 * lead_scale),
        poles=tuple(range(1, d + 1)),
        weighted=tuple(complex(z) for z in weighted),
        empirical=tuple(complex(z) for z in emp),
        deviation=dev,
    )


# ---------------------------------------------------------------------------
# Poincare series


def poincare_eval(model: ZetaModel, s: complex) -> complex:
    """Head sum of phase * exp(-s length); raises when the tail matters."""
    s = complex(s)
    if s.real < _EPS_FLOOR:
        raise ValueError(f"poincare_eval needs Re(s) >= {_EPS_FLOOR}")
    lengths, phases = model.head()
    value = complex(np.sum(phases * np.exp(-s * lengths)))
    bound = poincare_tail_bound(model, s)
    if bound > _TAIL_REL * abs(value):
        raise TailDominates(
            f"tail bound {bound:.3e} exceeds {_TAIL_REL:.0e} of |{value:.6e}|"
        )
    return value


def poincare_tail_bound(model: ZetaModel, s: complex) -> float:
    """integral_T^inf exp(-Re(s) t) rho'(t) dt via incomplete gamma."""
    sig = complex(s).real
    if sig <= 0:
        raise ValueError("tail bound needs Re(s) > 0")
    k = np.arange(1, model.dim + 1)
    terms = model.rho * _gamma(k) * sig ** (-k.astype(float)) * gammaincc(
        k, sig * model.T
    )
    return float(np.sum(terms))


def _H_theta(a: float, b: np.ndarray) -> np.ndarray:
    # int_0^1 tau^{-1/2} exp(-a tau - b / tau) dtau, a > 0, b >= 0
    sa, sb = math.sqrt(a), np.sqrt(b)
    t1 = -erfcx(sa + sb) * np.exp(-a - b)
    t2 = np.where(
        sb >= sa,
        erfcx(np.abs(sb - sa)) * np.exp(-a - b),
        2.0 * np.exp(-2.0 * sa * sb) - erfcx(np.abs(sa - sb)) * np.exp(-a - b),
    )
    return 0.5 * math.sqrt(math.pi) / math.sqrt(a) * (t1 + t2)


def _ewald_dual_sum(s: float, u: np.ndarray, beta0: np.ndarray, dim: int) -> complex:
    """sum_m e^{i m.u} (s^2 + |m + beta0|^2)^{-(dim+1)/2}, s real > 0.

    Ewald split: incomplete-gamma lattice part plus theta-transformed image
    part with an erfcx-stable kernel; both truncations superexponential.
    """
    p = (dim + 1) / 2.0
    m = spectrum._lattice_box(dim, 8)
    A = s**2 + np.sum((m + beta0) ** 2, axis=1)
    lattice = np.sum(np.exp(1j * (m @ u)) * A ** (-p) * gammaincc(p, A))
    n = spectrum._lattice_box(dim, 4)
    w = u - 2.0 * math.pi * n
    b = np.sum(w**2, axis=1) / 4.0
    phases = np.exp(-1j * (w @ beta0))
    images = math.pi ** (dim / 2.0) / _gamma(p) * np.sum(phases * _H_theta(s**2, b))
    return complex(lattice + images)


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


def _f_phase(beta: Optional[spectrum.TwistForm], x: np.ndarray,
             y: np.ndarray) -> complex:
    """exp(i (f(y) - f(x))): the exact part df of the twist, from x to y."""
    if beta is None or not beta.modes:
        return 1.0 + 0.0j
    return complex(np.exp(1j * (beta.f_eval(y[None, :]) - beta.f_eval(x[None, :])))[0])


def poincare_points_spectral(
    x,
    y,
    beta: Optional[spectrum.TwistForm],
    s: complex,
    cutoff: Optional[float] = None,
) -> complex:
    """Dual-lattice form of the two-point Poincare series.

    c_d e^{i(f(y)-f(x))} s sum_xi e^{i xi.(x-y)} (s^2 + kappa^2|xi+beta0|^2)^{-(d+1)/2}.
    With an explicit cutoff the sum is truncated to |xi| <= cutoff; with
    cutoff=None (real s only) the full sum is evaluated by an Ewald split,
    exact to near machine precision.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.size
    u = x - y
    wrapped = u - 2 * math.pi * np.round(u / (2 * math.pi))
    if np.linalg.norm(wrapped) < 1e-9:
        raise ValueError("x and y must differ modulo 2 pi Z^d")
    beta0 = np.zeros(d) if beta is None else beta.beta0
    fphase = _f_phase(beta, x, y)
    kappa, c_d = spectral_constants(d)
    s = complex(s)
    p = (d + 1) / 2.0
    if cutoff is not None:
        xi = spectrum._lattice_box(d, int(math.ceil(cutoff)))
        xi = xi[np.sum(xi**2, axis=1) <= cutoff**2 + 1e-12]
        terms = np.exp(1j * (xi @ u)) * (
            s**2 + kappa**2 * np.sum((xi + beta0) ** 2, axis=1)
        ) ** (-p)
        return complex(fphase * c_d * s * np.sum(terms))
    if abs(s.imag) > 0 or s.real <= 0:
        raise ValueError("the exact Ewald path needs real s > 0")
    dual = _ewald_dual_sum(s.real / kappa, u, beta0, d)
    return complex(fphase * c_d * s * kappa ** (-2.0 * p) * dual)


# ---------------------------------------------------------------------------
# singular models


def F_alpha(alpha: float, z) -> complex:
    """Canonical singular model: Laplace transform of the t^{-alpha} tail.

    Gamma(1-alpha) z^{alpha-1} for alpha < 1;
    ((-1)^n / n!) z^{n-1} log z for alpha = n a positive integer;
    (pi / (sin(pi alpha) Gamma(alpha))) z^{alpha-1} for nonintegral alpha > 1.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.isclose(z.imag, 0.0) & (z.real <= 0.0)):
        raise ValueError("F_alpha is defined off the negative real axis")
    near_int = abs(alpha - round(alpha)) < 1e-12
    if alpha < 1.0 and not (near_int and round(alpha) >= 1):
        out = _gamma(1.0 - alpha) * z ** (alpha - 1.0)
    elif near_int:
        n = int(round(alpha))
        out = ((-1.0) ** n / math.factorial(n)) * z ** (n - 1) * np.log(z)
    else:
        out = math.pi / (math.sin(math.pi * alpha) * _gamma(alpha)) * z ** (
            alpha - 1.0
        )
    return complex(out) if np.ndim(z) == 0 else out


def F_alpha_boundary(alpha: float, y, eps: float) -> complex:
    """F_alpha evaluated at the boundary approach z = eps + i y."""
    if eps <= 0:
        raise ValueError("boundary evaluation needs eps > 0")
    return F_alpha(alpha, eps + 1j * np.asarray(y, dtype=float))


def alpha_grid(dim: int, j_max: int = 3) -> np.ndarray:
    """Candidate singular orders (d-1)/2 + j - l joined with the pole stack 1 - l."""
    vals = set()
    for j in range(j_max + 1):
        for l in range(dim):
            vals.add((dim - 1) / 2.0 + j - l)
    for l in range(1, dim + 1):
        vals.add(1.0 - l)
    return np.array(sorted(vals))


def predicted_lines(dim: int, beta: Optional[spectrum.TwistForm],
                    y_max: float) -> np.ndarray:
    """Sorted candidate singular locations kappa |xi - beta0| up to y_max."""
    kappa, _ = spectral_constants(dim)
    beta0 = np.zeros(dim) if beta is None else beta.beta0
    r = int(math.ceil((y_max / kappa + np.linalg.norm(beta0))) ) + 1
    xi = spectrum._lattice_box(dim, r)
    rho = kappa * np.linalg.norm(xi - beta0, axis=1)
    rho = np.unique(np.round(rho[rho <= y_max + 1e-9], 12))
    return rho


def _head_boundary_values(lengths, weights, eps_ladder, y_grid):
    """Z(eps_k + i y) for every ladder point, chunked over the y grid."""
    n_eps = len(eps_ladder)
    damp = [weights * np.exp(-e * lengths) for e in eps_ladder]
    out = np.empty((n_eps, y_grid.size), dtype=complex)
    step = max(1, int(2_000_000 // max(lengths.size, 1)))
    for start in range(0, y_grid.size, step):
        sl = slice(start, min(start + step, y_grid.size))
        phase = np.exp(-1j * np.outer(y_grid[sl], lengths))
        for k in range(n_eps):
            out[k, sl] = phase @ damp[k]
    return out


def _smooth_laplace(rho: np.ndarray, T: float, s: np.ndarray) -> np.ndarray:
    """integral_0^T rho'(t) e^{-st} dt by the exact power recurrence."""
    decay = np.exp(-s * T)
    acc = np.zeros_like(s, dtype=complex)
    term = (1.0 - decay) / s  # I_1
    for k in range(1, rho.size + 1):
        acc += rho[k - 1] * term
        term = (k * term - T**k * decay) / s  # I_{k+1}
    return acc


def _peak_indices(mag: np.ndarray, max_peaks: int = 16) -> list:
    # scipy.signal is imported here, not at module level: it is about half of
    # the package's import time and only the singularity scan needs it.
    from scipy.signal import find_peaks

    raw, props = find_peaks(mag, prominence=0.0)
    floor = 2.0 * float(np.median(mag))
    idx = [
        int(i)
        for i, prom in zip(raw, props["prominences"])
        if mag[i] > floor and prom >= 0.15 * mag[i]
    ]
    if mag.size > 1 and mag[0] > mag[1] and mag[0] > floor:
        idx.insert(0, 0)
    idx.sort(key=lambda i: -mag[i])
    return sorted(idx[:max_peaks])


def singularity_scan(
    model: ZetaModel,
    beta: Optional[spectrum.TwistForm] = None,
    eps_ladder: Optional[Sequence[float]] = None,
    y_grid: Optional[np.ndarray] = None,
) -> list:
    """Locate and classify boundary singularities of the Poincare series.

    Peaks of |Z(eps_min + iy)| over the y grid are refitted along the eps
    ladder: the log-log slope p picks the nearest model order alpha with
    p = alpha - 1, and a matched filter against F_alpha recovers the
    coefficient.  The ladder must resolve the head truncation:
    min(eps) * T >= 6 keeps the discarded tail below the fit noise.
    """
    if beta is None:
        beta = model.beta
    if eps_ladder is None:
        # keep the fluctuation floor e^{-eps T} well under the weakest peaks
        lo = max(2e-2, 9.0 / model.spec.T)
        eps_ladder = np.geomspace(1e-1, lo, 8)
    eps_ladder = np.asarray(sorted(eps_ladder, reverse=True), dtype=float)
    if eps_ladder[-1] < _EPS_FLOOR or eps_ladder[0] > 0.5:
        raise ValueError("eps ladder must lie in [1e-3, 0.5]")
    if eps_ladder[-1] * model.spec.T < 6.0:
        raise ValueError("head too short for the requested ladder (need eps*T >= 6)")
    if y_grid is None:
        y_grid = np.linspace(0.0, 3.2, 641)
    y_grid = np.asarray(y_grid, dtype=float)

    lengths = model.spec.lengths
    if beta is model.beta or (
        beta is None and model.beta is None
    ):
        weights = model.spec.phases
    else:
        weights = _phase_weights(model.spec, beta)
    values = _head_boundary_values(lengths, weights, eps_ladder, y_grid)
    s_mat = eps_ladder[:, None] + 1j * y_grid[None, :]
    # deflate the truncated Laplace transform of the smooth density: this
    # removes the pole stack at y = 0 together with its shoulder, leaving
    # the spectral lines standing on the fluctuation floor
    deflated = values - _smooth_laplace(model.rho, model.spec.T, s_mat)
    # truncation ripples move when the head is shortened; genuine peaks
    # persist, so detect on the pointwise minimum of both magnitudes
    n_trunc = int(np.searchsorted(lengths, 0.85 * model.spec.T))
    short = _head_boundary_values(
        lengths[:n_trunc], weights[:n_trunc], eps_ladder[-1:], y_grid
    ) - _smooth_laplace(model.rho, 0.85 * model.spec.T, s_mat[-1:])
    detect = np.minimum(np.abs(deflated[-1]), np.abs(short[0]))

    d = model.dim
    grid = alpha_grid(d)
    lines = predicted_lines(d, beta, float(y_grid[-1]) + 1.0)
    log_eps = np.log(eps_ladder)

    def classify(y0, z):
        log_mag = np.log(np.abs(z))
        (slope, _), cov = np.polyfit(log_eps, log_mag, 1, cov=True)
        sd = math.sqrt(max(float(cov[0, 0]), 0.0))
        res = np.abs(slope - (grid - 1.0))
        order = np.argsort(res)
        if res[order[0]] > 0.35:
            return None
        if res[order[1]] < 2.0 * res[order[0]]:
            raise FitAmbiguous(
                f"peak at y = {y0:.4f}: orders {grid[order[0]]} and "
                f"{grid[order[1]]} fit within a factor 2"
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
            exponent_ci=(float(slope - 2 * sd), float(slope + 2 * sd)),
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
        stack = classify(0.0, values[:, 0].copy())
        if stack is not None:
            fits.append(stack)

    accepted = []
    for i in sorted(_peak_indices(detect, max_peaks=16), key=lambda k: -detect[k]):
        if y_grid[i] == 0.0:
            continue
        y0 = float(y_grid[i])
        z = deflated[:, i].copy()
        for yj, aj, cj in accepted:
            z -= cj * F_alpha(aj, eps_ladder + 1j * (y0 - yj))
        fit = classify(y0, z)
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
    if dim == 5:
        qp = window.odd_part_deriv(rho)
        return 8j * math.pi**3 * (qp / rho - q / rho**2) / rho
    raise ValueError("crystalline pairing implemented for d in {3, 5}")


def _point_location(body: convex.SupportBody) -> np.ndarray:
    e1 = np.zeros(body.dim)
    e1[0] = 1.0
    return body.grad(e1[None, :])[0]


def guinand_pairing(
    spec_fwd: spectrum.LengthSpectrum,
    spec_bwd: spectrum.LengthSpectrum,
    beta: Optional[spectrum.TwistForm],
    window: GaussianWindow,
    m_radius: Optional[int] = None,
) -> GuinandResult:
    """Pair the two-sided length measure against the dual spectral comb.

    length_side = sum_fwd phase phihat(l)/l - sum_bwd conj(phase) phihat(-l)/l;
    spectral_side = e^{i(f(y)-f(x))} (2 pi)^{-d} sum_m e^{i m.(y-x)}
    ghat(|kappa m - beta0|).  Exact for point bodies in odd dimensions.
    """
    for sp in (spec_fwd, spec_bwd):
        if not (sp.body1.is_point and sp.body2.is_point):
            raise ValueError("the exact pairing needs point bodies")
        if sp.T0 != 0.0:
            raise ValueError("spectra must be enumerated from T0 = 0")
    d = spec_fwd.dim
    if d % 2 == 0:
        raise ValueError("the pairing identity is implemented for odd d")
    T = min(spec_fwd.T, spec_bwd.T)
    mass = math.exp(-0.5 * window.width**2 * T**2)
    if mass > _MASS_TOL:
        raise TruncationTooSmall(
            f"window mass {mass:.2e} beyond T = {T}; enumerate further or widen"
        )
    x = _point_location(spec_fwd.body1)
    y = _point_location(spec_fwd.body2)
    bx = _point_location(spec_bwd.body1)
    by = _point_location(spec_bwd.body2)
    reversed_pair = (
        np.allclose(bx, y, atol=1e-12) and np.allclose(by, x, atol=1e-12)
    )
    if spec_bwd.orient == spec_fwd.orient and not reversed_pair:
        raise ValueError("spec_bwd must reverse spec_fwd (swap bodies or orientation)")

    wf = _phase_weights(spec_fwd, beta)
    wb = _phase_weights(spec_bwd, beta)
    lf, lb = spec_fwd.lengths, spec_bwd.lengths
    length_side = complex(
        np.sum(wf * window.transform(lf) / lf)
        - np.sum(np.conj(wb) * window.transform(-lb) / lb)
    )

    kappa, _ = spectral_constants(d)
    beta0 = np.zeros(d) if beta is None else beta.beta0
    if m_radius is None:
        reach = (window.center + 12.0 * window.width) / kappa + np.linalg.norm(beta0)
        m_radius = int(math.ceil(reach)) + 1
    m = spectrum._lattice_box(d, m_radius)
    rho = np.linalg.norm(kappa * m - beta0, axis=1)
    keep = np.abs(rho - window.center) <= 12.0 * window.width + window.center
    m, rho = m[keep], rho[keep]
    v = y - x
    fphase = _f_phase(beta, x, y)
    comb = np.exp(1j * (m @ v)) * _ghat_radial(d, rho, window)
    spectral_side = complex(fphase * (2 * math.pi) ** (-d) * np.sum(comb))
    lines = np.unique(np.round(rho, 12))
    return GuinandResult(
        length_side=length_side,
        spectral_side=spectral_side,
        lines=tuple(float(r) for r in lines[np.argsort(np.abs(lines - window.center))][:8]),
        truncation_mass=mass,
    )


# ---------------------------------------------------------------------------
# tables


def values_to_csv(path, s_values, values) -> None:
    """(s_re, s_im, value_re, value_im) rows with repr floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["s_re", "s_im", "value_re", "value_im"])
        for s, v in zip(s_values, values):
            s, v = complex(s), complex(v)
            wr.writerow([repr(s.real), repr(s.imag), repr(v.real), repr(v.imag)])


def residues_to_json(path, estimates) -> None:
    rows = [
        {
            "pole": est.pole,
            "residue_re": est.residue.real,
            "residue_im": est.residue.imag,
            "err": est.error,
            "predicted_from_volumes": est.predicted_from_volumes,
        }
        for est in estimates
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
