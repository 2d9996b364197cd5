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
    "alpha_grid",
    "singularity_scan",
    "predicted_lines",
    "guinand_pairing",
]

_POLE_TOL = 1e-8
_EPS_FLOOR = 1e-3
_BLOCK_ENTRIES = 2_000_000  # complex entries of one phase block
_ANCHOR_ROWS = 64           # rows rotated from one exact exponential
_TAIL_REL = 1e-6
_MASS_TOL = 1e-12
_CF_FROM = 2.0   # erfcx takes its continued fraction from here on,
_CF_TERMS = 60   # at a depth that converges to an ulp there
_J_MAX = 3       # line orders run up to (d-1)/2 + _J_MAX
_MAX_PEAKS = 16  # peaks refitted by one singularity scan

_erfc = np.vectorize(math.erfc, otypes=[float])


class PoleHit(Exception):
    """Continuation requested within 1e-8 of a pole."""


class TailDominates(Exception):
    """The reported tail bound exceeds 1e-6 of the partial sum."""


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
        if not self.width > 0:
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

    rho[k-1] is the coefficient of t^{k-1} in the smooth counting density,
    taken from steiner, the Steiner data of the difference body; the
    spectrum extends to T * max(sweep) so the splice point can be swept
    for stability error bars.  The twist is the spectrum's own, spec.beta.
    """

    spec: spectrum.LengthSpectrum
    rho: np.ndarray
    T: float
    sweep: tuple
    steiner: convex.SteinerData

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
    weighted: tuple = ()
    empirical: tuple = ()
    deviation: float = 0.0


@dataclass(frozen=True)
class GuinandResult:
    length_side: complex
    spectral_side: complex
    lines: tuple
    truncation_mass: float


def _default_T(dim: int) -> float:
    """The head length T of build_zeta_model when none is given: 60 pi / dim."""
    return 30.0 * 2.0 * math.pi / dim


def build_zeta_model(
    K1: convex.SupportBody,
    K2: convex.SupportBody,
    beta: Optional[spectrum.TwistForm] = None,
    T: Optional[float] = None,
    T0: Optional[float] = None,
    workers: int = 1,
    sweep: Sequence[float] = (1.0, 2.0, 4.0),
) -> ZetaModel:
    """Enumerate the spectrum to T * max(sweep) and attach the tail density."""
    d = K1.dim
    if T is None:
        T = _default_T(d)
    sweep = _sweep_factors(sweep)
    spec = spectrum.enumerate(K1, K2, T0=T0, T=T * sweep[-1], beta=beta, workers=workers)
    steiner = convex.steiner(spectrum.difference_body(K1, K2))
    rho = spectrum._density_from_steiner(steiner)
    lead = _ball_density(d, d)
    if abs(rho[-1] - lead) > 1e-8 * lead:
        raise ValueError("tail density leading coefficient fails the sphere check")
    return ZetaModel(spec=spec, rho=np.asarray(rho, dtype=float), T=float(T),
                     sweep=sweep, steiner=steiner)


def _sweep_factors(sweep: Sequence[float]) -> tuple:
    """The sweep factors, sorted; a ValueError unless there are some, all finite and >= 1."""
    sweep = tuple(sorted(float(f) for f in sweep))
    if not sweep or not all(1.0 <= f < math.inf for f in sweep):
        raise ValueError("sweep factors must be finite and >= 1")
    return sweep


def _ball_density(ell: int, d: int) -> float:
    """ell omega_ell / (2 pi)^d, omega_ell the volume of the unit ell-ball.

    The counting-density coefficient of t^{ell-1} per unit intrinsic volume
    V_{d-ell} of the difference body.
    """
    return ell * math.pi ** (ell / 2.0) / ((2 * math.pi) ** d * math.gamma(ell / 2.0 + 1.0))


def _require_untwisted(model: ZetaModel, what: str) -> None:
    if not model.spec.beta.is_zero:
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
    if not np.min(np.abs(s - k)) >= _POLE_TOL:
        raise PoleHit(f"s = {s} sits on a pole of the continued zeta")
    T = _check_factor(model, factor)
    lengths, phases = model.head(factor)
    head = np.sum(phases * np.exp(-s * np.log(lengths)))
    tail = np.sum(model.rho * T ** (k - s) / (s - k))
    return complex(head + tail)


def _counting_fit(model: ZetaModel):
    """Least-squares polynomial residues from the phase-weighted counting data.

    Returns per-sweep-factor arrays of fitted residues ell * c_ell from
    N_beta(T') ~ sum c_k T'^k + c_0 over T' in [T0 + 1, factor * T].
    """
    lengths, w = model.spec.lengths, model.spec.phases
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
    d = model.dim
    intrinsic = model.steiner.intrinsic
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


def _weighted_density_residues(model: ZetaModel):
    """Quadrature of the curvature moments weighted by the holonomy of spec.beta.

    For an integer-representative beta0 the per-direction weight is the
    holonomy from the start foot along -x_L(theta), which ends on the other
    foot: exp(i [ -beta0 . x_L(theta) + f(end) - f(start) ]).  The weighted
    residue at s = ell is (2 pi)^{-d} int w(theta) a_{ell-1}(theta) dsigma.
    """
    spec = model.spec
    L = spectrum.difference_body(spec.body1, spec.body2)
    d = model.dim
    g = spherequad.grid(d, 64 if d == 2 else 32)
    theta = g.nodes
    coeffs = convex._area_coeffs(L, theta)
    start = spec.body1.grad(theta)
    w = spec.beta.holonomy(start, -L.grad(theta))
    scale = (2 * math.pi) ** (-d)
    return np.array([scale * np.sum(g.weights * w * coeffs[:, j])
                     for j in range(d)])


def twist_suppression(model: ZetaModel) -> TwistReport:
    """Certify the loss of the leading counting term under the model's twist.

    For beta0 without integer representative: |N_beta(t)| / t^d on the
    ladder t = (0.25, 0.5, 1) * T, T the window end of the spectrum,
    certified when the ratios decrease and the last sits below a quarter of
    the untwisted level.  For integer beta0 (including the
    f-only case): weighted residues by quadrature against the empirical
    counting fit.
    """
    spec = model.spec
    d = model.dim
    if not spec.beta.is_integer:
        t_ladder = tuple(float(spec.T * f) for f in (0.25, 0.5, 1.0))
        ratios = tuple(
            abs(spectrum.counting_weighted(spec, t)) / t**d
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
    weighted = _weighted_density_residues(model)
    fits = _counting_fit(model)
    emp = fits[-1]
    dev = float(np.max(np.abs(emp - weighted)))
    lead_scale = float(model.rho[-1])
    return TwistReport(
        mode="weighted",
        certified=bool(abs(emp[-1] - weighted[-1]) <= 0.05 * lead_scale),
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
    if not bound <= _TAIL_REL * abs(value):
        raise TailDominates(
            f"tail bound {bound:.3e} exceeds {_TAIL_REL:.0e} of |{value:.6e}|"
        )
    return value


def poincare_tail_bound(model: ZetaModel, s: complex) -> float:
    """integral_T^inf exp(-Re(s) t) rho'(t) dt via incomplete gamma."""
    sig = complex(s).real
    if sig <= 0:
        raise ValueError("tail bound needs Re(s) > 0")
    terms = [
        model.rho[k - 1] * math.factorial(k - 1) * sig ** -k * _gammaincc(k, sig * model.T)
        for k in range(1, model.dim + 1)
    ]
    return float(np.sum(terms))


def _erfcx(x: np.ndarray) -> np.ndarray:
    """e^{x^2} erfc(x) for x >= 0, to a few ulps.

    The product itself below _CF_FROM; from there on the continued fraction
    1 / (sqrt(pi) (x + (1/2) / (x + 1 / (x + (3/2) / (x + ...))))) at a
    fixed depth, since e^{x^2} loses x^2 ulps and erfc(x) underflows past
    x = 26.5.
    """
    x = np.asarray(x, dtype=float)
    near = x < _CF_FROM
    xn = np.where(near, x, 0.0)
    xf = np.where(near, _CF_FROM, x)
    f = xf
    for k in range(_CF_TERMS, 0, -1):
        f = xf + 0.5 * k / f
    return np.where(near, np.exp(xn * xn) * _erfc(xn), 1.0 / (math.sqrt(math.pi) * f))


def _gammaincc(p: float, x) -> np.ndarray:
    """Regularized upper incomplete gamma Q(p, x) for p = 1/2, 1, 3/2, ...

    Upward from Q(1, x) = e^{-x} or Q(1/2, x) = erfc(sqrt(x)) by
    Q(a + 1, x) = Q(a, x) + x^a e^{-x} / Gamma(a + 1), a sum of positive terms.
    """
    if p < 0.5 or 2.0 * p != round(2.0 * p):
        raise ValueError("p must be a positive multiple of 1/2")
    x = np.asarray(x, dtype=float)
    ex = np.exp(-x)
    a = 1.0 if p == round(p) else 0.5
    q = ex if a == 1.0 else _erfc(np.sqrt(x))
    while a < p:
        q = q + x**a * ex / math.gamma(a + 1.0)
        a += 1.0
    return q


def _H_theta(a: float, b: np.ndarray) -> np.ndarray:
    """int_0^1 tau^{-1/2} exp(-a tau - b / tau) dtau for a > 0, b >= 0.

    It equals (1/2) sqrt(pi/a) [erfc(sb - sa) e^{-2 sa sb} - erfc(sa + sb)
    e^{2 sa sb}] with sa = sqrt(a), sb = sqrt(b).  Each term is taken as
    erfcx(x) e^{-a} e^{-b}, which neither overflows nor loses the exponent
    to rounding; only the first term at sb < sa keeps its erfc form, where
    erfc lies in (1, 2] and e^{(sb - sa)^2} could overflow.
    """
    sa, sb = math.sqrt(a), np.sqrt(b)
    x = sb - sa
    e_ab = np.exp(-a) * np.exp(-b)
    first = np.where(
        x < 0.0,
        _erfc(np.minimum(x, 0.0)) * np.exp(-2.0 * sa * sb),
        _erfcx(np.maximum(x, 0.0)) * e_ab,
    )
    return 0.5 * math.sqrt(math.pi / a) * (first - _erfcx(sa + sb) * e_ab)


def _ewald_dual_sum(s: float, u: np.ndarray, beta0: np.ndarray, dim: int) -> complex:
    """sum_m e^{i m.u} (s^2 + |m + beta0|^2)^{-(dim+1)/2}, s real > 0.

    Ewald split: incomplete-gamma lattice part plus theta-transformed image
    part with an erfcx-stable kernel; both truncations superexponential.
    """
    p = (dim + 1) / 2.0
    m = spectrum._lattice_box(dim, 8)
    A = s**2 + np.sum((m + beta0) ** 2, axis=1)
    lattice = np.sum(np.exp(1j * (m @ u)) * A ** (-p) * _gammaincc(p, A))
    n = spectrum._lattice_box(dim, 4)
    w = u - 2.0 * math.pi * n
    b = np.sum(w**2, axis=1) / 4.0
    phases = np.exp(-1j * (w @ beta0))
    images = math.pi ** (dim / 2.0) / math.gamma(p) * np.sum(phases * _H_theta(s**2, b))
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


def _f_phase(beta: spectrum.TwistForm, x: np.ndarray, y: np.ndarray) -> complex:
    """exp(i (f(y) - f(x))): the exact part df of the twist, from x to y."""
    return complex(np.exp(1j * (beta.f_eval(y[None, :]) - beta.f_eval(x[None, :])))[0])


def poincare_points_spectral(
    x,
    y,
    beta: spectrum.TwistForm,
    s: float,
) -> complex:
    """Dual-lattice form of the two-point Poincare series, for real s > 0.

    c_d e^{i(f(y)-f(x))} s sum_xi e^{i xi.(x-y)} (s^2 + |xi+beta0|^2)^{-(d+1)/2},
    the full sum evaluated by an Ewald split, exact to near machine precision.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.size
    u = x - y
    wrapped = u - 2 * math.pi * np.round(u / (2 * math.pi))
    if np.linalg.norm(wrapped) < 1e-9:
        raise ValueError("x and y must differ modulo 2 pi Z^d")
    fphase = _f_phase(beta, x, y)
    _, c_d = spectral_constants(d)
    s = complex(s)
    if abs(s.imag) > 0 or s.real <= 0:
        raise ValueError("the exact Ewald path needs real s > 0")
    dual = _ewald_dual_sum(s.real, u, beta.beta0, d)
    return complex(fphase * c_d * s * dual)


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
        out = math.gamma(1.0 - alpha) * z ** (alpha - 1.0)
    elif near_int:
        n = int(round(alpha))
        out = ((-1.0) ** n / math.factorial(n)) * z ** (n - 1) * np.log(z)
    else:
        out = math.pi / (math.sin(math.pi * alpha) * math.gamma(alpha)) * z ** (
            alpha - 1.0
        )
    return complex(out) if np.ndim(z) == 0 else out


def _line_orders(dim: int) -> np.ndarray:
    """Singular orders (d-1)/2 + j - l, j <= _J_MAX, l < d, of the lines off y = 0."""
    return np.unique([(dim - 1) / 2.0 + j - l
                      for j in range(_J_MAX + 1) for l in range(dim)])


def alpha_grid(dim: int) -> np.ndarray:
    """Candidate singular orders: the line orders joined with the y = 0 pole stack 1 - l."""
    return np.union1d(_line_orders(dim), 1.0 - np.arange(1, dim + 1))


def predicted_lines(beta: spectrum.TwistForm, y_max: float) -> np.ndarray:
    """Sorted candidate singular locations |xi - beta0| up to y_max."""
    beta0 = beta.beta0
    r = int(math.ceil(y_max + np.linalg.norm(beta0))) + 1
    xi = spectrum._lattice_box(beta.dim, r)
    rho = np.linalg.norm(xi - beta0, axis=1)
    rho = np.unique(np.round(rho[rho <= y_max + 1e-9], 12))
    return rho


def _head_boundary_values(lengths, damp, y_grid):
    """sum_k damp[k, c] exp(-i y_j l_k) as a (y_grid.size, n_columns) matrix.

    A uniform grid is walked in blocks of _ANCHOR_ROWS rows: the first row of
    a block is the exact exponential and each further row is the previous one
    times exp(-i dy l); the re-anchoring keeps rounding from drifting.  Any
    other grid runs the same loop with one exact row per block.  Lengths are
    cut into chunks so that no block exceeds _BLOCK_ENTRIES entries.
    """
    n_y = y_grid.size
    out = np.zeros((n_y, damp.shape[1]), dtype=complex)
    dy = (y_grid[-1] - y_grid[0]) / max(n_y - 1, 1)
    # linspace rounds each node to within a few ulps of y_0 + j dy
    drift = np.abs(y_grid - (y_grid[0] + dy * np.arange(n_y)))
    uniform = n_y > 1 and drift.max() <= 4.0 * np.spacing(np.abs(y_grid).max())
    rows = _ANCHOR_ROWS if uniform else 1
    width = _BLOCK_ENTRIES // rows
    for c0 in range(0, lengths.size, width):
        ell = lengths[c0:c0 + width]
        phase = np.empty((rows, ell.size), dtype=complex)
        rot = np.exp(-1j * dy * ell) if uniform else None
        for r0 in range(0, n_y, rows):
            n = min(rows, n_y - r0)
            np.exp(-1j * y_grid[r0] * ell, out=phase[0])
            for k in range(1, n):
                np.multiply(phase[k - 1], rot, out=phase[k])
            out[r0:r0 + n] += phase[:n] @ damp[c0:c0 + width]
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
    return sorted(idx[:_MAX_PEAKS])


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

    The head is summed once for all ladder points and the 0.85 T short head
    together, as one matrix product per block of y rows.  On a uniform y
    grid a block holds 64 rows: its first row is the exact exp(-i y l) and
    the others follow by the phase rotation exp(-i dy l), so exp runs once
    per length per 64 rows.  Any other grid takes the exact exponential on
    every row.
    """
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
    # one column per ladder point, then the short head: truncation ripples
    # move when the head is shortened while genuine peaks persist
    n_eps = eps_ladder.size
    ladder = np.append(eps_ladder, eps_ladder[-1])
    damp = model.spec.phases[:, None] * np.exp(-np.outer(lengths, ladder))
    damp[np.searchsorted(lengths, 0.85 * model.spec.T):, n_eps] = 0.0
    boundary = _head_boundary_values(lengths, damp, y_grid).T
    values = boundary[:n_eps]
    s_mat = eps_ladder[:, None] + 1j * y_grid[None, :]
    # deflate the truncated Laplace transform of the smooth density: this
    # removes the pole stack at y = 0 together with its shoulder, leaving
    # the spectral lines standing on the fluctuation floor
    deflated = values - _smooth_laplace(model.rho, model.spec.T, s_mat)
    short = boundary[n_eps] - _smooth_laplace(model.rho, 0.85 * model.spec.T, s_mat[-1])
    # detect on the pointwise minimum of the full and short magnitudes
    detect = np.minimum(np.abs(deflated[-1]), np.abs(short))
    # a NaN phase or density coefficient leaves no peak to find, not no singularity
    if not np.all(np.isfinite(detect)):
        raise FitAmbiguous("the detection magnitudes are not all finite")

    d = model.dim
    lines = predicted_lines(model.spec.beta, float(y_grid[-1]) + 1.0)
    log_eps = np.log(eps_ladder)

    def classify(y0, z, grid):
        log_mag = np.log(np.abs(z))
        (slope, _), cov = np.polyfit(log_eps, log_mag, 1, cov=True)
        sd = math.sqrt(max(float(cov[0, 0]), 0.0))
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
        stack = classify(0.0, values[:, 0].copy(), alpha_grid(d))
        if stack is not None:
            fits.append(stack)

    accepted = []
    line_orders = _line_orders(d)
    for i in sorted(_peak_indices(detect), key=lambda k: -detect[k]):
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
    window: GaussianWindow,
) -> GuinandResult:
    """Pair the two-sided length measure against the dual spectral comb.

    length_side = sum_fwd phase phihat(l)/l - sum_bwd conj(phase) phihat(-l)/l;
    spectral_side = e^{i(f(y)-f(x))} (2 pi)^{-d} sum_m e^{i m.(y-x)}
    ghat(|m - beta0|).  spec_bwd is the spectrum of the swapped pair, from
    body2 back to body1, and both spectra must carry the same twist beta,
    whose phases they hold.  Exact for point bodies in odd dimensions.
    """
    for sp in (spec_fwd, spec_bwd):
        if not (sp.body1.is_point and sp.body2.is_point):
            raise ValueError("the exact pairing needs point bodies")
        if sp.T0 != 0.0:
            raise ValueError("spectra must be enumerated from T0 = 0")
    x = _point_location(spec_fwd.body1)
    y = _point_location(spec_fwd.body2)
    if not (np.allclose(_point_location(spec_bwd.body1), y, atol=1e-12)
            and np.allclose(_point_location(spec_bwd.body2), x, atol=1e-12)):
        raise ValueError("spec_bwd must be the spectrum of spec_fwd's swapped pair")
    beta = spec_fwd.beta
    if beta != spec_bwd.beta:
        raise ValueError("spec_fwd and spec_bwd were enumerated under different twists")
    d = spec_fwd.dim
    if d % 2 == 0:
        raise ValueError("the pairing identity is implemented for odd d")
    T = min(spec_fwd.T, spec_bwd.T)
    mass = math.exp(-0.5 * window.width**2 * T**2)
    if not mass <= _MASS_TOL:
        raise TruncationTooSmall(
            f"window mass {mass:.2e} beyond T = {T}; enumerate further or widen"
        )

    lf, lb = spec_fwd.lengths, spec_bwd.lengths
    length_side = complex(
        np.sum(spec_fwd.phases * window.transform(lf) / lf)
        - np.sum(np.conj(spec_bwd.phases) * window.transform(-lb) / lb)
    )

    beta0 = beta.beta0
    reach = window.center + 12.0 * window.width + np.linalg.norm(beta0)
    m = spectrum._lattice_box(d, int(math.ceil(reach)) + 1)
    rho = np.linalg.norm(m - beta0, axis=1)
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
