"""Geodesic-flow correlations, anisotropic norms, and equidistribution.

Band-limited observables on the unit sphere bundle decompose into finitely
many torus modes xi with spherical amplitudes; the flow acts per mode as a
dilated oscillatory integral, so correlation asymptotics reduce to the
two-pole stationary phase of the sphere.  Dilated convex boundaries
equidistribute at the same rate: each torus mode xi of the observable
contributes one oscillatory sphere integral I(xi) of the area element of the
support parametrization, with the support point x_K as phase shift, and
I(-xi) = conj I(xi).  ``correlation`` and ``equidistribute`` take a whole t
grid, one spherequad.osc_integral call per mode.  Every sphere integral here
except the boundary mass and those of the anisotropic norms passes the
order-doubling check of osc_integral; the mass I(0) is the polynomial in t
of the Steiner surface moments, which pass the doubling check of
convex.steiner.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from . import spherequad

if TYPE_CHECKING:  # equidistribute imports convex inside its body
    from . import convex

__all__ = [
    "TorusObservable",
    "AnisoParams",
    "EquidistResult",
    "correlation",
    "correlation_expansion",
    "aniso_norm",
    "equidistribute",
]

_REALITY_TOL = 1e-10
_MODE_MATCH_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TorusObservable:
    """Finitely many torus modes xi with amplitudes on the sphere.

    Amplitudes are complex scalars (x-only observables) or callables taking
    (n, d) direction arrays.  With real=True the Hermitian pairing
    amp(-xi) = conj(amp(xi)) is validated on a probe grid.
    """

    dim: int
    modes: tuple  # sorted ((xi tuple), scalar or callable) pairs
    real: bool = False

    def __init__(self, dim: int, modes: Mapping, real: bool = False):
        d = int(dim)
        clean = {}
        for k, v in modes.items():
            key = tuple(int(c) for c in k)
            if len(key) != d:
                raise ValueError(f"mode frequency {key} has wrong dimension")
            clean[key] = v if callable(v) else complex(v)
        if real:
            probe = spherequad.grid(d, 8).nodes
            for key, v in clean.items():
                neg = tuple(-c for c in key)
                if neg not in clean:
                    raise ValueError(f"real observable misses the mode {neg}")
                a = np.asarray(spherequad._sphere_fn(v)(probe))
                b = np.asarray(spherequad._sphere_fn(clean[neg])(probe))
                if np.max(np.abs(np.conj(a) - b)) > _REALITY_TOL:
                    raise ValueError(f"reality pairing fails at frequency {key}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "modes", tuple(sorted(clean.items())))
        object.__setattr__(self, "real", bool(real))

    @property
    def frequencies(self) -> list:
        return [k for k, _ in self.modes]

    @property
    def x_only(self) -> bool:
        return all(not callable(v) for _, v in self.modes)

    def amplitude(self, xi):
        """The amplitude of mode xi as given: a complex constant or a callable; 0 if absent."""
        return dict(self.modes).get(tuple(int(c) for c in xi), 0j)


@dataclass(frozen=True)
class AnisoParams:
    """Parameters of the anisotropic mode-weighted Sobolev norm."""

    s0: int
    s1: int
    N0: float
    N1: float
    gamma: tuple
    width: float = 0.2

    def __post_init__(self):
        for name in ("s0", "s1"):
            s = getattr(self, name)
            if isinstance(s, bool) or not isinstance(s, numbers.Real) or s % 1 != 0 or s < 0:
                raise ValueError(f"Sobolev order {name} = {s!r} is not a nonnegative integer")
            object.__setattr__(self, name, int(s))
        if not all(math.isfinite(x) for x in (self.N0, self.N1, *self.gamma)):
            raise ValueError("N0, N1 and gamma must be finite")
        if not 0.0 < self.width < 1.0:
            raise ValueError("cutoff width must lie in (0, 1)")


@dataclass(frozen=True)
class EquidistResult:
    """Boundary averages, their distance from the torus mean, and the largest
    order-doubling change over the mode integrals; arrays over an array t."""

    average: complex | np.ndarray
    error: complex | np.ndarray
    error_estimate: float | np.ndarray


# ---------------------------------------------------------------------------
# correlations


def _pair_product(phi: TorusObservable, psi: TorusObservable, xi):
    """phihat_xi psihat_{-xi}: a constant when both amplitudes are, else a callable."""
    f = phi.amplitude(xi)
    g = psi.amplitude(tuple(-c for c in xi))
    if not (callable(f) or callable(g)):
        return f * g
    f, g = spherequad._sphere_fn(f), spherequad._sphere_fn(g)

    def product(theta: np.ndarray):
        return np.asarray(f(theta), dtype=complex) * np.asarray(g(theta), dtype=complex)

    return product


def _pair_keys(phi: TorusObservable, psi: TorusObservable) -> list:
    """The modes xi of phi and -xi of psi, sorted: the terms of the pairing."""
    return sorted(set(phi.frequencies) | set(tuple(-c for c in k) for k in psi.frequencies))


def _mode_integral(phi: TorusObservable, psi: TorusObservable, key, beta0, t):
    """The checked sphere integral of one mode of the correlation, at a scalar or array t."""
    return spherequad.osc_integral(
        phi.dim, F=_pair_product(phi, psi, key), xi=np.asarray(key, dtype=float),
        beta0=beta0, t=t,
    ).value


def correlation(
    phi: TorusObservable,
    psi: TorusObservable,
    beta0,
    t,
):
    """sum_xi integral of phihat_xi psihat_{-xi} e^{i t (xi - beta0).theta}.

    The pairing of the flowed observable against psi reduces per mode to an
    oscillatory sphere integral, one osc_integral call over the whole t grid
    (a scalar t gives a complex value, a 1-D array an array).  The modes are
    summed in sorted order.
    """
    if phi.dim != psi.dim:
        raise ValueError("observable dimensions differ")
    beta0 = np.asarray(beta0, dtype=float)
    vals = [_mode_integral(phi, psi, k, beta0, t) for k in _pair_keys(phi, psi)]
    total = sum(vals, np.zeros(np.shape(t), dtype=complex))
    return complex(total) if np.ndim(t) == 0 else total


def correlation_expansion(
    phi: TorusObservable,
    psi: TorusObservable,
    beta0,
    t: float,
) -> complex:
    """Leading two-pole asymptotics of the twisted correlation.

    E_beta0 + (2 pi)^{(d-1)/2} sum_{xi,+-} e^{+-i(t lam - pi(d-1)/4)}
    (t lam)^{-(d-1)/2} phihat_xi(+-omega) psihat_{-xi}(+-omega) with
    lam = |xi - beta0|, the spherequad.stationary_phase value of each mode's
    amplitude product; a mode sitting exactly at beta0 contributes its
    constant sphere pairing instead.
    """
    if t <= 0:
        raise ValueError("the expansion needs t > 0")
    d = phi.dim
    beta0 = np.asarray(beta0, dtype=float)
    keys = _pair_keys(phi, psi)
    total = 0.0 + 0.0j
    for key in keys:
        lam = float(np.linalg.norm(np.asarray(key, dtype=float) - beta0))
        if lam < _MODE_MATCH_TOL:
            total += _mode_integral(phi, psi, key, beta0, t)
            continue
        total += spherequad.stationary_phase(d, _pair_product(phi, psi, key), key, beta0, t)[0]
    return complex(total)


# ---------------------------------------------------------------------------
# anisotropic norms


def _derivative_energies(dim: int, fn: Callable, order: int) -> tuple:
    """(nodes, weights, [|D^m f|^2 for m = 0..order]) on the sphere S^{dim-1}.

    On the circle D^m is the m-th angular derivative, exact by FFT on 512
    nodes.  In d >= 3 it is the gradient (m = 1) or the Hessian (m = 2, its
    squared Frobenius norm) of the 0-homogeneous extension, by central
    differences with steps 1e-5 and 1e-3 on grid(dim, 48): one stencil of
    1 + 2d + 2d^2 amplitude evaluations at order 2.
    """
    if dim == 2:
        n = 512
        alpha = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        nodes = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        freqs = np.fft.fftfreq(n, d=1.0 / n)
        spec = np.fft.fft(np.asarray(fn(nodes), dtype=complex))
        # differentiation scales mode k by k^m, so sampling roundoff at the top
        # modes would swamp high orders; clip the numerically empty coefficients
        spec[np.abs(spec) < 1e-12 * np.max(np.abs(spec))] = 0.0
        energies = [np.abs(np.fft.ifft(spec * (1j * freqs) ** m)) ** 2
                    for m in range(order + 1)]
        return nodes, np.full(n, 2.0 * math.pi / n), energies
    if order > 2:
        raise ValueError("orders above 2 are supported on the circle only")
    g = spherequad.grid(dim, 48)
    theta, step = g.nodes, np.eye(dim)

    def ev(off):
        pts = theta + off
        return np.asarray(fn(pts / np.linalg.norm(pts, axis=1, keepdims=True)), dtype=complex)

    c = np.asarray(fn(theta), dtype=complex)
    energies = [np.abs(c) ** 2]
    if order >= 1:
        h = 1e-5
        energies.append(sum(np.abs((ev(e) - ev(-e)) / (2.0 * h)) ** 2 for e in h * step))
    if order >= 2:
        h = 1e-3
        hess = np.zeros(theta.shape[0])
        for i, ei in enumerate(h * step):
            hess += np.abs((ev(ei) - 2.0 * c + ev(-ei)) / h**2) ** 2
            for ej in h * step[i + 1:]:
                dij = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (4.0 * h**2)
                hess += 2.0 * np.abs(dij) ** 2
        energies.append(hess)
    return theta, g.weights, energies


def aniso_norm(phi: TorusObservable, p: AnisoParams) -> float:
    """Mode-weighted Sobolev norm with polar caps along each xi - gamma.

    sqrt of sum_xi <xi>^{2 N0} int chi0^2 sum_{m<=s0} |D^m phihat_xi|^2 +
    sum_{xi,+-} <xi>^{2 N1} int chi+-^2 sum_{m<=s1} |D^m phihat_xi|^2, with
    (chi-, chi0, chi+) the partition cutoffs along xi - gamma; a mode with
    xi = gamma has chi0 = 1 and no caps.  Each mode's derivative energies are
    computed once, to the larger order, and the cutoffs only weight them.
    """
    d = phi.dim
    gamma = np.asarray(p.gamma, dtype=float)
    if gamma.size != d:
        raise ValueError("gamma dimension mismatch")
    total = 0.0
    for key, value in phi.modes:
        xi = np.asarray(key, dtype=float)
        v = xi - gamma
        lam = float(np.linalg.norm(v))
        bracket = 1.0 + float(xi @ xi)
        at_gamma = lam < _MODE_MATCH_TOL
        nodes, w, energies = _derivative_energies(
            d, spherequad._sphere_fn(value), p.s0 if at_gamma else max(p.s0, p.s1))
        if at_gamma:
            terms = [(w, p.N0, p.s0)]
        else:
            chi_m, chi_0, chi_p = spherequad.pole_cutoffs(nodes @ (v / lam), p.width)
            terms = [(w * chi_0**2, p.N0, p.s0), (w * chi_p**2, p.N1, p.s1),
                     (w * chi_m**2, p.N1, p.s1)]
        for weights, N, s in terms:
            total += bracket ** N * sum(float(np.sum(weights * e)) for e in energies[: s + 1])
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# equidistribution


def _torus_mean(f: TorusObservable) -> complex:
    """The mean of an x-only observable over the torus: its zero mode."""
    return complex(dict(f.modes).get((0,) * f.dim, 0.0))


def equidistribute(
    K: convex.SupportBody,
    f: TorusObservable,
    t,
) -> EquidistResult:
    """Boundary average of f over the dilated body against its area measure.

    average = int f(x_K(theta) + t theta) P_K(t, theta) dsigma / int P_K =
    mean + sum_{xi != 0} c_xi I(xi) / I(0), with I(xi) the osc_integral of
    P_K(t, .) = sum_j a_j t^j under the phase xi.(t theta + x_K(theta)); error
    = average - mean.  ``t`` is a scalar or a 1-D array, and each mode is one
    osc_integral call over the whole grid, with the columns a_j of
    convex._area_coeffs as its amplitude.  P_K and x_K are real and xi, -xi
    see the same turned nodes, so I(-xi) = conj I(xi) and a +- pair costs one
    integral.  The mass I(0) = sum_j surface_moments[j] t^j comes from
    convex.steiner, which carries its own doubling check; every other I
    passes the order-doubling check of osc_integral, and error_estimate is
    the largest change that check saw over the modes.
    """
    from . import convex
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0):
        raise ValueError("equidistribution needs t > 0")
    if not f.x_only:
        raise ValueError("the boundary average takes an x-only observable")
    d = K.dim
    if f.dim != d:
        raise ValueError("observable dimension mismatch")
    mean = _torus_mean(f)
    zero = (0,) * d
    # one representative per +- pair: the larger of the two frequency tuples
    reps = sorted({max(key, tuple(-c for c in key)) for key in f.frequencies} - {zero})
    reach = K.h_range()[1]  # >= max h = max |x| over K >= |x_K|

    def boundary(key) -> spherequad.OscResult:
        return spherequad.osc_integral(
            d,
            F=lambda nodes: convex._area_coeffs(K, nodes),
            xi=np.asarray(key, dtype=float),
            t=ts,
            xtilde=K.grad,
            xtilde_scale=reach,
        )

    vals = {key: boundary(key) for key in reps}
    mass = (ts[..., None] ** np.arange(d)) @ convex.steiner(K).surface_moments
    err = np.zeros(ts.shape, dtype=complex)
    for key, value in f.modes:
        if key == zero:
            continue
        osc = vals[key].value if key in vals else np.conj(vals[tuple(-c for c in key)].value)
        err = err + complex(value) * osc
    err = err / mass
    estimate = np.max([r.error_estimate for r in vals.values()] + [np.zeros(ts.shape)], axis=0)
    if ts.ndim == 0:
        return EquidistResult(average=complex(mean + err), error=complex(err),
                              error_estimate=float(estimate))
    return EquidistResult(average=mean + err, error=err, error_estimate=estimate)
