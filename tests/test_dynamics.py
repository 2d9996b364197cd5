import math

import numpy as np
import pytest

from orthospec import convex, dynamics, spherequad
from sphere_fourier import bessel_surface


@pytest.fixture
def beta0_3():
    return np.array([0.1, 0.0, -0.2])


def test_single_mode_correlation_closed_form(beta0_3):
    # one x-only mode: the correlation is the surface Fourier transform
    xi = (1, 0, 1)
    c = 0.7 - 0.2j
    phi = dynamics.TorusObservable(3, {xi: c})
    psi = dynamics.TorusObservable(3, {tuple(-x for x in xi): 1.0})
    lam = np.linalg.norm(np.array(xi, float) - beta0_3)
    for t in (5.0, 20.0, 80.0):
        want = 4.0 * math.pi * math.sin(t * lam) / (t * lam) * c
        got = dynamics.correlation(phi, psi, beta0_3, t)
        assert abs(got - want) < 1e-12
        # in dimension 3 the two-pole expansion of the sphere transform is exact
        exp = dynamics.correlation_expansion(phi, psi, beta0_3, t)
        assert abs(exp - want) < 1e-14


def test_correlation_duality(beta0_3):
    phi = dynamics.TorusObservable(3, {(1, 0, 1): 0.7 - 0.2j, (0, 1, 0): 0.3})
    psi = dynamics.TorusObservable(3, {(-1, 0, -1): 1.0, (0, -1, 0): 0.4j})
    a = dynamics.correlation(phi, psi, beta0_3, 13.0)
    b = dynamics.correlation(psi, phi, -beta0_3, -13.0)
    assert a == b


def test_parseval_at_time_zero():
    def amp_a(nodes):
        return 0.3 + nodes[:, 0] ** 2 + 0.1j * nodes[:, 1]

    def amp_b(nodes):
        return np.exp(-nodes[:, 2]) * (1.0 + 0.5j * nodes[:, 0])

    phi = dynamics.TorusObservable(3, {(1, 0, 0): amp_a, (0, 1, 1): 0.4})
    psi = dynamics.TorusObservable(3, {(-1, 0, 0): amp_b, (0, -1, -1): 1.2j})
    g = spherequad.grid(3, 64)
    direct = complex(
        np.sum(g.weights * amp_a(g.nodes) * amp_b(g.nodes))
        + 0.4 * 1.2j * spherequad.sphere_area(3)
    )
    got = dynamics.correlation(phi, psi, np.zeros(3), 0.0)
    assert abs(got - direct) < 1e-10


def test_expansion_remainder_order(beta0_3):
    # direction-dependent amplitudes leave a genuine O(t^-2) remainder
    def amp_a(nodes):
        return 0.3 + nodes[:, 0] ** 2 + 0.1j * nodes[:, 1]

    def amp_b(nodes):
        return np.exp(-nodes[:, 2]) * (1.0 + 0.5j * nodes[:, 0])

    phi = dynamics.TorusObservable(3, {(1, 0, 0): amp_a, (0, 1, 1): 0.4})
    psi = dynamics.TorusObservable(3, {(-1, 0, 0): amp_b, (0, -1, -1): 1.2j})
    scaled = []
    for t in (40.0, 80.0, 160.0):
        got = dynamics.correlation(phi, psi, beta0_3, t)
        exp = dynamics.correlation_expansion(phi, psi, beta0_3, t)
        scaled.append(abs(got - exp) * t**2)
    assert max(scaled) < 3.0 * min(scaled)
    assert max(scaled) < 100.0


def test_mode_at_beta0_contributes_its_mean():
    beta0 = np.array([1.0, 0.0])
    phi = dynamics.TorusObservable(2, {(1, 0): 2.0})
    psi = dynamics.TorusObservable(2, {(-1, 0): 0.5})
    got = dynamics.correlation_expansion(phi, psi, beta0, 50.0)
    assert abs(got - 2.0 * 0.5 * spherequad.sphere_area(2)) < 1e-12


def test_reality_validation():
    with pytest.raises(ValueError):
        dynamics.TorusObservable(2, {(1, 0): 1.0 + 1.0j}, real=True)
    with pytest.raises(ValueError):
        dynamics.TorusObservable(
            2, {(1, 0): 1.0 + 1.0j, (-1, 0): 1.0 + 1.0j}, real=True)
    obs = dynamics.TorusObservable(
        2, {(1, 0): 1.0 + 1.0j, (-1, 0): 1.0 - 1.0j}, real=True)
    modes = dict(obs.modes)
    assert modes == {(1, 0): 1.0 + 1.0j, (-1, 0): 1.0 - 1.0j}
    assert all(modes[tuple(-c for c in k)] == v.conjugate() for k, v in modes.items())


def test_mode_dimension_validation():
    with pytest.raises(ValueError):
        dynamics.TorusObservable(3, {(1, 0): 1.0})


def test_aniso_norm_unit_mode_closed_form():
    p = dynamics.AnisoParams(s0=1, s1=2, N0=1.0, N1=2.0, gamma=(0.0, 0.0, 0.0))
    nrm = dynamics.aniso_norm(dynamics.TorusObservable(3, {(0, 0, 0): 1.0}), p)
    assert nrm == pytest.approx(math.sqrt(spherequad.sphere_area(3)), rel=1e-10)


def test_aniso_norm_frequency_weights():
    # doubling N0/N1 multiplies the squared norm of a unit mode by <xi>^2
    xi = (2, 1, 0)
    obs = dynamics.TorusObservable(3, {xi: 1.0})
    base = dynamics.AnisoParams(s0=0, s1=0, N0=0.0, N1=0.0, gamma=(0.0, 0.0, 0.0))
    bumped = dynamics.AnisoParams(s0=0, s1=0, N0=1.0, N1=1.0, gamma=(0.0, 0.0, 0.0))
    a = dynamics.aniso_norm(obs, base)
    b = dynamics.aniso_norm(obs, bumped)
    bracket = 1.0 + 2.0**2 + 1.0**2
    assert b / a == pytest.approx(math.sqrt(bracket), rel=1e-10)


def test_aniso_norm_circle_derivatives_exact():
    def amp(nodes):
        al = np.arctan2(nodes[:, 1], nodes[:, 0])
        return np.exp(3j * al)

    _, _, energies = dynamics._derivative_energies(2, amp, 4)
    assert len(energies) == 5
    for m, e in enumerate(energies):
        assert np.max(np.abs(e - 9.0**m)) < 1e-8


def test_aniso_norm_order_cap_in_higher_dim():
    obs = dynamics.TorusObservable(3, {(1, 0, 0): lambda n: n[:, 0]})
    p = dynamics.AnisoParams(s0=3, s1=0, N0=0.0, N1=0.0, gamma=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="circle only"):
        dynamics.aniso_norm(obs, p)
    # the cap binds through the cap order s1 too, and at a mode sitting at gamma
    p = dynamics.AnisoParams(s0=0, s1=3, N0=0.0, N1=0.0, gamma=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="circle only"):
        dynamics.aniso_norm(obs, p)
    p = dynamics.AnisoParams(s0=3, s1=0, N0=0.0, N1=0.0, gamma=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="circle only"):
        dynamics.aniso_norm(obs, p)


def test_aniso_norm_refuses_a_gamma_of_the_wrong_dimension():
    obs = dynamics.TorusObservable(3, {(1, 0, 0): 1.0})
    p = dynamics.AnisoParams(s0=1, s1=1, N0=0.0, N1=0.0, gamma=(0.0, 0.0))
    with pytest.raises(ValueError, match="gamma dimension mismatch"):
        dynamics.aniso_norm(obs, p)


_OBS_2 = dynamics.TorusObservable(2, {(0, 0): 1.0, (1, 0): 0.5})
_OBS_3 = dynamics.TorusObservable(3, {(1, 0, 0): 1.0, (-1, 0, 0): 0.5})
_REFUSED_SUMS = {
    "correlation-dimensions": (lambda: dynamics.correlation(_OBS_2, _OBS_3, np.zeros(2), 1.0),
                               "observable dimensions differ"),
    "correlation-expansion-t-zero": (
        lambda: dynamics.correlation_expansion(_OBS_3, _OBS_3, np.zeros(3), 0.0),
        "the expansion needs t > 0"),
    "equidistribute-t-zero": (
        lambda: dynamics.equidistribute(convex.ball((0.0, 0.0), 0.5), _OBS_2, 0.0),
        "equidistribution needs t > 0"),
    "equidistribute-t-grid-negative": (
        lambda: dynamics.equidistribute(convex.ball((0.0, 0.0), 0.5), _OBS_2,
                                        np.array([10.0, -1.0])),
        "equidistribution needs t > 0"),
    "equidistribute-dimensions": (
        lambda: dynamics.equidistribute(convex.ball((0.0, 0.0, 0.0), 0.5), _OBS_2, 10.0),
        "observable dimension mismatch"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_SUMS))
def test_mode_sums_refuse_mismatched_dimensions_and_t_at_most_0(case):
    call, message = _REFUSED_SUMS[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("s0, squared, rel", [(1, 4.0 * math.pi, 1e-10),
                                               (2, 12.0 * math.pi, 1e-6)])
def test_aniso_norm_sphere_derivatives_closed_form(s0, squared, rel):
    # theta_1 on S^2 with gamma = xi: the mask is 1 and <xi>^{2 N0} = 1.  The
    # gradient of x_1/|x| has |.|^2 = 1 - theta_1^2 and its Hessian has
    # squared Frobenius norm 2, so the squared norm is 4 pi/3 + 8 pi/3, plus
    # 8 pi at s0 = 2, where 1e-6 is the error of the h = 1e-3 finite differences
    obs = dynamics.TorusObservable(3, {(1, 0, 0): lambda n: n[:, 0]})
    p = dynamics.AnisoParams(s0=s0, s1=0, N0=0.0, N1=0.0, gamma=(1.0, 0.0, 0.0))
    assert dynamics.aniso_norm(obs, p) == pytest.approx(math.sqrt(squared), rel=rel)


def test_aniso_params_validation():
    with pytest.raises(ValueError):
        dynamics.AnisoParams(s0=-1, s1=0, N0=0.0, N1=0.0, gamma=(0.0, 0.0))


@pytest.mark.parametrize("order", [1.5, True, "1", math.nan, math.inf, None])
def test_aniso_params_refuse_an_order_that_is_not_an_integer(order):
    for given in ({"s0": order, "s1": 0}, {"s0": 0, "s1": order}):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            dynamics.AnisoParams(N0=0.0, N1=0.0, gamma=(0.0, 0.0), **given)


@pytest.mark.parametrize("given", [{"N0": math.nan}, {"N1": math.inf},
                                   {"gamma": (0.0, -math.inf)}])
def test_aniso_params_refuse_weights_that_are_not_finite(given):
    with pytest.raises(ValueError, match="must be finite"):
        dynamics.AnisoParams(**{"s0": 1, "s1": 1, "N0": 0.0, "N1": 0.0,
                                "gamma": (0.0, 0.0), **given})


def test_aniso_params_take_an_integral_float_order_as_an_int():
    p = dynamics.AnisoParams(s0=2.0, s1=np.int64(1), N0=0.0, N1=0.0, gamma=(0.0, 0.0))
    assert (p.s0, p.s1) == (2, 1)
    assert type(p.s0) is int and type(p.s1) is int


# The anisotropic norm as it was computed with one masked derivative pass per
# cutoff: each pass evaluated the amplitude, its gradient and its Hessian
# again.  aniso_norm computes each mode's derivative energies once.

def _ref_gradient(fn, theta, h=1e-5):
    d = theta.shape[1]
    out = np.empty((theta.shape[0], d), dtype=complex)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        hi = np.asarray(fn((theta + e) / np.linalg.norm(theta + e, axis=1, keepdims=True)))
        lo = np.asarray(fn((theta - e) / np.linalg.norm(theta - e, axis=1, keepdims=True)))
        out[:, i] = (hi - lo) / (2.0 * h)
    return out


def _ref_hessian_sq(fn, theta, h=1e-3):
    d = theta.shape[1]
    c = np.asarray(fn(theta), dtype=complex)

    def ev(off):
        pts = theta + off
        return np.asarray(fn(pts / np.linalg.norm(pts, axis=1, keepdims=True)), dtype=complex)

    out = np.zeros(theta.shape[0])
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out += np.abs((ev(ei) - 2.0 * c + ev(-ei)) / h**2) ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            dij = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (4.0 * h**2)
            out += 2.0 * np.abs(dij) ** 2
    return out


def _ref_masked_sobolev_sq(dim, fn, s, mask_of):
    if dim == 2:
        n = 512
        alpha = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        nodes = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        w = np.full(n, 2.0 * math.pi / n)
        freqs = np.fft.fftfreq(n, d=1.0 / n)
        spec = np.fft.fft(np.asarray(fn(nodes), dtype=complex))
        spec[np.abs(spec) < 1e-12 * np.max(np.abs(spec))] = 0.0
        mask = mask_of(nodes)
        return sum(float(np.sum(w * mask**2 * np.abs(np.fft.ifft(spec * (1j * freqs) ** m)) ** 2))
                   for m in range(s + 1))
    g = spherequad.grid(dim, 48)
    mask = mask_of(g.nodes)
    total = float(np.sum(g.weights * mask**2 * np.abs(np.asarray(fn(g.nodes), dtype=complex)) ** 2))
    if s >= 1:
        grad = _ref_gradient(fn, g.nodes)
        total += float(np.sum(g.weights * mask**2 * np.sum(np.abs(grad) ** 2, axis=1)))
    if s >= 2:
        total += float(np.sum(g.weights * mask**2 * _ref_hessian_sq(fn, g.nodes)))
    return total


def _three_pass_norm(phi, p):
    gamma = np.asarray(p.gamma, dtype=float)
    total = 0.0
    for key, value in phi.modes:
        fn = spherequad._sphere_fn(value)
        xi = np.asarray(key, dtype=float)
        v = xi - gamma
        lam = float(np.linalg.norm(v))
        bracket = 1.0 + float(xi @ xi)
        if lam < 1e-12:
            total += bracket ** p.N0 * _ref_masked_sobolev_sq(
                phi.dim, fn, p.s0, lambda nodes: np.ones(nodes.shape[0]))
            continue
        for which, s, N in ((1, p.s0, p.N0), (2, p.s1, p.N1), (0, p.s1, p.N1)):
            total += bracket ** N * _ref_masked_sobolev_sq(
                phi.dim, fn, s,
                lambda nodes, k=which: spherequad.pole_cutoffs(nodes @ (v / lam))[k])
    return math.sqrt(total)


def _random_observable(dim, seed):
    """A mode at gamma = e1 and two off it, each a smooth random amplitude."""
    rng = np.random.default_rng(seed)

    def amplitude():
        a, b = rng.normal(size=(2, dim))
        c = complex(*rng.normal(size=2))
        return lambda n: c * np.exp(1j * (n @ a)) + (n @ b) ** 2

    e1 = (1,) + (0,) * (dim - 1)
    keys = [e1, (0, 1) + (0,) * (dim - 2), (2, -1) + (1,) * (dim - 2)]
    return dynamics.TorusObservable(dim, {k: amplitude() for k in keys}), e1


@pytest.mark.parametrize("dim, top", [(2, 4), (3, 2), (4, 2)])
def test_aniso_norm_matches_the_three_pass_formula(dim, top, monkeypatch):
    if dim == 4:
        # both formulas read the same nodes; a coarser S^3 grid than the
        # 221184 nodes of grid(4, 48) keeps the sweep within a second
        grid = spherequad.grid
        monkeypatch.setattr(spherequad, "grid", lambda d, n: grid(d, 16))
    phi, e1 = _random_observable(dim, seed=dim)
    for s0 in range(top + 1):
        for s1 in range(top + 1):
            p = dynamics.AnisoParams(s0=s0, s1=s1, N0=0.7, N1=1.3,
                                     gamma=tuple(float(c) for c in e1))
            assert dynamics.aniso_norm(phi, p) == pytest.approx(
                _three_pass_norm(phi, p), rel=1e-13, abs=0.0), (s0, s1)


@pytest.mark.parametrize("dim, s, calls", [(2, 2, 1), (2, 4, 1), (3, 0, 1), (3, 1, 7),
                                           (3, 2, 25), (4, 2, 41)])
def test_aniso_norm_evaluates_each_amplitude_by_one_stencil(dim, s, calls):
    # off gamma the equator and both caps read one set of energies; at order 2
    # in d >= 3 the stencil is the centre, 2d gradient and 2d^2 Hessian points
    seen = []

    def amp(nodes):
        seen.append(nodes.shape)
        return nodes[:, 0] ** 2

    obs = dynamics.TorusObservable(dim, {(1,) + (0,) * (dim - 1): amp})
    p = dynamics.AnisoParams(s0=s, s1=s, N0=1.0, N1=1.0, gamma=(0.0,) * dim)
    dynamics.aniso_norm(obs, p)
    assert len(seen) == calls


@pytest.fixture(scope="module")
def ellipse():
    return convex.ellipsoid((0.0, 0.0), (1.3, 0.7))


_FIVE = {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5, (1, 1): 0.25j, (-1, -1): -0.25j}


# an observable whose +-xi coefficients are unrelated, with a lone mode (2, -1)
_UNPAIRED = {(0, 0): 0.3, (1, 0): 0.5 + 0.2j, (-1, 0): -0.1j, (2, -1): 0.7}


def _ellipse_average(a, b, modes, t, n=4096):
    """Trapezoid oracle of the boundary average on the dilated ellipse with semiaxes a, b.

    With theta = (cos s, sin s): h = sqrt(a^2 cos^2 s + b^2 sin^2 s), the
    boundary point of normal theta is (a^2 cos s, b^2 sin s) / h, and the
    dilated boundary has length density t + a^2 b^2 / h^3 in s.
    """
    s = 2.0 * math.pi * np.arange(n) / n
    c, sn = np.cos(s), np.sin(s)
    h = np.sqrt((a * c) ** 2 + (b * sn) ** 2)
    x, y = a * a * c / h + t * c, b * b * sn / h + t * sn
    dens = t + (a * b) ** 2 / h**3
    f = sum(complex(v) * np.exp(1j * (k[0] * x + k[1] * y)) for k, v in modes.items())
    return complex(np.sum(dens * f) / np.sum(dens))


def _ball_average(center, r, modes, t):
    """sum_xi c_xi e^{i xi.center} of the sphere transform at |xi| (t + r), over the area."""
    d = len(center)
    area = {2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    return complex(sum(
        complex(v) * np.exp(1j * float(np.dot(k, center)))
        * bessel_surface(d, float(np.linalg.norm(k)) * (t + r)) / area
        for k, v in modes.items()
    ))


def test_equidistribute_paths_agree(ellipse):
    # the one path against references that share no code with it: the
    # trapezoid oracle on the ellipse and the sphere transform on balls
    for modes in (_FIVE, _UNPAIRED):
        f = dynamics.TorusObservable(2, modes)
        for t in (10.0, 50.0):
            res = dynamics.equidistribute(ellipse, f, t)
            want = _ellipse_average(1.3, 0.7, modes, t)
            assert abs(res.average - want) < 1e-12
            assert abs(res.error - (want - modes[(0, 0)])) < 1e-12
    ball_cases = [
        ((0.3, -0.2), _FIVE),
        ((0.3, -0.2), _UNPAIRED),
        ((0.3, -0.2, 0.5), {(0, 0, 0): 1.5, (1, 0, 1): 0.4 - 0.3j, (-1, 0, -1): 0.4 + 0.3j,
                            (0, 2, -1): 0.2j}),
    ]
    for center, modes in ball_cases:
        K = convex.ball(center, 0.8)
        f = dynamics.TorusObservable(len(center), modes)
        for t in (10.0, 97.0):
            got = dynamics.equidistribute(K, f, t).average
            assert abs(got - _ball_average(center, 0.8, modes, t)) < 1e-12


def test_equidistribute_refuses_an_under_resolved_boundary():
    # a degree-24 bump of the support function outruns the rule at t = 10
    K = convex.harmonic(convex.ball((0.0, 0.0, 0.0), 1.0), [(24, (0.3, 0.5, 0.8), 5e-4)])
    f = dynamics.TorusObservable(3, {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (-1, 0, 0): 0.5},
                                 real=True)
    with pytest.raises(spherequad.UnderResolved):
        dynamics.equidistribute(K, f, 10.0)


def test_equidistribute_constant_is_exact(ellipse):
    one = dynamics.TorusObservable(2, {(0, 0): 1.0})
    res = dynamics.equidistribute(ellipse, one, 25.0)
    assert res.error == 0.0
    assert res.average == 1.0 + 0.0j


def test_equidistribute_rejects_direction_dependence(ellipse):
    obs = dynamics.TorusObservable(2, {(1, 0): lambda n: n[:, 0]})
    with pytest.raises(ValueError):
        dynamics.equidistribute(ellipse, obs, 10.0)


_BODIES_3 = {
    "ellipsoid": lambda: convex.ellipsoid((0.1, -0.2, 0.15), (1.1, 0.8, 0.6)),
    "harmonic": lambda: convex.harmonic(
        convex.ball((0.1, 0.0, -0.2), 0.5),
        [(2, (0.3, 0.5, 0.8), 0.03), (4, (-0.6, 0.0, 0.8), 0.008)]),
}


@pytest.mark.parametrize("name", sorted(_BODIES_3))
def test_the_steiner_mass_is_the_checked_zero_mode(name):
    K = _BODIES_3[name]()
    ts = np.array([0.5, 10.0, 10.3, 80.0])
    checked = spherequad.osc_integral(
        3, F=lambda n: convex._area_coeffs(K, n), xi=np.zeros(3), t=ts,
        xtilde=K.grad, xtilde_scale=K.h_range()[1]).value
    mass = (ts[:, None] ** np.arange(3)) @ convex.steiner(K).surface_moments
    assert np.max(np.abs(checked - mass) / mass) < 1e-13


def _rotation3(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return q


_SCALE_BODIES = {
    "off-centre disc": lambda: convex.ball((0.5, -0.3), 0.8),
    "rotated off-centre ellipsoid": lambda: convex.ellipsoid(
        (0.3, -0.2, 0.25), (1.1, 0.8, 0.6), _rotation3(5)),
    "harmonic": _BODIES_3["harmonic"],
    "minkowski sum": lambda: convex.minkowski_sum(
        convex.ellipsoid((0.2, 0.0, -0.1), (0.7, 0.5, 0.4), _rotation3(6)),
        convex.ball((-0.1, 0.3, 0.0), 0.2)),
}


@pytest.mark.parametrize("name", sorted(_SCALE_BODIES))
def test_equidistribute_bounds_the_support_point(name, monkeypatch):
    # xtilde_scale must bound |xtilde| = |x_K(theta)| = |grad h(theta)|
    K = _SCALE_BODIES[name]()
    d = K.dim
    scales, real = [], spherequad.osc_integral

    def recording(*args, **kwargs):
        scales.append(kwargs["xtilde_scale"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spherequad, "osc_integral", recording)
    e1 = (1,) + (0,) * (d - 1)
    f = dynamics.TorusObservable(d, {(0,) * d: 1.0, e1: 0.5, tuple(-c for c in e1): 0.5},
                                 real=True)
    dynamics.equidistribute(K, f, 10.0)
    reach = float(np.max(np.linalg.norm(K.grad(spherequad.grid(d, 64).nodes), axis=1)))
    assert scales and min(scales) >= reach


def test_a_bench_shaped_t_grid_shares_its_ring_tables(monkeypatch):
    # one +- mode at 32 values of t, 4 windows of 8 spaced 3 % apart: the
    # values fall on 8 polar rungs, and each rung costs one ring table and one
    # for its check; steiner adds its two orders.  One call per t and grid,
    # as before the t grid was batched, would be 4 x 32 = 128.
    K = convex.ellipsoid((0.1, -0.2, 0.15), (1.1, 0.8, 0.6), _rotation3(3))
    f = dynamics.TorusObservable(3, {(0, 0, 0): 1.2, (1, 0, 0): 0.3 + 0.2j,
                                     (-1, 0, 0): 0.3 - 0.2j}, real=True)
    ts = np.array([t0 * (1.0 + 0.03 * j) for t0 in (10.0, 20.0, 40.0, 80.0) for j in range(8)])
    calls, real = [], convex._area_coeffs

    def counting(body, theta):
        calls.append(theta.shape[0])
        return real(body, theta)

    monkeypatch.setattr(convex, "_area_coeffs", counting)
    res = dynamics.equidistribute(K, f, ts)
    assert res.average.shape == ts.shape
    assert len(calls) <= 18, len(calls)
