import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthospec import spherequad
from sphere_fourier import bessel_surface


def test_sphere_area_closed_forms():
    assert abs(spherequad.sphere_area(2) - 2.0 * math.pi) < 1e-14
    assert abs(spherequad.sphere_area(3) - 4.0 * math.pi) < 1e-13
    assert abs(spherequad.sphere_area(5) - 8.0 * math.pi**2 / 3.0) < 1e-12


def test_grid_weights_sum_to_the_area():
    for d in (2, 3, 4, 5):
        g = spherequad.grid(d, 24)
        assert abs(float(np.sum(g.weights)) - spherequad.sphere_area(d)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-13


def test_integrate_quadratic_exactly():
    # integral of theta_i theta_j over S^{d-1} is delta_ij |S^{d-1}| / d
    for d in (2, 3, 4):
        g = spherequad.grid(d, 16)
        got = np.sum(g.weights * g.nodes[:, 0] * g.nodes[:, 0])
        assert abs(got - spherequad.sphere_area(d) / d) < 1e-12
        got = np.sum(g.weights * g.nodes[:, 0] * g.nodes[:, 1])
        assert abs(got) < 1e-13


def _gauss_oracle(n, lam, u0):
    """Root of C^lam_n refined from u0 at 40 digits, and its Christoffel weight.

    w = (k_n / k_(n-1)) h_(n-1) / (C_n'(u) C_(n-1)(u)), with k_n / k_(n-1) =
    2 (n + lam - 1) / n and h_m = pi 2^(1-2lam) Gamma(m + 2lam) /
    (m! (m + lam) Gamma(lam)^2) the squared norm of C^lam_m.
    """
    def pair(u):
        prev, cur = mp.mpf(0), mp.mpf(1)
        for k in range(1, n + 1):
            prev, cur = cur, (2 * (k + lam - 1) * u * cur - (k + 2 * lam - 2) * prev) / k
        return cur, prev

    def deriv(u, c, cm):
        return ((n + 2 * lam - 1) * cm - n * u * c) / (1 - u * u)

    lam, u = mp.mpf(lam), mp.mpf(u0)
    for _ in range(2):
        c, cm = pair(u)
        u -= c / deriv(u, c, cm)
    c, cm = pair(u)
    h = (mp.pi * 2 ** (1 - 2 * lam) * mp.gamma(n - 1 + 2 * lam)
         / (mp.factorial(n - 1) * (n - 1 + lam) * mp.gamma(lam) ** 2))
    return u, 2 * (n + lam - 1) / n * h / (deriv(u, c, cm) * cm)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
def test_gauss_gegenbauer_matches_a_40_digit_oracle(lam):
    # the polar rules of S^2..S^5; from n = 1000 on the eight nodes nearest
    # the pole, where the weights are most sensitive, and two at the equator;
    # 1023 (odd: a node at u = 0) and 2048 (a polar rung) are large polar
    # rules of S^2 and S^4
    sizes = (1, 2, 8, 96, 1000) + ((1023, 2048) if lam in (0.5, 1.5) else ())
    for n in sizes:
        u, w = spherequad._gauss_gegenbauer(n, lam)
        assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(u) > 0.0)
        rows = range(n // 2, n) if n <= 96 else [n // 2, n // 2 + 1, *range(n - 8, n)]
        weight_tol = 1e-11 if n >= 1000 else 1e-10
        with mp.workdps(40):
            for i in rows:
                root, weight = _gauss_oracle(n, lam, u[i])
                assert abs(u[i] - float(root)) <= 1e-15, (n, i)
                assert abs(w[i] / float(weight) - 1.0) <= weight_tol, (n, i)


@pytest.mark.parametrize("lam", [2.5, 3.5, 4.5])
def test_gauss_gegenbauer_builds_every_order_of_the_high_spheres(lam):
    # the polar rules of S^6, S^8 and S^10; with the cosine sum cut at
    # (n + lam) theta = 25, n = 19 failed at lam = 5/2 and n = 8, 13, 15,
    # 18, 19 and 30 at lam = 7/2, so osc_integral could not run in d >= 7
    mass = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
    for n in range(1, 300):
        u, w = spherequad._gauss_gegenbauer.__wrapped__(n, lam)
        assert u.size == n and np.all(np.diff(u) > 0.0) and np.all(w > 0.0), n
        moment = mass
        for k in range(min(3, n - 1) + 1):  # even moments the rule integrates exactly
            got = float(np.sum(w * u ** (2 * k)))
            assert abs(got - moment) <= 1e-14 * moment, (n, k)
            moment *= (2 * k + 1) / (2 * k + 2 + 2 * lam)


def test_gauss_gegenbauer_never_runs_the_recurrence(monkeypatch):
    # every rule comes from the cosine sum and the Szego expansion; the
    # three-term recurrence serves only the zonal harmonics of convex bodies
    def refuse(*args):
        raise AssertionError("a Gauss rule ran the three-term recurrence")

    monkeypatch.setattr(spherequad, "_gegenbauer", refuse)
    for lam in (0.5, 1.0, 1.5, 2.0):
        for n in (1, 2, 7, 96, 1000):
            u, w = spherequad._gauss_gegenbauer.__wrapped__(n, lam)
            assert u.size == n and np.all(w > 0.0)


def test_gauss_gegenbauer_refuses_a_failed_iteration():
    # lam = 15 at n = 20 is far outside the sphere dimensions a grid can
    # hold; the asymptotic start lets Newton land twice on one root
    with pytest.raises(ArithmeticError):
        spherequad._gauss_gegenbauer(20, 15.0)


def _monomial_integral(powers):
    # integral of prod x_i^a_i over S^(d-1)
    if any(a % 2 for a in powers):
        return 0.0
    num = math.prod(math.gamma((a + 1) / 2.0) for a in powers)
    return 2.0 * num / math.gamma((sum(powers) + len(powers)) / 2.0)


@pytest.mark.parametrize("dim, orders", [(3, (1, 2, 3, 6)), (4, (1, 2, 4)), (5, (1, 2, 3))])
def test_grid_integrates_monomials_to_degree_2n_minus_1(dim, orders):
    for n in orders:
        g = spherequad.grid(dim, n)
        for powers in itertools.product(range(2 * n), repeat=dim):
            if sum(powers) > 2 * n - 1:
                continue
            got = float(g.weights @ np.prod(g.nodes ** np.array(powers), axis=1))
            assert abs(got - _monomial_integral(powers)) < 1e-13, (n, powers)


@pytest.mark.parametrize("n", [100, 1000, 1500])
def test_grid_sine_factor_near_the_poles(n):
    # the scaled circle beside the polar cosine u has radius sqrt(1 - u^2),
    # which 1 - u*u loses to cancellation at the nodes nearest the poles;
    # the uncached builder keeps the large grids out of the grid cache
    nodes = spherequad.grid.__wrapped__(3, n).nodes
    m = nodes.shape[0] // n  # azimuth nodes per polar node
    with mp.workdps(40):
        for i in [*range(4), *range(n - 4, n)]:
            u = nodes[i * m, 0]
            want = float(mp.sqrt(1 - mp.mpf(u) ** 2))
            got = np.linalg.norm(nodes[i * m : (i + 1) * m, 1:], axis=1)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-15, (n, i)


def test_bessel_surface_dim3_closed_form():
    rho = np.linspace(0.5, 40.0, 80)
    want = 4.0 * math.pi * np.sin(rho) / rho
    got = bessel_surface(3, rho)
    assert np.max(np.abs(got - want)) < 1e-12


def test_bessel_surface_at_zero_limit():
    for d in (2, 3, 5):
        assert abs(bessel_surface(d, 1e-8) - spherequad.sphere_area(d)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 120.0))
def test_osc_integral_matches_bessel(rho):
    # F = 1: the integral is the surface Fourier transform at radius rho
    xi = np.array([rho, 0.0, 0.0])
    val = spherequad.osc_integral(3, xi=xi, t=1.0).value
    want = bessel_surface(3, rho)
    assert abs(val - want) < 1e-10


def test_osc_integral_dim2_matches_bessel():
    for rho in (0.7, 5.0, 33.0, 101.5):
        val = spherequad.osc_integral(2, xi=np.array([0.0, rho]), t=1.0).value
        want = bessel_surface(2, rho)
        assert abs(val - want) < 1e-10


def test_osc_integral_xtilde_shift():
    # constant xtilde shifts the phase by e^{i xi . x0}
    xi = np.array([2.0, -1.0, 0.5])
    x0 = np.array([0.3, 0.1, -0.7])
    plain = spherequad.osc_integral(3, xi=xi, t=3.0).value
    shifted = spherequad.osc_integral(
        3, xi=xi, t=3.0,
        xtilde=lambda n: np.broadcast_to(x0, n.shape), xtilde_scale=1.0,
    ).value
    assert abs(shifted - plain * np.exp(1j * xi @ x0)) < 1e-10


def test_osc_integral_under_resolved(monkeypatch):
    def F(n):
        return np.cos(8.0 * np.arctan2(n[:, 2], n[:, 1]))

    assert abs(spherequad.osc_integral(3, F=F).value) < 1e-12
    monkeypatch.setattr(spherequad, "osc_order", lambda *args: 6)
    with pytest.raises(spherequad.UnderResolved):
        spherequad.osc_integral(2, xi=np.array([400.0, 0.0]), t=1.0)
    with pytest.raises(spherequad.UnderResolved):
        spherequad.osc_integral(3, xi=np.array([30.0, -50.0, 80.0]), t=1.0)

    # the inner rule alone: cos(8 phi) about e1 aliases to 1 on the 8 azimuth
    # nodes of order 4, and only doubling the inner order exposes it
    monkeypatch.setattr(spherequad, "osc_order", lambda *args: 4)
    with pytest.raises(spherequad.UnderResolved):
        spherequad.osc_integral(3, F=F)


def test_osc_integral_with_an_axis_within_1e_154_of_e1():
    # the Householder vector of such an axis would overflow 2 / (v @ v)
    def F(n):
        return 1.0 + 0.1 * n[:, 1] ** 2

    near = spherequad.osc_integral(3, F=F, xi=np.array([50.0, 5e-154, 0.0]), t=1.0).value
    on = spherequad.osc_integral(3, F=F, xi=np.array([50.0, 0.0, 0.0]), t=1.0).value
    assert near == on


def test_aligned_grid_with_equal_orders_is_the_product_grid():
    for d in (2, 3, 4, 5):
        for n in (1, 7, 24):
            full, same = spherequad.grid(d, n), spherequad.grid(d, n, n)
            assert full.nodes.tobytes() == same.nodes.tobytes()
            assert full.weights.tobytes() == same.weights.tobytes()
        g = spherequad.grid(d, 40, 9)
        assert abs(float(np.sum(g.weights)) - spherequad.sphere_area(d)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-13


_LADDER = sorted(b << k for b in (16, 19, 23, 27) for k in range(12))


def _recorded_grids(monkeypatch):
    calls, real = [], spherequad.grid

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spherequad, "grid", recording)
    return calls


def _tilted(n):
    # a callable amplitude, so that osc_integral builds its grids
    return 1.0 + 0.1 * n[:, 0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_osc_integral_polar_orders_lie_on_the_ladder(d, monkeypatch):
    calls = _recorded_grids(monkeypatch)
    xi, beta0 = np.linspace(1.0, 2.0, d), np.full(d, 0.3)
    for t in (0.0, 0.4, 1.0, 2.5, 7.0, 19.0, 40.0):
        calls.clear()
        spherequad.osc_integral(d, F=_tilted, xi=xi, beta0=beta0, t=t)
        want = spherequad.osc_order(d, xi, beta0, t)
        (_, n, *inner), check = calls
        # the smallest rung at or above osc_order; the inner order is not rounded
        assert n in _LADDER and n >= want and _LADDER[_LADDER.index(n) - 1] < want, (t, n)
        if d == 2:
            # the circle grid has no inner order, so none enters its cache key
            assert inner == [] and check == (2, 2 * n)
        else:
            m = spherequad.osc_order(d, xi, beta0, 0.0)
            assert inner == [m] and check == (d, 2 * n, 2 * m)


@pytest.mark.parametrize("d", [3, 4])
def test_the_check_reuses_the_polar_rule_of_a_call_one_octave_up(d, monkeypatch):
    spherequad.grid.cache_clear()
    spherequad._gauss_gegenbauer.cache_clear()
    calls = _recorded_grids(monkeypatch)
    xi = np.array([1.0] + [0.0] * (d - 1))
    spherequad.osc_integral(d, F=_tilted, xi=xi, t=50.0)
    (_, up, _), _ = calls
    misses = spherequad._gauss_gegenbauer.cache_info().misses
    calls.clear()
    spherequad.osc_integral(d, F=_tilted, xi=xi, t=20.0)
    (_, n, _), _ = calls
    assert 2 * n == up
    # the check grid (2n, 2m) is new, but its polar rule of order 2n and the
    # inner rules of orders m and 2m were built by the first call: only the
    # polar rule of order n is
    assert spherequad._gauss_gegenbauer.cache_info().misses == misses + 1


def test_cached_rules_are_read_only_and_rebuild_bit_for_bit():
    u, w = spherequad._gauss_gegenbauer(46, 1.0)
    for a in (u, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    cached = spherequad.grid(4, 46, 20)
    spherequad.grid.cache_clear()
    spherequad._gauss_gegenbauer.cache_clear()
    fresh = spherequad.grid(4, 46, 20)
    assert fresh is not cached
    assert fresh.nodes.tobytes() == cached.nodes.tobytes()
    assert fresh.weights.tobytes() == cached.weights.tobytes()


def test_circle_grids_are_cached_once_whatever_the_inner_order():
    # the check grid of t = 20 (polar order 54 -> 108) is the base grid of
    # t = 50 (108 -> 216): three circle grids, not four cache entries
    spherequad.grid.cache_clear()
    xi = np.array([1.0, 0.0])
    spherequad.osc_integral(2, F=_tilted, xi=xi, t=50.0)
    misses = spherequad.grid.cache_info().misses
    spherequad.osc_integral(2, F=_tilted, xi=xi, t=20.0)
    assert misses == 2 and spherequad.grid.cache_info().misses == 3


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_t_grid_equals_its_scalar_calls_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    xi, beta0 = rng.normal(size=d), 0.2 * rng.normal(size=d)
    M = 0.3 * rng.normal(size=(d, d))

    def F(n):
        # column j multiplies t^j
        return np.stack([1.0 + n[:, 0] * n[:, -1], 0.5j * n[:, 1] ** 2, 0.01 + 0 * n[:, 0]], axis=1)

    def xtilde(n):
        return n @ M.T

    kw = dict(F=F, xi=xi, beta0=beta0, xtilde=xtilde, xtilde_scale=float(np.linalg.norm(M, 2)))
    ts = np.array([0.0, 0.7, 3.0, 3.1, 12.0, 40.0])
    grid_res = spherequad.osc_integral(d, t=ts, **kw)
    assert grid_res.value.shape == grid_res.error_estimate.shape == ts.shape
    for k, t in enumerate(ts):
        one = spherequad.osc_integral(d, t=float(t), **kw)
        assert isinstance(one.value, complex) and isinstance(one.error_estimate, float)
        assert one.value == grid_res.value[k] and one.error_estimate == grid_res.error_estimate[k]
        # the columns are the coefficients of a polynomial in t
        summed = spherequad.osc_integral(
            d, t=float(t), **{**kw, "F": lambda n, t=t: F(n) @ (t ** np.arange(3))})
        assert abs(summed.value - one.value) <= 1e-12 * (1.0 + abs(one.value))


def test_an_under_resolved_t_is_named(monkeypatch):
    monkeypatch.setattr(spherequad, "osc_order", lambda *args: 6)
    xi = np.array([1.0, 0.0])
    # polar order 16 and its doubling resolve e^{i t cos phi} for small t only
    assert spherequad.osc_integral(2, xi=xi, t=[1.0, 2.0, 3.0]).error_estimate.max() < 1e-12
    with pytest.raises(spherequad.UnderResolved, match=r"at t = 400\.0, order doubling 16->32"):
        spherequad.osc_integral(2, xi=xi, t=[1.0, 2.0, 400.0, 3.0])


@pytest.mark.parametrize("d", [3, 4, 5])
def test_a_constant_amplitude_without_xtilde_builds_no_grid(d):
    u = np.arange(1.0, d + 1.0)
    u /= np.linalg.norm(u)
    ts = np.array([0.0, 0.5, 3.0, 40.0, 150.0])
    before = spherequad.grid.cache_info()
    got = spherequad.osc_integral(d, F=0.5 - 0.25j, xi=2.0 * u, beta0=0.5 * u, t=ts).value
    assert spherequad.grid.cache_info() == before
    assert np.max(np.abs(got - (0.5 - 0.25j) * bessel_surface(d, 1.5 * ts))) < 1e-10


_UNIT_DIRECTIONS = st.sampled_from([3, 4]).flatmap(
    lambda d: st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: np.asarray(v) / np.linalg.norm(v))
)


@settings(max_examples=30, deadline=None)
@given(_UNIT_DIRECTIONS, st.floats(0.5, 120.0))
def test_osc_integral_matches_bessel_in_any_direction(u, rho):
    # xi off e1: the polar axis of the grid has to follow it
    d = u.size
    xi = rho * u
    try:
        val = spherequad.osc_integral(d, xi=xi, t=1.0).value
    finally:
        spherequad.grid.cache_clear()  # d = 4 grids at rho near 120 are tens of MB each
    assert abs(val - bessel_surface(d, rho)) < 1e-10


@pytest.mark.parametrize("xi, beta0, big", [
    ((1.1, -2.0, 0.7), (0.2, 0.1, -0.4), 200),
    ((2.0, 3e-9, 0.0), (0.0, 0.0, 0.0), 200),  # omega within 2e-9 of e1
    ((0.9, 1.3, -1.2, 0.4), (-0.3, 0.2, 0.0, 0.1), 110),
])
def test_osc_integral_amplitude_and_xtilde_against_a_fine_grid(xi, beta0, big):
    xi, beta0 = np.asarray(xi), np.asarray(beta0)
    d = xi.size
    M = np.random.default_rng(7 + d).normal(size=(d, d)) * 0.2
    t = 4.0

    def F(n):
        return (1.0 + n[:, 0] * n[:, 1] + 0.5j * n[:, d - 1] ** 2) * np.exp(0.7 * n[:, 1])

    def xtilde(n):
        return n @ M.T

    got = spherequad.osc_integral(d, F=F, xi=xi, beta0=beta0, t=t, xtilde=xtilde,
                                  xtilde_scale=float(np.linalg.norm(M, 2))).value
    g = spherequad.grid(d, big)
    want = np.sum(g.weights * F(g.nodes)
                  * np.exp(1j * (t * g.nodes @ (xi - beta0) + xtilde(g.nodes) @ xi)))
    assert abs(got - want) < 1e-10


def test_pole_cutoffs_partition():
    s = np.linspace(-1.0, 1.0, 201)
    m, z, p = spherequad.pole_cutoffs(s, 0.2)
    assert np.max(np.abs(m + z + p - 1.0)) < 1e-12
    assert np.all((m >= -1e-15) & (z >= -1e-15) & (p >= -1e-15))
    # caps live near the poles, the equator piece vanishes there
    assert p[-1] == pytest.approx(1.0, abs=1e-12)
    assert m[0] == pytest.approx(1.0, abs=1e-12)
    assert z[0] < 1e-12 and z[-1] < 1e-12


def test_stationary_phase_leading_term():
    xi = np.array([1.0, 0.0, 0.0])
    for t in (60.0, 240.0):
        full = spherequad.osc_integral(3, xi=xi, t=t).value
        lead, order = spherequad.stationary_phase(3, xi=xi, t=t)
        assert order == -2.0
        assert abs(full - lead) < 5.0 / t**2


def test_stationary_phase_residual_slope_dim2():
    xi = np.array([1.0, 0.0])
    ts = np.geomspace(50.0, 800.0, 14)
    resid = []
    for t in ts:
        full = spherequad.osc_integral(2, xi=xi, t=float(t)).value
        lead, _ = spherequad.stationary_phase(2, xi=xi, t=float(t))
        resid.append(abs(full - lead))
    slope = np.polyfit(np.log(ts), np.log(resid), 1)[0]
    assert abs(slope + 1.5) < 0.15


def test_cap_decay_equator_piece():
    xi = np.array([1.0, 0.0, 0.0])
    assert spherequad.cap_decay_check(3, xi=xi, ts=np.geomspace(40.0, 400.0, 8)) <= -3.0


def _equator_piece_oracle(d, kappa):
    """|S^(d-2)| int chi_0(u) e^{i kappa u} (1 - u^2)^((d-3)/2) du by mpmath.quad at 30 digits."""
    def step(x):
        if x <= 0:
            return mp.mpf(0)
        if x >= 1:
            return mp.mpf(1)
        a, b = mp.exp(-1 / x), mp.exp(-1 / (1 - x))
        return a / (a + b)

    def f(u):
        chi0 = 1 - step((u - mp.mpf("0.8")) * 10) - step((-u - mp.mpf("0.8")) * 10)
        return chi0 * mp.expj(kappa * u) * (1 - u * u) ** (mp.mpf(d - 3) / 2)

    with mp.workdps(30):
        # the ramps whole, the plateau in pieces of about 16 periods of the phase
        pieces = int(mp.ceil(1.6 * kappa / (32 * mp.pi)))
        pts = ([mp.mpf("-0.9")] + mp.linspace(mp.mpf("-0.8"), mp.mpf("0.8"), pieces + 1)
               + [mp.mpf("0.9")])
        area = 2 * mp.pi ** (mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d - 1) / 2)
        return complex(area * mp.quad(f, pts))


@pytest.mark.parametrize("d, kappa", [(2, 800.0), (3, 40.0), (4, 137.0)])
def test_equator_piece_matches_an_mpmath_reference(d, kappa):
    xi = np.zeros(d)
    xi[-1] = kappa / 2.0
    got = spherequad._equator_piece(d, xi, np.zeros(d), 2.0)
    assert abs(got - _equator_piece_oracle(d, kappa)) < 1e-13


def test_cap_decay_check_refuses_too_few_angles(monkeypatch):
    # with osc_order at 0 only the floor of 2048 angles is left, against the
    # about 1400 periods of the phase at t = 5000
    monkeypatch.setattr(spherequad, "osc_order", lambda *args: 0)
    with pytest.raises(spherequad.UnderResolved, match="angle doubling 2048->4096"):
        spherequad.cap_decay_check(3, xi=np.array([1.0, 0.0, 0.0]), ts=[400.0, 5000.0])


def test_cap_decay_needs_two_samples():
    with pytest.raises(ValueError):
        spherequad.cap_decay_check(3, xi=np.array([1.0, 0.0, 0.0]), ts=[50.0])


def test_cap_decay_refuses_nonpositive_t_and_xi_at_beta0():
    xi = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="t > 0"):
        spherequad.cap_decay_check(3, xi=xi, ts=[0.0, 50.0])
    with pytest.raises(ValueError, match="xi != beta0"):
        spherequad.cap_decay_check(3, xi=xi, ts=[40.0, 50.0], beta0=xi)


def test_osc_integral_xtilde_needs_a_scale():
    with pytest.raises(ValueError, match="xtilde_scale"):
        spherequad.osc_integral(3, xi=np.array([1.0, 0.0, 0.0]), t=2.0,
                                xtilde=lambda n: 0.1 * n)


_E1 = np.array([1.0, 0.0, 0.0])
_BAD_ARGUMENTS = {
    "grid-dim-1": (lambda: spherequad.grid(1, 8), "dim must be >= 2"),
    "grid-order-0": (lambda: spherequad.grid(3, 0), "order and inner must be >= 1"),
    "grid-inner-0": (lambda: spherequad.grid(3, 8, 0), "order and inner must be >= 1"),
    "pole-cutoffs-width-0": (lambda: spherequad.pole_cutoffs(np.zeros(3), 0.0),
                             "width must lie in"),
    "pole-cutoffs-width-1": (lambda: spherequad.pole_cutoffs(np.zeros(3), 1.0),
                             "width must lie in"),
    "osc-integral-2d-t": (lambda: spherequad.osc_integral(3, xi=_E1, t=np.ones((2, 2))),
                          "t must be a scalar or a 1-D array"),
    "stationary-phase-t-zero": (lambda: spherequad.stationary_phase(3, 1.0, _E1, None, 0.0),
                                "stationary phase needs t > 0"),
    "stationary-phase-t-negative": (
        lambda: spherequad.stationary_phase(3, 1.0, _E1, None, -1.0),
        "stationary phase needs t > 0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_are_refused(case):
    call, message = _BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=message):
        call()
