import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthospec import spherequad


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
        got = spherequad.integrate(g, lambda n: n[:, 0] * n[:, 0])
        assert abs(got - spherequad.sphere_area(d) / d) < 1e-12
        got = spherequad.integrate(g, lambda n: n[:, 0] * n[:, 1])
        assert abs(got) < 1e-13


def test_bessel_surface_dim3_closed_form():
    rho = np.linspace(0.5, 40.0, 80)
    want = 4.0 * math.pi * np.sin(rho) / rho
    got = spherequad.bessel_surface(3, rho)
    assert np.max(np.abs(got - want)) < 1e-12


def test_bessel_surface_at_zero_limit():
    for d in (2, 3, 5):
        assert abs(spherequad.bessel_surface(d, 1e-8) - spherequad.sphere_area(d)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 120.0))
def test_osc_integral_matches_bessel(rho):
    # F = 1: the integral is the surface Fourier transform at radius rho
    xi = np.array([rho, 0.0, 0.0])
    val = spherequad.osc_integral(3, xi=xi, t=1.0).value
    want = spherequad.bessel_surface(3, rho)
    assert abs(val - want) < 1e-10


def test_osc_integral_dim2_matches_bessel():
    for rho in (0.7, 5.0, 33.0, 101.5):
        val = spherequad.osc_integral(2, xi=np.array([0.0, rho]), t=1.0).value
        want = spherequad.bessel_surface(2, rho)
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


def test_osc_integral_under_resolved():
    with pytest.raises(spherequad.UnderResolved):
        spherequad.osc_integral(2, xi=np.array([400.0, 0.0]), t=1.0, order=6)
    with pytest.raises(spherequad.UnderResolved):
        spherequad.osc_integral(3, xi=np.array([30.0, -50.0, 80.0]), t=1.0, order=6)

    # the inner rule alone: cos(8 phi) about e1 aliases to 1 on the 8 azimuth
    # nodes of order 4, and only doubling the inner order exposes it
    def F(n):
        return np.cos(8.0 * np.arctan2(n[:, 2], n[:, 1]))

    assert abs(spherequad.osc_integral(3, F=F).value) < 1e-12
    with pytest.raises(spherequad.UnderResolved):
        spherequad.osc_integral(3, F=F, order=4)


def test_aligned_grid_with_equal_orders_is_the_product_grid():
    for d in (2, 3, 4, 5):
        for n in (1, 7, 24):
            full, same = spherequad.grid(d, n), spherequad.grid(d, n, n)
            assert full.nodes.tobytes() == same.nodes.tobytes()
            assert full.weights.tobytes() == same.weights.tobytes()
        g = spherequad.grid(d, 40, 9)
        assert abs(float(np.sum(g.weights)) - spherequad.sphere_area(d)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-13


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
    assert abs(val - spherequad.bessel_surface(d, rho)) < 1e-10


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

    got = spherequad.osc_integral(d, F=F, xi=xi, beta0=beta0, t=t, xtilde=xtilde).value
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
    rep = spherequad.cap_decay_check(3, xi=xi, ts=np.geomspace(40.0, 400.0, 8))
    assert rep.exponent <= -3.0


def test_cap_decay_needs_two_samples():
    with pytest.raises(ValueError):
        spherequad.cap_decay_check(3, xi=np.array([1.0, 0.0, 0.0]), ts=[50.0])


def test_osc_integral_split_pieces_sum():
    xi = np.array([3.0, 1.0, 0.0])
    res = spherequad.osc_integral(3, xi=xi, t=20.0, split=True)
    total = sum(res.pieces.values())
    assert abs(total - res.value) < 1e-10
    assert set(res.pieces) == {"cap_plus", "equator", "cap_minus"}
