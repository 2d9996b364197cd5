import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthospec import convex


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


directions2 = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda v: math.hypot(*v) > 1e-3)

directions3 = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda v: np.linalg.norm(v) > 1e-3)


def test_ball_support_closed_form():
    B = convex.ball((0.3, -0.2, 0.1), 0.7)
    theta = unit((1.0, 2.0, -0.5))
    want = 0.7 + theta @ np.array([0.3, -0.2, 0.1])
    assert abs(float(B.h(theta[None, :])[0]) - want) < 1e-14


def test_ellipsoid_support_closed_form():
    E = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    theta = unit((0.6, -0.8))
    want = math.sqrt((1.3 * theta[0]) ** 2 + (0.7 * theta[1]) ** 2)
    assert abs(float(E.h(theta[None, :])[0]) - want) < 1e-14


def test_point_gradient_is_the_point():
    P = convex.point((0.4, -1.2))
    g = P.grad(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(g, [[0.4, -1.2], [0.4, -1.2]], atol=1e-15)
    assert P.is_point


@settings(max_examples=60, deadline=None)
@given(directions3)
def test_euler_identity(v):
    # 1-homogeneity: h(theta) = theta . grad h(theta)
    body = convex.minkowski_sum(
        convex.ellipsoid((0.1, 0.0, -0.3), (1.1, 0.8, 0.6)),
        convex.ball((0.0, 0.2, 0.0), 0.4),
    )
    theta = unit(v)[None, :]
    h = float(body.h(theta)[0])
    assert abs(h - float(theta[0] @ body.grad(theta)[0])) < 1e-10


@settings(max_examples=60, deadline=None)
@given(directions2)
def test_minkowski_support_adds(v):
    A = convex.ellipsoid((0.2, -0.1), (1.3, 0.7))
    B = convex.ball((0.0, 0.4), 0.5)
    S = convex.minkowski_sum(A, B)
    theta = unit(v)[None, :]
    assert abs(float(S.h(theta)[0]) - float(A.h(theta)[0]) - float(B.h(theta)[0])) < 1e-13
    assert np.allclose(S.grad(theta), A.grad(theta) + B.grad(theta), atol=1e-12)
    assert np.allclose(S.hess(theta), A.hess(theta) + B.hess(theta), atol=1e-12)
    assert np.allclose(S.h_range(), np.add(A.h_range(), B.h_range()), atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(directions2)
def test_reflection_flips_the_argument(v):
    A = convex.ellipsoid((0.2, -0.1), (1.3, 0.7))
    R = convex.reflect(A)
    theta = unit(v)[None, :]
    assert abs(float(R.h(theta)[0]) - float(A.h(-theta)[0])) < 1e-14


def test_inverse_gauss_lands_on_the_boundary():
    E = convex.ellipsoid((0.3, -0.2, 0.0), (1.2, 0.9, 0.5))
    g = convex.spherequad.grid(3, 16)
    x = convex.inverse_gauss(E, g.nodes) - np.array([0.3, -0.2, 0.0])
    level = (x / np.array([1.2, 0.9, 0.5])) ** 2
    assert np.max(np.abs(level.sum(axis=1) - 1.0)) < 1e-10


def principal_radii(body, theta):
    """Principal curvature radii (n, d-1), ascending, at unit normals theta.

    The reference the closed-form radius enclosures are checked against.
    Shifting theta's eigenvalue 0 of H to -(1 + |H|_F), below every other
    eigenvalue, leaves the radii as the top d-1 eigenvalues.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    H = body.hess(theta)
    mu = 1.0 + np.linalg.norm(H, axis=(1, 2))
    shifted = H - mu[:, None, None] * (theta[:, :, None] * theta[:, None, :])
    return np.linalg.eigvalsh(shifted)[:, 1:]


def _uncertified(dim, *parts):
    # skips the strict-convexity refusal of the constructors
    return convex.SupportBody(dim=dim, kind="sum", parts=parts)


def test_principal_radii_of_a_ball():
    for dim in (2, 3, 4, 5):
        B = convex.ball(np.linspace(0.4, -0.3, dim), 0.35)
        radii = principal_radii(B, convex.spherequad.grid(dim, 8).nodes)
        assert radii.shape[1] == dim - 1
        assert np.max(np.abs(radii - 0.35)) < 1e-12


def test_area_element_point_power():
    # a point's area element is t^(d-1): coefficients (0, ..., 0, 1)
    P = convex.point((0.0, 0.0, 0.0))
    theta = convex.spherequad.grid(3, 6).nodes
    coeffs = convex._area_coeffs(P, theta)
    assert coeffs.shape == (theta.shape[0], 3)
    vals = 2.5 ** np.arange(3) @ coeffs.T
    assert np.max(np.abs(vals - 2.5**2)) < 1e-12


def test_steiner_disc():
    D = convex.steiner(convex.ball((0.0, 0.0), 0.6))
    assert abs(D.volume - math.pi * 0.36) < 1e-10
    assert abs(D.intrinsic[0] - 1.0) < 1e-12
    assert abs(D.intrinsic[1] - math.pi * 0.6) < 1e-10      # half perimeter
    assert abs(D.intrinsic[2] - math.pi * 0.36) < 1e-10


def test_steiner_ball_intrinsic_volumes():
    D = convex.steiner(convex.ball((0.1, -0.2, 0.4), 0.5))
    want = [1.0, 2.0, math.pi / 2.0, math.pi / 6.0]
    assert np.max(np.abs(D.intrinsic - want)) < 1e-9


def test_steiner_shift_identity():
    # Vol((K + rB) + tB) = Vol(K + (t + r)B) as polynomials in t
    K = convex.ellipsoid((0.0, 0.3, 0.0), (1.1, 0.8, 0.6))
    Kr = convex.minkowski_sum(K, convex.ball((0.0, 0.0, 0.0), 0.4))
    a = convex.steiner(K)
    b = convex.steiner(Kr)
    for t in (0.0, 0.7, 2.3):
        assert abs(np.polyval(b.steiner_coeffs[::-1], t)
                   - np.polyval(a.steiner_coeffs[::-1], t + 0.4)) < 1e-8


def test_steiner_translation_invariance():
    E0 = convex.steiner(convex.ellipsoid((0.0, 0.0), (1.3, 0.7)))
    E1 = convex.steiner(convex.ellipsoid((5.0, -2.0), (1.3, 0.7)))
    assert np.max(np.abs(E0.intrinsic - E1.intrinsic)) < 1e-10


def test_steiner_rotation_invariance():
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    E0 = convex.steiner(convex.ellipsoid((0.0, 0.0), (1.3, 0.7)))
    E1 = convex.steiner(convex.ellipsoid((0.0, 0.0), (1.3, 0.7), rotation=R))
    assert np.max(np.abs(E0.intrinsic - E1.intrinsic)) < 1e-9


def test_steiner_refuses_an_under_resolved_body():
    # a degree-60 bump needs more than the order-48 rule: doubling the order
    # moves the moments by about 5e-6, far past 1e-9 of their size
    bumped = convex.harmonic(convex.ball((0.0, 0.0, 0.0), 1.0),
                             [(60, (0.3, 0.5, 0.8), 2e-5)])
    with pytest.raises(convex.spherequad.UnderResolved,
                       match="steiner surface moment 0, order doubling 48->96"):
        convex.steiner(bumped)


def _round_bodies(d):
    """A point, a ball, a point plus a ball, and two balls kept as separate parts."""
    c = np.linspace(-0.3, 0.4, d)
    return [(convex.point(c), 0.0), (convex.ball(c, 0.7), 0.7),
            (convex.minkowski_sum(convex.point(-c), convex.ball(c, 0.35)), 0.35),
            (convex.SupportBody(dim=d, kind="sum", parts=(convex._Ball(c, 0.25),
                                                         convex._Ball(-c, 1.5))), 1.75)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_steiner_of_points_and_balls_is_the_closed_form(d):
    # V_j = C(d, j) omega_d / omega_(d-j) r^j, omega_k = pi^(k/2) / Gamma(k/2 + 1)
    def omega(k):
        return mp.pi ** (mp.mpf(k) / 2) / mp.gamma(mp.mpf(k) / 2 + 1)

    for body, r in _round_bodies(d):
        got = convex.steiner(body).intrinsic
        want = [float(math.comb(d, j) * omega(d) / omega(d - j) * mp.mpf(r) ** j)
                for j in range(d + 1)]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (body.parts, got, want)


def test_ellipsoid_volume():
    D = convex.steiner(convex.ellipsoid((0.0, 0.0, 0.0), (1.2, 0.9, 0.5)))
    assert abs(D.volume - 4.0 * math.pi / 3.0 * 1.2 * 0.9 * 0.5) < 1e-9


def test_harmonic_rejects_odd_degree():
    base = convex.ball((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        convex.harmonic(base, [(3, (1.0, 0.0), 0.05)])


@pytest.mark.parametrize("degree", [4.7, True, "4", math.nan, math.inf, 0, -2])
def test_harmonic_refuses_a_degree_that_is_not_an_even_integer(degree):
    base = convex.ball((0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="not an even integer"):
        convex.harmonic(base, [(degree, (1.0, 0.0), 0.01)])


def test_harmonic_takes_an_integral_float_degree():
    base = convex.ball((0.0, 0.0), 1.0)
    a = convex.harmonic(base, [(4.0, (1.0, 0.0), 0.01)])
    b = convex.harmonic(base, [(4, (1.0, 0.0), 0.01)])
    u = np.array([[0.6, 0.8], [1.0, 0.0]])
    assert np.array_equal(a.h(u), b.h(u))


def test_harmonic_rejects_nonconvex_perturbation():
    base = convex.ball((0.0, 0.0), 1.0)
    with pytest.raises(Exception):
        convex.harmonic(base, [(4, (1.0, 0.0), 10.0)])


_NON_FINITE = {
    "point-x0": lambda: convex.point((0.0, math.nan)),
    "ball-center": lambda: convex.ball((math.inf, 0.0), 0.5),
    "ball-radius-nan": lambda: convex.ball((0.0, 0.0), math.nan),
    "ball-radius-inf": lambda: convex.ball((0.0, 0.0), math.inf),
    "ellipsoid-center": lambda: convex.ellipsoid((0.0, math.nan), (1.0, 0.5)),
    "ellipsoid-semiaxes": lambda: convex.ellipsoid((0.0, 0.0), (1.0, math.nan)),
    "ellipsoid-rotation": lambda: convex.ellipsoid(
        (0.0, 0.0), (1.0, 0.5), rotation=[[1.0, 0.0], [0.0, math.nan]]),
    "harmonic-coeff": lambda: convex.harmonic(
        convex.ball((0.0, 0.0), 1.0), [(4, (1.0, 0.0), math.nan)]),
    "harmonic-axis": lambda: convex.harmonic(
        convex.ball((0.0, 0.0), 1.0), [(4, (math.nan, 0.0), 0.01)]),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_constructors_refuse_non_finite_parameters(case):
    with pytest.raises(ValueError):
        _NON_FINITE[case]()


# a bool read as 1, strings read through float() and complex values
_NOT_REAL = {
    "ball-radius-bool": lambda: convex.ball((0.0, 0.0), True),
    "ball-center-strings": lambda: convex.ball(("0.3", "0.1"), 0.5),
    # np.asarray reads a bool among floats as 1.0
    "ball-center-bool-among-floats": lambda: convex.ball((True, 0.1), 0.5),
    "point-x0-complex": lambda: convex.point((1j, 0.0)),
    "ellipsoid-semiaxes-bools": lambda: convex.ellipsoid((0.0, 0.0), (True, True)),
    "ellipsoid-rotation-strings": lambda: convex.ellipsoid(
        (0.0, 0.0), (1.0, 0.5), rotation=[["1", "0"], ["0", "1"]]),
    "harmonic-coeff-string": lambda: convex.harmonic(
        convex.ball((0.0, 0.0), 1.0), [(4, (1.0, 0.0), "0.01")]),
}


@pytest.mark.parametrize("case", sorted(_NOT_REAL))
def test_constructors_refuse_values_that_are_not_real_numbers(case):
    with pytest.raises(TypeError, match="real numbers"):
        _NOT_REAL[case]()


@pytest.mark.parametrize("axis", [(0.0, 0.0), (1e200, 1e200)], ids=["zero", "norm-overflows"])
def test_harmonic_refuses_an_axis_without_a_finite_nonzero_norm(axis):
    # normalised, these axes were NaN or zero, and the body passed its certificate
    with pytest.raises(ValueError, match="harmonic axis"), np.errstate(over="ignore"):
        convex.harmonic(convex.ball((0.0, 0.0), 1.0), [(2, axis, 0.01)])


def test_harmonic_body_is_usable():
    # h(phi) = 1 + c cos(4 phi): radius h + h'' = 1 - 15 c cos(4 phi),
    # area (1/2) int h^2 - h'^2 = pi (1 - 15 c^2 / 2), half perimeter pi
    c = 0.02
    body = convex.harmonic(convex.ball((0.0, 0.0), 1.0), [(4, (1.0, 0.0), c)])
    nodes = convex.spherequad.grid(2, 32).nodes
    radii = principal_radii(body, nodes)
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    assert np.max(np.abs(radii[:, 0] - (1.0 - 15.0 * c * np.cos(4.0 * phi)))) < 1e-13
    D = convex.steiner(body)
    assert abs(D.volume - math.pi * (1.0 - 7.5 * c**2)) < 1e-12
    assert abs(D.intrinsic[1] - math.pi) < 1e-12
    h_lo, h_hi = body.h_range()
    assert (h_lo, h_hi) == (1.0 - c, 1.0 + c)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_zonal_profile_matches_mpmath(dim):
    # m-th derivative of T_k (dim 2) or of C^lam_k / C^lam_k(1), lam = (dim-2)/2
    s = np.array([-1.0, -0.73, -0.2, 0.31, 0.88, 1.0])
    lam = mp.mpf(dim - 2) / 2
    with mp.workdps(40):
        for k in range(9):
            if dim == 2:
                f, norm = (lambda x: mp.chebyt(k, x)), 1
            else:
                f, norm = (lambda x: mp.gegenbauer(k, lam, x)), mp.gegenbauer(k, lam, 1)
            for m in range(k + 1):
                want = np.array([float(mp.diff(f, mp.mpf(v), m) / norm) for v in s])
                got = convex._zonal_profile(dim, k, s, m)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (k, m)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("degree", [2, 4, 6])
def test_zonal_hessian_matches_gradient_difference(dim, degree):
    rng = np.random.default_rng(10 * dim + degree)
    axis = unit(rng.normal(size=dim))
    part = convex._Zonal(dim, degree, axis, 0.7)
    theta = rng.normal(size=(40, dim))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    H = part.hess(theta)
    assert np.array_equal(H, np.swapaxes(H, 1, 2))
    assert np.max(np.abs(np.einsum("nij,nj->ni", H, theta))) < 1e-12
    # central difference of the 0-homogeneous gradient, column by column
    def grad0(x):
        return part.grad(x / np.linalg.norm(x, axis=1, keepdims=True))

    step = 1e-5
    cols = [(grad0(theta + e) - grad0(theta - e)) / (2.0 * step) for e in step * np.eye(dim)]
    fd = np.stack(cols, axis=2)
    assert np.max(np.abs(H - fd)) < 1e-7


def _rotation(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q


@pytest.mark.parametrize("dim", [2, 3])
def test_h_range_encloses_h(dim):
    nodes = convex.spherequad.grid(dim, 400 if dim == 2 else 120).nodes
    c = np.linspace(0.3, -0.5, dim)
    P = convex.point(c)
    B = convex.ball(c, 0.6)
    E0 = convex.ellipsoid(np.zeros(dim), np.linspace(1.3, 0.6, dim), rotation=_rotation(dim, dim))
    E = convex.ellipsoid(c, np.linspace(1.3, 0.6, dim), rotation=_rotation(dim, dim))
    Z = convex.harmonic(B, [(4, np.ones(dim), 0.01), (2, np.eye(dim)[0], 0.02)])
    S = convex.minkowski_sum(E, Z)
    for body in (P, B, E0, E, Z, S):
        h_lo, h_hi = body.h_range()
        h = body.h(nodes)
        assert h_lo <= np.min(h) and np.max(h) <= h_hi
    # the closed forms are attained for points, balls and centred ellipsoids
    for body in (P, B, E0):
        h_lo, h_hi = body.h_range()
        h = body.h(nodes)
        assert np.min(h) - h_lo < 1e-3 and h_hi - np.max(h) < 1e-3


def _dense_radii(body):
    """Least and greatest principal radius over a dense sphere grid."""
    order = {2: 400, 3: 120, 4: 28}[body.dim]
    radii = principal_radii(body, convex.spherequad.grid(body.dim, order).nodes)
    return float(np.min(radii)), float(np.max(radii))


def _assert_encloses(body):
    # the slack covers the rounding of the eigenvalue solver where a bound is attained
    r_lo, r_hi = body.radius_range()
    lo, hi = _dense_radii(body)
    assert r_lo <= lo + 1e-12 and hi <= r_hi + 1e-12, (r_lo, lo, hi, r_hi)


@pytest.mark.parametrize("dim", [2, 3])
def test_derived_bodies_take_their_radii_from_the_operands(dim):
    c = np.linspace(0.3, -0.5, dim)
    B = convex.ball(c, 0.6)
    E = convex.ellipsoid(c, np.linspace(1.3, 0.6, dim), rotation=_rotation(dim, dim))
    Z = convex.harmonic(B, [(4, np.ones(dim), 0.01), (2, np.eye(dim)[0], 0.02)])
    # the lump of the convex-bodies benchmark: ball 0.4 with degree-2 and degree-4 terms
    lump = convex.harmonic(convex.ball(c, 0.4), [(2, np.ones(dim), 0.03),
                                                 (4, np.linspace(-0.6, 0.8, dim), 0.008)])
    for body in (B, E, Z, lump):
        R = convex.reflect(body)
        assert R.radius_range() == body.radius_range()
        _assert_encloses(body)
        _assert_encloses(R)
    for a, b in ((E, Z), (Z, convex.reflect(E)), (B, E), (lump, convex.reflect(lump))):
        S = convex.minkowski_sum(a, b)
        assert np.allclose(S.radius_range(), np.add(a.radius_range(), b.radius_range()),
                           rtol=0.0, atol=1e-15)
        _assert_encloses(S)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.floats(0.2, 2.0),
       st.lists(st.tuples(st.sampled_from([2, 4, 6]),
                          st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                          st.floats(-0.05, 0.05)), min_size=1, max_size=3))
def test_radius_range_encloses_random_harmonic_bodies(dim, radius, terms):
    # the enclosure holds whether or not the body is convex, so the bodies
    # are built without the constructors' refusal
    parts = [convex._Ball(np.zeros(dim), radius)]
    for degree, axis, coeff in terms:
        axis = np.asarray(axis[:dim])
        if np.linalg.norm(axis) < 1e-3:
            axis = np.eye(dim)[0]
        parts.append(convex._Zonal(dim, degree, unit(axis), coeff))
    _assert_encloses(_uncertified(dim, *parts))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_zonal_radius_extremes_are_attained(dim, degree):
    # the tangent eigenvalues of a unit zonal term at s = u . axis, on a dense s grid
    s = np.linspace(-1.0, 1.0, 200_001)
    g, dg, ddg = (convex._zonal_profile(dim, degree, s, m) for m in range(3))
    values = [g - s * dg + (1.0 - s * s) * ddg] + ([g - s * dg] if dim >= 3 else [])
    lo, hi = convex._zonal_radius_extremes(dim, degree)
    values = np.concatenate(values)
    assert lo <= np.min(values) + 1e-12 and np.max(values) <= hi + 1e-12
    # |p''| < 1e5 on these profiles and the samples lie 1e-5 apart, so a peak
    # falls at most 1e5 (5e-6)^2 / 2 < 2e-6 between them
    assert np.min(values) - lo < 2e-6 and hi - np.max(values) < 2e-6
    if dim == 2:
        # T_k(cos phi) = cos(k phi): h + h'' = (1 - k^2) cos(k phi)
        assert max(abs(lo + degree**2 - 1), abs(hi - degree**2 + 1)) < 1e-12


_CLOSED_FORM_RADII = {
    "ball": (lambda: convex.ball([0.1, 0.0, -0.2, 0.0, 0.3], 0.7), (0.7, 0.7)),
    # [a_min^2 / a_max, a_max^2 / a_min]
    "ellipsoid": (lambda: convex.ellipsoid(np.zeros(5), np.linspace(0.3, 0.9, 5)), (0.1, 2.7)),
    "ellipsoid-rotated-2": (lambda: convex.ellipsoid((0.3, -0.1), (1.3, 0.7), _rotation(2, 1)),
                            (0.49 / 1.3, 1.69 / 0.7)),
    "ellipsoid-rotated-3": (lambda: convex.ellipsoid(
        (0.0, 0.2, 0.1), (0.5, 0.35, 0.25), _rotation(3, 4)), (0.0625 / 0.5, 0.25 / 0.25)),
    "ellipsoid-rotated-5": (lambda: convex.ellipsoid(np.zeros(5), np.linspace(0.9, 0.3, 5),
                                                     _rotation(5, 2)), (0.1, 2.7)),
    # degree 2 in d = 5: G = (5 s^2 - 1) / 4 has G - s G' = -(5 s^2 + 1) / 4 in
    # [-3/2, -1/4] and G - s G' + (1 - s^2) G'' = (9 - 15 s^2) / 4 in [-3/2, 9/4]
    "harmonic": (lambda: convex.harmonic(convex.ball(np.zeros(5), 0.6),
                                         [(2, (0.3, -0.2, 0.5, 0.1, 0.7), 0.02)]),
                 (0.6 - 0.03, 0.6 + 0.045)),
}


@pytest.mark.parametrize("case", sorted(_CLOSED_FORM_RADII))
def test_constructors_take_radii_in_closed_form(case, monkeypatch):
    # a d = 5 grid on which sampled radii would be near their extremes holds
    # hundreds of thousands of nodes; no constructor evaluates one
    def no_grid(*args):
        raise AssertionError("a constructor evaluated a sphere grid")

    monkeypatch.setattr(convex.spherequad, "grid", no_grid)
    build, want = _CLOSED_FORM_RADII[case]
    assert np.max(np.abs(np.subtract(build().radius_range(), want))) < 1e-12
    with pytest.raises(ValueError):
        convex.ball(np.zeros(5), convex._MIN_RADIUS)


def test_harmonic_refuses_a_body_that_dips_between_sample_directions():
    # radius 1 - 15 c cos(4 (phi - 3.75 deg)) has least value -0.002 at c = 0.0668;
    # the dip lies between the directions of an order-24 sphere grid, whose
    # radii all exceed 0.03
    a = math.radians(3.75)
    with pytest.raises(ValueError, match="strictly convex"):
        convex.harmonic(convex.ball((0.0, 0.0), 1.0), [(4, (math.cos(a), math.sin(a)), 0.0668)])


@pytest.mark.parametrize("rotation", [np.zeros((2, 2)), np.ones((2, 2))])
def test_ellipsoid_refuses_a_singular_rotation(rotation):
    # B = R diag(a^2) R^T is singular: the body is flat, its least radius 0
    with pytest.raises(ValueError, match="strictly convex"):
        convex.ellipsoid((0.0, 0.0), (1.0, 0.5), rotation=rotation)


@pytest.mark.parametrize("rotation", [
    2.0 * np.eye(2),                         # semiaxes (2, 1), h(e1) = 2
    [[1.0, 1.0], [0.0, 1.0]],                # a shear
    [[0.8, -0.6], [0.6, 0.8 + 1e-8]],        # max |R^T R - I| = 1.6e-8
], ids=["scaled", "shear", "off-by-1e-8"])
def test_ellipsoid_refuses_a_rotation_that_is_not_orthogonal(rotation):
    with pytest.raises(ValueError, match="orthogonal"):
        convex.ellipsoid((0.0, 0.0), (1.0, 0.5), rotation=rotation)


_BAD_SHAPES = {
    "ellipsoid-semiaxis-zero": (lambda: convex.ellipsoid((0.0, 0.0), (1.0, 0.0)),
                                "semiaxes must be positive"),
    "ellipsoid-semiaxis-negative": (lambda: convex.ellipsoid((0.0, 0.0), (1.0, -0.5)),
                                    "semiaxes must be positive"),
    "minkowski-sum-dimensions": (lambda: convex.minkowski_sum(
        convex.ball((0.0, 0.0), 1.0), convex.ball((0.0, 0.0, 0.0), 1.0)), "^dimension mismatch$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SHAPES))
def test_constructors_refuse_bad_shapes(case):
    build, message = _BAD_SHAPES[case]
    with pytest.raises(ValueError, match=message):
        build()


def test_principal_radii_keep_a_negative_radius():
    # h(phi) = 1 + c cos(4 phi) has radius h + h'' = 1 - 15 c cos(4 phi),
    # negative near phi = 0 for c = 0.2; theta's own eigenvalue must not
    # displace it
    c = 0.2
    body = _uncertified(2, convex._Ball(np.zeros(2), 1.0), convex._Zonal(2, 4, np.eye(2)[0], c))
    nodes = convex.spherequad.grid(2, 32).nodes
    radii = principal_radii(body, nodes)
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    want = 1.0 - 15.0 * c * np.cos(4.0 * phi)
    assert np.min(want) < -1.0
    assert np.max(np.abs(radii[:, 0] - want)) < 1e-13


def _unit_rows(rng, n, dim):
    theta = rng.normal(size=(n, dim))
    return theta / np.linalg.norm(theta, axis=1, keepdims=True)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_ellipsoid_curvature_closed_form(dim):
    # the product of the radii (1 / Gauss curvature) of an ellipsoid is
    # (prod a_i)^2 / q^(d+1), q = sqrt(theta . B theta) the support function
    # of the centred body
    a = np.linspace(1.3, 0.6, dim)
    R = _rotation(dim, dim)
    B = R @ np.diag(a**2) @ R.T
    E = _uncertified(dim, convex._Ellipsoid(np.linspace(0.3, -0.5, dim), B))
    theta = _unit_rows(np.random.default_rng(dim), 400, dim)
    q = np.sqrt(np.einsum("ni,ij,nj->n", theta, B, theta))
    want = np.prod(a) ** 2 / q ** (dim + 1)
    got = (convex._area_coeffs(E, theta)[:, 0], np.prod(principal_radii(E, theta), axis=1))
    for g in got:
        assert np.max(np.abs(g / want - 1.0)) < 1e-13


def _frame_radii(body, theta):
    """Radii as eigenvalues of the Hessian in Householder tangent frames.

    The reflection that maps e_d (or -e_d, within 1e-2 of e_d) to theta
    carries e_1..e_(d-1) onto an orthonormal tangent basis.
    """
    d = theta.shape[1]
    w = theta.copy()
    w[:, -1] -= 1.0
    w[np.linalg.norm(w, axis=1) < 1e-2, -1] += 2.0
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    frames = np.eye(d)[None, :, : d - 1] - 2.0 * w[:, :, None] * w[:, None, : d - 1]
    return np.linalg.eigvalsh(np.einsum("nia,nij,njb->nab", frames, body.hess(theta), frames))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_area_coeffs_match_the_frame_radii(dim):
    rng = np.random.default_rng(100 + dim)
    c = np.linspace(0.3, -0.5, dim)
    R = _rotation(dim, 7 * dim)
    E = convex._Ellipsoid(c, R @ np.diag(np.linspace(1.3, 0.6, dim) ** 2) @ R.T)
    bumps = (convex._Zonal(dim, 4, unit(np.ones(dim)), 0.01),
             convex._Zonal(dim, 2, np.eye(dim)[0], 0.02))
    Z = _uncertified(dim, convex._Ball(c, 0.6), *bumps)  # a harmonic body
    S = _uncertified(dim, E, *Z.parts)                   # and its sum with E
    theta = _unit_rows(rng, 300, dim)
    # within 1e-8 of +-e_d, where the frames switch reflections
    near = np.zeros((6, dim))
    near[:, -1] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    near[:, :-1] = rng.normal(size=(6, dim - 1)) * np.array([1e-8, 1e-8, 1e-10, 1e-10, 0.0, 0.0])[:, None]
    theta = np.vstack([theta, near / np.linalg.norm(near, axis=1, keepdims=True)])
    ts = np.array([0.0, 0.5, 3.0])
    for body in (Z, S):
        radii = _frame_radii(body, theta)
        # e_j of the radii, as coefficients of prod (t + r_i) in ascending powers
        want = np.zeros((theta.shape[0], dim))
        want[:, 0] = 1.0
        for i in range(dim - 1):
            want[:, 1 : i + 2] += want[:, : i + 1] * radii[:, i : i + 1]
        want = want[:, ::-1]
        coeffs = convex._area_coeffs(body, theta)
        assert np.max(np.abs(coeffs / want - 1.0)) < 1e-13
        assert np.max(np.abs(principal_radii(body, theta) / radii - 1.0)) < 1e-13
        area = (ts[:, None] ** np.arange(dim)) @ coeffs.T
        assert area.shape == (ts.size, theta.shape[0])
        want_area = np.prod(ts[:, None, None] + radii[None, :, :], axis=-1)
        assert np.max(np.abs(area / want_area - 1.0)) < 1e-13
