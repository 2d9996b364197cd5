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


def _uncertified(dim, *parts):
    # skips the build-time validation grid, which in d = 5 holds 663,552
    # nodes and takes seconds per body
    return convex.SupportBody(dim=dim, kind="sum", parts=parts)


def test_principal_radii_of_a_ball():
    for dim in (2, 3, 4, 5):
        B = _uncertified(dim, convex._Ball(np.linspace(0.4, -0.3, dim), 0.35))
        radii = convex.principal_radii(B, convex.spherequad.grid(dim, 8).nodes)
        assert radii.shape[1] == dim - 1
        assert np.max(np.abs(radii - 0.35)) < 1e-12


def test_area_element_point_power():
    P = convex.point((0.0, 0.0, 0.0))
    theta = convex.spherequad.grid(3, 6).nodes
    vals = convex.area_element(P, 2.5, theta)
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
        assert abs(b.parallel_volume(t) - a.parallel_volume(t + 0.4)) < 1e-8


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
    # moves the moments by about 5e-6, far past the 1e-8 tolerance
    bumped = convex.harmonic(convex.ball((0.0, 0.0, 0.0), 1.0),
                             [(60, (0.3, 0.5, 0.8), 2e-5)])
    with pytest.raises(convex.QuadratureDisagreement, match="48/96"):
        convex.steiner(bumped)


def test_ellipsoid_volume():
    D = convex.steiner(convex.ellipsoid((0.0, 0.0, 0.0), (1.2, 0.9, 0.5)))
    assert abs(D.volume - 4.0 * math.pi / 3.0 * 1.2 * 0.9 * 0.5) < 1e-9


def test_harmonic_rejects_odd_degree():
    base = convex.ball((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        convex.harmonic(base, [(3, (1.0, 0.0), 0.05)])


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
    # NaN principal radii, refused by the validation grid
    "harmonic-axis": lambda: convex.harmonic(
        convex.ball((0.0, 0.0), 1.0), [(4, (math.nan, 0.0), 0.01)]),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_constructors_refuse_non_finite_parameters(case):
    with pytest.raises(ValueError):
        _NON_FINITE[case]()


def test_harmonic_body_is_usable():
    # h(phi) = 1 + c cos(4 phi): radius h + h'' = 1 - 15 c cos(4 phi),
    # area (1/2) int h^2 - h'^2 = pi (1 - 15 c^2 / 2), half perimeter pi
    c = 0.02
    body = convex.harmonic(convex.ball((0.0, 0.0), 1.0), [(4, (1.0, 0.0), c)])
    nodes = convex.spherequad.grid(2, 32).nodes
    radii = convex.principal_radii(body, nodes)
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


def _grid_radii(body):
    radii = convex.principal_radii(body, convex.spherequad.grid(body.dim, 24).nodes)
    return float(np.min(radii)), float(np.max(radii))


@pytest.mark.parametrize("dim", [2, 3])
def test_derived_bodies_take_their_radii_from_the_operands(dim):
    c = np.linspace(0.3, -0.5, dim)
    B = convex.ball(c, 0.6)
    E = convex.ellipsoid(c, np.linspace(1.3, 0.6, dim), rotation=_rotation(dim, dim))
    Z = convex.harmonic(B, [(4, np.ones(dim), 0.01), (2, np.eye(dim)[0], 0.02)])
    # the grid is antipodally symmetric: a reflection's grid radii keep their bits
    for body in (B, E, Z):
        R = convex.reflect(body)
        assert (R.r_min, R.r_max) == (body.r_min, body.r_max) == _grid_radii(R)
    # by Weyl's inequality the operand sums bracket the grid radii of the sum;
    # the slack covers the rounding of the eigenvalue solver
    for a, b in ((E, Z), (Z, convex.reflect(E)), (B, E)):
        S = convex.minkowski_sum(a, b)
        lo, hi = _grid_radii(S)
        assert S.r_min == a.r_min + b.r_min and S.r_max == a.r_max + b.r_max
        assert S.r_min <= lo + 1e-12 and hi <= S.r_max + 1e-12


def test_principal_radii_keep_a_negative_radius():
    # h(phi) = 1 + c cos(4 phi) has radius h + h'' = 1 - 15 c cos(4 phi),
    # negative near phi = 0 for c = 0.2; theta's own eigenvalue must not
    # displace it
    c = 0.2
    body = _uncertified(2, convex._Ball(np.zeros(2), 1.0), convex._Zonal(2, 4, np.eye(2)[0], c))
    nodes = convex.spherequad.grid(2, 32).nodes
    radii = convex.principal_radii(body, nodes)
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
    got = (convex._area_coeffs(E, theta)[:, 0], np.prod(convex.principal_radii(E, theta), axis=1))
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
        assert np.max(np.abs(convex.principal_radii(body, theta) / radii - 1.0)) < 1e-13
        area = convex.area_element(body, ts, theta)
        assert area.shape == (ts.size, theta.shape[0])
        want_area = np.prod(ts[:, None, None] + radii[None, :, :], axis=-1)
        assert np.max(np.abs(area / want_area - 1.0)) < 1e-13
