import csv
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthospec import _tables, convex, spectrum


@pytest.fixture(scope="module")
def points2_60():
    p = convex.point((0.0, 0.0))
    return spectrum.enumerate(p, p, T=60.0)


def test_point_lattice_lengths(points2_60):
    spec = points2_60
    want = 2.0 * math.pi * np.linalg.norm(spec.xi, axis=1)
    assert np.max(np.abs(spec.lengths - want)) < 1e-10


def test_four_fold_multiplicity(points2_60):
    spec = points2_60
    first = 2.0 * math.pi
    hits = np.sum(np.abs(spec.lengths - first) < 1e-9)
    assert hits == 4
    hits_sqrt2 = np.sum(np.abs(spec.lengths - first * math.sqrt(2.0)) < 1e-9)
    assert hits_sqrt2 == 4


def test_counting_density_ratio(points2_60):
    n = spectrum.counting(points2_60, 60.0)
    assert abs(n * 4.0 * math.pi / 60.0**2 - 1.0) < 0.05


def test_counting_monotone(points2_60):
    counts = [spectrum.counting(points2_60, T) for T in (15.0, 30.0, 45.0, 60.0)]
    assert counts == sorted(counts)
    assert counts[0] > 0


def test_lengths_sorted_and_in_window(points2_60):
    spec = points2_60
    # tied lengths are ordered by xi, so the order holds up to _GROUP_TOL
    assert np.all(np.diff(spec.lengths) >= -spectrum._GROUP_TOL)
    assert spec.lengths[0] > spec.T0
    assert spec.lengths[-1] <= spec.T + 1e-9


def test_newton_closing_relation():
    K1 = convex.ellipsoid((0.3, 0.1), (1.3, 0.7))
    K2 = convex.ball((-0.2, 0.4), 0.5)
    spec = spectrum.enumerate(K1, K2, T=40.0)
    L = spectrum.difference_body(K1, K2)
    resid = 2.0 * math.pi * spec.xi - spec.lengths[:, None] * spec.theta - L.grad(spec.theta)
    assert np.max(np.linalg.norm(resid, axis=1)) < 1e-9


def test_feet_close_up_on_the_cover(points2_60):
    # start at the first body, land on the lattice translate of the second
    spec = points2_60
    foot1 = convex.inverse_gauss(spec.body1, spec.theta)
    foot2 = convex.inverse_gauss(spec.body2, -spec.theta) + 2.0 * math.pi * spec.xi
    assert np.max(np.abs(foot1)) < 1e-12
    assert np.max(np.abs(foot2 - 2.0 * math.pi * spec.xi)) < 1e-9
    assert np.max(np.abs(foot2 - foot1 - spec.lengths[:, None] * spec.theta)) < 1e-9


def test_newton_records_close_to_rounding():
    # converged rows take their last Newton step, so 2 pi xi = x_L(theta) + t theta
    # holds to rounding rather than to the stopping tolerance 1e-12 |w| (4.7e-11
    # here without that step); the phases inherit the closure through beta0 . t theta
    K1 = convex.ellipsoid((0.1, -0.2), (0.9, 0.5), rotation=np.array([[0.8, -0.6], [0.6, 0.8]]))
    K2 = convex.point((0.4, 1.1))
    spec = spectrum.enumerate(K1, K2, T=60.0)
    L = spectrum.difference_body(K1, K2)
    closure = 2.0 * math.pi * spec.xi - L.grad(spec.theta) - spec.lengths[:, None] * spec.theta
    assert len(spec) > 200
    assert np.max(np.abs(closure)) < 1e-12


@pytest.mark.parametrize("swapped", [False, True], ids=["pair", "swapped"])
def test_phases_are_the_holonomy_from_the_start_foot(swapped):
    # the arc leaves the first body of the pair with outward normal theta
    beta0 = np.array([0.3, -0.2])
    modes = {(1, 0): 0.2 + 0.1j, (-1, 0): 0.2 - 0.1j, (1, 2): 0.3j, (-1, -2): -0.3j}
    K1 = convex.ellipsoid((0.1, -0.2), (0.9, 0.5))
    K2 = convex.ball((0.4, 1.1), 0.3)
    start_body, other = (K2, K1) if swapped else (K1, K2)
    spec = spectrum.enumerate(start_body, other, T=30.0,
                              beta=spectrum.TwistForm(beta0, modes))

    def f(x):
        return sum(c * np.exp(1j * (x @ np.asarray(k, dtype=float)))
                   for k, c in modes.items()).real

    def phases(body):
        start = convex.inverse_gauss(body, spec.theta)
        end = start + spec.lengths[:, None] * spec.theta
        return np.exp(1j * (spec.lengths * (spec.theta @ beta0) + f(end) - f(start)))

    assert len(spec) > 20
    assert np.max(np.abs(spec.phases - phases(start_body))) < 1e-12
    assert np.max(np.abs(spec.phases - phases(other))) > 0.1


@pytest.mark.parametrize("K1, K2", [
    (convex.ball((0.3, 0.1, -0.2), 0.4), convex.ball((0.0, 0.5, 0.0), 0.3)),
    (convex.point((0.2, 0.1, -0.4)), convex.point((1.1, -0.3, 0.0))),
], ids=["ball-pair", "point-pair"])
def test_newton_distance_matches_the_closed_form(K1, K2):
    # enumerate sends no point or ball pair to Newton; this keeps Newton
    # checked against an exact answer
    L = spectrum.difference_body(K1, K2)
    assert L.kind in ("point", "ball")
    xi = spectrum._lattice_box(3, 4)
    xi = xi[np.any(xi != 0, axis=1)]
    w = 2.0 * math.pi * xi
    theta, value = spectrum._newton_distance(L, xi, w)
    want_theta, want_value = spectrum._closed_form(L.parts[0], w)
    assert np.all(want_value > 0.0)
    assert np.max(np.abs(theta - want_theta)) < 1e-12
    assert np.max(np.abs(value - want_value)) < 1e-12


def test_closed_form_skips_the_class_on_the_centre_offset():
    # xi = (1, 0) puts w = 2 pi xi on c itself, where theta is undefined: no
    # RuntimeWarning, and the class has length 0, outside every window
    c = (2.0 * math.pi, 0.0)
    spec = spectrum.enumerate(convex.point(c), convex.point((0.0, 0.0)), T0=0.0, T=10.0)
    assert (1, 0) not in set(map(tuple, spec.xi.tolist()))
    assert (0, 0) in set(map(tuple, spec.xi.tolist()))
    assert spec.rejects == ()


def _tied_pair(solver):
    """A pair with many mathematically equal lengths, solved by the given path."""
    if solver == "_closed_form":  # the four-fold classes of the square lattice
        return convex.point((0.0, 0.0)), convex.point((0.0, 0.0)), 60.0
    # the mirror classes (+-a, +-b) of an axis-aligned ellipse
    return convex.ellipsoid((0.0, 0.0), (1.3, 0.7)), convex.point((0.0, 0.0)), 40.0


@pytest.mark.parametrize("solver", ["_closed_form", "_newton_distance"])
def test_last_bit_roundoff_leaves_the_row_order_alone(monkeypatch, solver):
    K1, K2, T = _tied_pair(solver)
    base = spectrum.enumerate(K1, K2, T=T)
    # records are ordered by length groups within _GROUP_TOL, then by xi
    group = np.concatenate(([0], np.cumsum(np.diff(base.lengths) > spectrum._GROUP_TOL)))
    assert np.bincount(group).max() >= 4
    assert np.array_equal(np.lexsort(tuple(base.xi.T[::-1]) + (group,)), np.arange(len(base)))
    rng = np.random.default_rng(5)
    solve = getattr(spectrum, solver)

    def nudged(*args):
        theta, value = solve(*args)
        step = np.where(rng.random(value.size) < 0.5, np.inf, -np.inf)
        return theta, np.nextafter(value, step)

    monkeypatch.setattr(spectrum, solver, nudged)
    moved = spectrum.enumerate(K1, K2, T=T)
    assert not np.array_equal(moved.lengths, base.lengths)
    assert np.array_equal(moved.xi, base.xi)


def test_ball_pair_closed_form_lengths():
    b1 = convex.ball((0.0, 0.0, 0.0), 0.35)
    b2 = convex.ball((0.0, 0.0, 0.0), 0.35)
    spec = spectrum.enumerate(b1, b2, T=70.0)
    axis = np.all(spec.xi[:, 1:] == 0, axis=1) & (spec.xi[:, 0] > 0)
    ks = spec.xi[axis, 0]
    want = 2.0 * math.pi * ks - 0.7
    assert np.max(np.abs(spec.lengths[axis] - want)) < 1e-10


def test_window_edge_keeps_the_boundary_record():
    # xi = (4, 2) has length T - 1e-4 and points almost along c, where h_L peaks
    c = np.array([1.358, 0.670])
    spec = spectrum.enumerate(convex.point(c), convex.point((0.0, 0.0)), T0=1.0, T=26.5852607)
    assert len(spec) == 57
    assert any(tuple(x) == (4, 2) for x in spec.xi)
    want = np.linalg.norm(2.0 * math.pi * spec.xi - c, axis=1)
    assert np.max(np.abs(spec.lengths - want)) < 1e-10


def _closest_to_direction(xi, lengths, c, lo, hi, sign):
    """Index of the lattice length in [lo, hi] whose arc direction is closest to sign * c."""
    w = 2.0 * math.pi * xi
    cosine = ((w - c) @ (sign * c)) / (np.linalg.norm(w - c, axis=1) * np.linalg.norm(c))
    cosine[(lengths < lo) | (lengths > hi)] = -2.0
    return int(np.argmax(cosine))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    c=st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3),
    r=st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
    gap_T=st.floats(-1e-3, 1e-3).filter(lambda g: abs(g) > 1e-7),
    gap_T0=st.floats(-1e-3, 1e-3).filter(lambda g: abs(g) > 1e-7),
)
# arcs within 1e-8 of e_d, kept as a regression input: Newton once stepped
# off the tangent space there and diverged
@example(dim=2, c=[7.2944767219227765e-09, 1.0, 0.0], r=0.0, gap_T=1e-3, gap_T0=6.3e-4)
def test_window_matches_point_and_ball_closed_form(dim, c, r, gap_T, gap_T0):
    # t(xi) = |2 pi xi - c| - r for points (r = 0) and balls; T and T0 sit
    # just above or below true lengths whose arcs run along +c and -c, where
    # h_L reaches its maximum and minimum
    c = np.asarray(c[:dim])
    assume(np.linalg.norm(c) > 0.3)
    box = spectrum._lattice_box(dim, 8 if dim == 2 else 5)
    exact = np.linalg.norm(2.0 * math.pi * box - c, axis=1) - r
    hi = 40.0 if dim == 2 else 25.0
    T = exact[_closest_to_direction(box, exact, c, 0.6 * hi, hi, 1.0)] + gap_T
    T0 = exact[_closest_to_direction(box, exact, c, 5.0, 0.3 * hi, -1.0)] + gap_T0
    assume(np.min(np.abs(exact - T)) > 1e-8 and np.min(np.abs(exact - T0)) > 1e-8)
    if r == 0.0:
        K1, K2 = convex.point(c), convex.point(np.zeros(dim))
    else:
        K1, K2 = convex.ball(c, 0.5 * r), convex.ball(np.zeros(dim), 0.5 * r)
    spec = spectrum.enumerate(K1, K2, T0=T0, T=T)
    want = (exact > T0) & (exact <= T)
    assert spec.rejects == ()
    assert sorted(map(tuple, spec.xi)) == sorted(map(tuple, box[want]))
    assert np.allclose(np.sort(spec.lengths), np.sort(exact[want]), atol=1e-9, rtol=0.0)


def _d5_point_pair():
    rng = np.random.default_rng(1)
    return (convex.point(rng.uniform(0.0, 2.0 * math.pi, 5)),
            convex.point(rng.uniform(0.0, 2.0 * math.pi, 5)))


def test_enumerate_filters_the_lattice_slab_by_slab_in_d5():
    # the candidates filtered one first coordinate at a time are those of the
    # whole cube, so the records keep their bits and their order
    assert np.array_equal(np.concatenate(list(spectrum._lattice_slabs(5, 2))),
                          spectrum._lattice_box(5, 2))
    K1, K2 = _d5_point_pair()
    T0, T = 1.0, 30.0
    spec = spectrum.enumerate(K1, K2, T0=T0, T=T)
    L = spectrum.difference_body(K1, K2)
    h_lo, h_hi = L.h_range()
    box = spectrum._lattice_box(5, int(math.floor((T + h_hi) / (2.0 * math.pi))))
    norms = np.linalg.norm(2.0 * math.pi * box.astype(float), axis=1)
    cands = box[(norms - h_hi <= T) & (norms - h_lo > T0)]
    assert cands.shape[0] <= spectrum._CHUNK
    xi, theta, lengths, rejects = spectrum._solve_chunk(L, cands, T0, T)
    order = spectrum._record_order(lengths)
    assert len(spec) > 10000 and rejects == [] and spec.rejects == ()
    for got, want in ((spec.xi, xi), (spec.theta, theta), (spec.lengths, lengths)):
        assert got.dtype == want.dtype and got.tobytes() == want[order].tobytes()


def test_enumerate_memory_in_d5_is_bounded():
    # the cube [-10, 10]^5 and its float copy take 2 x 155 MiB; its slabs take 1/21 each
    import tracemalloc
    K1, K2 = _d5_point_pair()
    tracemalloc.start()
    try:
        spec = spectrum.enumerate(K1, K2, T0=1.0, T=60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec) == 417992
    assert peak < 256 * 2**20


def test_degenerate_maximizer_is_rejected():
    # xi = (1, 0) has length 5e-7: the negated sphere Hessian of the point
    # pair is the length itself, below the transversality threshold 1e-6
    c = (2.0 * math.pi - 5e-7, 0.0)
    spec = spectrum.enumerate(convex.point(c), convex.point((0.0, 0.0)), T0=0.0, T=10.0)
    assert len(spec.rejects) == 1
    xi, reason, length = spec.rejects[0]
    assert (xi, reason) == ((1, 0), "NonUniqueMaximizer")
    assert length == pytest.approx(5e-7, rel=1e-6)
    assert (1, 0) not in set(map(tuple, spec.xi.tolist()))


def test_short_ball_pair_class_is_kept():
    # xi = (1, 0) has length 5e-7, but the negated sphere Hessian t + r
    # stays above the transversality threshold 1e-6
    r = 1.5e-6
    c = (2.0 * math.pi - 2.0 * r - 5e-7, 0.0)
    spec = spectrum.enumerate(convex.ball(c, r), convex.ball((0.0, 0.0), r), T0=0.0, T=10.0)
    assert spec.rejects == ()
    first = spec.xi.tolist().index([1, 0])
    assert spec.lengths[first] == pytest.approx(5e-7, rel=1e-6)


def test_zero_class_of_a_disjoint_pair_is_the_distance():
    # an ellipse and a point outside it in one cell: the class xi = 0 is the
    # straight segment from the point to the ellipse
    centre, axes, p = np.array([0.4, -0.2]), np.array([1.3, 0.7]), np.array([2.1, 1.3])
    spec = spectrum.enumerate(convex.ellipsoid(centre, axes), convex.point(p), T0=0.0, T=3.0)
    s = np.linspace(0.0, 2.0 * math.pi, 400_001)
    boundary = centre + axes * np.stack([np.cos(s), np.sin(s)], axis=1)
    brute = np.min(np.linalg.norm(boundary - p, axis=1))
    zero = np.flatnonzero(np.all(spec.xi == 0, axis=1))
    assert zero.size == 1
    assert abs(spec.lengths[zero[0]] - brute) < 1e-9


def test_enumerate_makes_no_stacked_eigendecomposition(monkeypatch):
    # transversality comes from the body's closed-form radius enclosure, not
    # from the Hessians of the records
    K1 = convex.ellipsoid((0.1, 0.0, 0.2), (1.2, 0.8, 0.6))
    K2 = convex.ball((0.0, 0.3, 0.0), 0.4)
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    spec = spectrum.enumerate(K1, K2, T=25.0)
    assert len(spec) > 0
    assert all(len(shape) == 2 for shape in shapes)


def test_newton_diverged_names_the_candidate(monkeypatch):
    # one Newton step cannot converge from theta0 = xi / |xi| on an ellipse
    monkeypatch.setattr(spectrum, "_NEWTON_MAX", 1)
    K1 = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    K2 = convex.ball((0.1, 0.2), 0.3)
    with pytest.raises(spectrum.NewtonDiverged, match=r"candidate \(-5, 0\) did"):
        spectrum.enumerate(K1, K2, T=30.0)


def _fixed_point_records(L, T0, T):
    """(xi, lengths) in (T0, T] by iterating theta -> unit(w - grad h_L(theta)) from w/|w|.

    The map contracts by about r_max(L) / t near the maximizer; a class with
    w = 2 pi xi in L has theta.w <= h_L(theta) for every theta, so no value
    in (T0, T] whether or not its iteration settles.
    """
    h_lo, h_hi = L.h_range()
    reach = max(abs(h_lo), abs(h_hi))
    box = spectrum._lattice_box(L.dim, int(math.ceil((T + reach) / (2.0 * math.pi))) + 1)
    w = 2.0 * math.pi * box
    theta = np.zeros_like(w)
    theta[:, 0] = 1.0  # the start of xi = 0
    moving = np.any(box != 0, axis=1)
    theta[moving] = w[moving] / np.linalg.norm(w[moving], axis=1, keepdims=True)
    for _ in range(300):
        g = w - L.grad(theta)
        new = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        step = np.linalg.norm(new - theta, axis=1)
        theta = new
    lengths = np.einsum("ni,ni->n", theta, w) - L.h(theta)
    window = (lengths > T0) & (lengths <= T)
    assert np.max(step[window]) < 1e-14
    return box[window], lengths[window]


def _assert_reference_records(K1, K2, T0, T, count=None):
    spec = spectrum.enumerate(K1, K2, T0=T0, T=T)
    xi, lengths = _fixed_point_records(spectrum.difference_body(K1, K2), T0, T)
    if count is not None:
        assert len(spec) == count
    assert spec.rejects == ()
    # both lists are in lexicographic xi order once sorted by it
    order = np.lexsort(spec.xi.T[::-1])
    assert np.array_equal(spec.xi[order], xi)
    assert np.max(np.abs(spec.lengths[order] - lengths), initial=0.0) < 1e-11


@pytest.mark.parametrize("K1, K2, T, count", [
    (convex.ellipsoid((6.0, 0.2), (1.3, 0.7)), convex.point((0.0, 0.0)), 30.0, 70),
    (convex.ellipsoid((6.1, 0.1, -0.1), (1.2, 0.8, 0.6)), convex.ball((0.0, 0.0, 0.0), 0.1),
     20.0, 163),
    (convex.ellipsoid((2.0 * math.pi, 0.0), (1.3, 0.7)), convex.point((0.0, 0.0)), 30.0, 68),
], ids=["ellipse-point", "ellipsoid-ball", "ellipse-on-the-lattice"])
def test_overlapping_projections_drop_the_classes_that_meet(K1, K2, T, count):
    # the lift of K2 by 2 pi xi meets K1 for some classes xi: those have no
    # orthogeodesic, and every other class keeps the distance from 2 pi xi to L
    _assert_reference_records(K1, K2, 0.0, T, count)


def _random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("dim", [2, 3])
def test_random_disjoint_pairs_match_the_fixed_point_lengths(dim):
    rng = np.random.default_rng(dim)
    box = 2.0 * math.pi * spectrum._lattice_box(dim, 1)
    probe = spectrum._restart_directions(dim)
    pairs = 0
    while pairs < 10:
        axis = rng.normal(size=dim)
        base = convex.ball(rng.uniform(-math.pi, math.pi, dim), rng.uniform(0.3, 0.8))
        K1 = convex.harmonic(base, [(2, axis / np.linalg.norm(axis), 0.01)])
        K2 = convex.ellipsoid(rng.uniform(-math.pi, math.pi, dim), rng.uniform(0.2, 0.6, dim),
                              rotation=_random_rotation(rng, dim))
        # disjoint projections: a direction separates 2 pi xi from L for every class
        L = spectrum.difference_body(K1, K2)
        if np.min(np.max(box @ probe.T - L.h(probe), axis=1)) > 0.05:
            # the reference contracts for lengths above r_hi(L)
            T0 = L.radius_range()[1] + float(rng.choice([0.0, 0.5, 2.0]))
            _assert_reference_records(K1, K2, T0, 40.0 if dim == 2 else 20.0)
            pairs += 1


def _circle_brute_force(L, T0, T, n=2**18):
    """{xi: max over n directions of theta.w - h_L(theta)} for the d = 2 classes in (T0, T]."""
    a = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    P = np.stack([np.cos(a), np.sin(a)], axis=1)
    hP = L.h(P)
    box = spectrum._lattice_box(2, int(math.ceil((T + np.max(np.abs(hP))) / (2.0 * math.pi))))
    best = {}
    for xi in box:
        t = float(np.max(P @ (2.0 * math.pi * xi) - hP))
        if T0 < t <= T:
            best[tuple(int(c) for c in xi)] = t
    return best


def _assert_brute_force_records(K1, K2, T0, T):
    # the direction grid misses the maximum by at most (t + r_hi) (pi/n)^2 / 2
    spec = spectrum.enumerate(K1, K2, T0=T0, T=T)
    brute = _circle_brute_force(spectrum.difference_body(K1, K2), T0, T)
    got = dict(zip(map(tuple, spec.xi.tolist()), spec.lengths))
    assert set(got) == set(brute)
    assert max(abs(got[xi] - brute[xi]) for xi in got) < 1e-7


def test_a_thin_ellipse_converges():
    # radii from 6.5e-4 to 111: an undamped Newton step cycles on some classes
    c, s = math.cos(0.89), math.sin(0.89)
    K1 = convex.ellipsoid((0.13, 0.64), (2.0, 0.036), rotation=np.array([[c, -s], [s, c]]))
    _assert_brute_force_records(K1, convex.point((0.31, -2.66)), 2.0, 40.0)


def test_a_nearly_touching_pair_keeps_its_zero_class():
    # the lift of K2 by 0 lies 1e-4 from K1, at the end of its major axis, midway
    # between two restart directions, none of which separates 0 from L; Newton runs
    # on L less the ball of radius r_lo(L) = 0.508, which they separate by more
    phi = 2.0 * math.pi * 10.5 / 64.0
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    K1 = convex.ellipsoid(-(1.2 + 0.3 + 1e-4) * R[:, 0], (1.2, 0.5), rotation=R)
    K2 = convex.ball((0.0, 0.0), 0.3)
    spec = spectrum.enumerate(K1, K2, T0=0.0, T=12.0)
    assert spec.xi[0].tolist() == [0, 0]
    assert spec.lengths[0] == pytest.approx(1e-4, abs=1e-12)
    _assert_brute_force_records(K1, K2, 0.0, 12.0)


def test_bench_body_pairs_converge_within_8_steps(monkeypatch):
    rng = np.random.default_rng(1)
    egg = convex.ellipsoid(rng.uniform(-0.5, 0.5, 3), (0.5, 0.35, 0.25),
                           rotation=_random_rotation(rng, 3))
    axes = [rng.normal(size=3) for _ in range(2)]
    lump = convex.harmonic(convex.ball(rng.uniform(-0.5, 0.5, 3), 0.4),
                           [(2, axes[0] / np.linalg.norm(axes[0]), 0.03),
                            (4, axes[1] / np.linalg.norm(axes[1]), 0.008)])
    monkeypatch.setattr(spectrum, "_NEWTON_MAX", 8)
    for K1 in (egg, lump):
        spec = spectrum.enumerate(K1, convex.ball(rng.uniform(-0.5, 0.5, 3), 0.2),
                                  T0=4.0, T=130.0)
        assert len(spec) > 30000


def test_translation_invariance():
    e = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    p = convex.point((0.4, -0.9))
    v = np.array([1.7, -0.3])
    e2 = convex.ellipsoid(v, (1.3, 0.7))
    p2 = convex.point(v + [0.4, -0.9])
    a = spectrum.enumerate(e, p, T=30.0)
    b = spectrum.enumerate(e2, p2, T=30.0)
    assert np.allclose(a.lengths, b.lengths, atol=1e-9)
    assert np.array_equal(a.xi, b.xi)


def test_quarter_turn_invariance():
    # a lattice-preserving rotation permutes the spectrum without changing it
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    a = spectrum.enumerate(convex.ellipsoid((0.0, 0.0), (1.3, 0.7)),
                           convex.point((0.0, 0.0)), T=30.0)
    b = spectrum.enumerate(convex.ellipsoid((0.0, 0.0), (1.3, 0.7), rotation=R),
                           convex.point((0.0, 0.0)), T=30.0)
    assert a.lengths.size == b.lengths.size
    assert np.max(np.abs(np.sort(a.lengths) - np.sort(b.lengths))) < 1e-9


def test_worker_determinism(monkeypatch):
    # small chunks, so that the thread pool splits the candidates
    monkeypatch.setattr(spectrum, "_CHUNK", 64)
    chunks = []
    solve = spectrum._solve_chunk

    def counted(L, xi_chunk, T0, T):
        chunks.append(len(xi_chunk))
        return solve(L, xi_chunk, T0, T)

    monkeypatch.setattr(spectrum, "_solve_chunk", counted)
    pairs = {
        "newton": (convex.ellipsoid((0.1, 0.0, 0.2), (1.2, 0.8, 0.6)),
                   convex.ball((0.0, 0.3, 0.0), 0.4)),
        "closed form": (convex.point((0.2, 0.1, -0.4)), convex.point((0.0, 0.0, 0.0))),
    }
    for name, (K1, K2) in pairs.items():
        runs = []
        for workers in (1, 3):
            chunks.clear()
            runs.append(spectrum.enumerate(K1, K2, T=25.0, workers=workers))
            assert len(chunks) >= 3, name
        a, b = runs
        assert len(a) > 0, name
        assert np.array_equal(a.xi, b.xi), name
        assert np.array_equal(a.theta, b.theta), name
        assert np.array_equal(a.lengths, b.lengths), name


def test_orientation_reflection():
    # the swapped pair's difference body is -L: each record is a forward one
    # run backwards, the class -xi with direction -theta, the same length and
    # the conjugate phase
    cases = [
        (convex.harmonic(convex.ball((0.3, 0.0), 0.9),
                         [(2, (1.0, 0.5), 0.05), (4, (0.3, 1.0), 0.01)]),
         convex.ball((0.0, -0.2), 0.4), 3.0, 30.0,
         spectrum.TwistForm((0.3, -0.2), {(1, 0): 0.2 + 0.1j, (-1, 0): 0.2 - 0.1j,
                                          (0, 2): 0.05, (0, -2): 0.05})),
        (convex.point((0.0, 0.0, 0.0)), convex.point((0.9, 0.4, -1.1)), 0.0, 150.0,
         spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                             math.sqrt(5.0) - 2.0))),
    ]
    for K1, K2, T0, T, beta in cases:
        fwd = spectrum.enumerate(K1, K2, T0=T0, T=T, beta=beta)
        bwd = spectrum.enumerate(K2, K1, T0=T0, T=T, beta=beta)
        assert len(fwd) == len(bwd) > 0
        # both listed in lexicographic order of the forward class
        f, b = np.lexsort(fwd.xi.T[::-1]), np.lexsort(-bwd.xi.T[::-1])
        assert np.array_equal(-bwd.xi[b], fwd.xi[f])
        assert np.array_equal(-bwd.theta[b], fwd.theta[f])
        assert np.array_equal(bwd.lengths[b], fwd.lengths[f])
        assert np.max(np.abs(bwd.phases[b] - np.conj(fwd.phases[f]))) < 1e-13


def test_enumerate_window_validation():
    p = convex.point((0.0, 0.0))
    with pytest.raises(ValueError):
        spectrum.enumerate(p, p, T0=10.0, T=5.0)


@pytest.mark.parametrize("T0, T", [(1.0, math.inf), (1.0, math.nan), (math.inf, math.inf),
                                   (math.nan, 30.0)], ids=["T-inf", "T-nan", "both-inf", "T0-nan"])
def test_enumerate_refuses_a_non_finite_window(T0, T):
    # an infinite T overflowed the lattice radius with OverflowError
    p = convex.point((0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        spectrum.enumerate(p, p, T0=T0, T=T)


def test_twist_form_requires_hermitian_modes():
    with pytest.raises(ValueError):
        spectrum.TwistForm((0.0, 0.0), {(1, 0): 1.0 + 0.5j})
    tf = spectrum.TwistForm((0.0, 0.0), {(1, 0): 1.0 + 0.5j, (-1, 0): 1.0 - 0.5j})
    x = np.array([[0.3, 0.4], [0.0, 0.0]])
    assert np.max(np.abs(tf.f_eval(x).imag)) < 1e-14


@pytest.mark.parametrize("beta0, modes", [
    ((math.nan, 0.0), None),
    ((0.0, math.inf), None),
    ((0.0, 0.0), {(1, 0): complex(math.nan, 0.0), (-1, 0): complex(math.nan, 0.0)}),
    ((0.0, 0.0), {(1, 0): complex(0.0, math.inf), (-1, 0): complex(0.0, -math.inf)}),
], ids=["nan-beta0", "inf-beta0", "nan-mode", "inf-mode"])
def test_twist_form_refuses_non_finite_entries(beta0, modes):
    with pytest.raises(ValueError, match="finite"):
        spectrum.TwistForm(beta0, modes)


_DIMENSION_MISMATCHES = {
    "enumerate-bodies": (lambda: spectrum.enumerate(
        convex.point((0.0, 0.0)), convex.point((0.0, 0.0, 0.0)), T=5.0),
        "body dimension mismatch"),
    "enumerate-twist": (lambda: spectrum.enumerate(
        convex.point((0.0, 0.0)), convex.point((0.0, 0.0)), T=5.0,
        beta=spectrum.TwistForm((0.0, 0.0, 0.0))), "twist form dimension mismatch"),
    "twist-form-modes": (lambda: spectrum.TwistForm(
        (0.0, 0.0), {(1, 0, 0): 1.0, (-1, 0, 0): 1.0}), "twist mode dimension mismatch"),
}


@pytest.mark.parametrize("case", sorted(_DIMENSION_MISMATCHES))
def test_dimension_mismatches_are_refused(case):
    build, message = _DIMENSION_MISMATCHES[case]
    with pytest.raises(ValueError, match=message):
        build()


def test_trivial_twist_weighted_count_equals_count(points2_60):
    n = spectrum.counting(points2_60, 50.0)
    w = spectrum.counting_weighted(points2_60, 50.0)
    assert w == pytest.approx(n, abs=1e-12)


def test_twisted_count_is_suppressed():
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)))
    spec = spectrum.enumerate(p, p, T=60.0, beta=beta)
    n = spectrum.counting(spec, 60.0)
    w = spectrum.counting_weighted(spec, 60.0)
    assert abs(w) < 0.25 * n
    with pytest.raises(ValueError):
        spectrum.counting_weighted(spec, 61.0)


def test_density_coeffs_ball_pair():
    b1 = convex.ball((0.0, 0.0, 0.0), 0.3)
    b2 = convex.ball((0.0, 0.0, 0.0), 0.2)
    rho = spectrum.density_coeffs(b1, b2)
    r = 0.5
    want = 4.0 * math.pi * np.array([r**2, 2.0 * r, 1.0]) / (2.0 * math.pi) ** 3
    assert np.max(np.abs(rho - want)) < 1e-10


def test_steiner_density_points():
    p = convex.point((0.0, 0.0, 0.0))
    # rho'(t) = t^2 |S^2| / (2 pi)^3
    t = 7.0
    want = t**2 * 4.0 * math.pi / (2.0 * math.pi) ** 3
    assert abs(np.polyval(spectrum.density_coeffs(p, p)[::-1], t) - want) < 1e-12


def test_d5_difference_body_skips_the_validation_grid(monkeypatch):
    # balls carry their radii in closed form, and the difference body sums them
    def no_grid(*args):
        raise AssertionError("difference_body evaluated a sphere grid")

    monkeypatch.setattr(convex.spherequad, "grid", no_grid)
    K1 = convex.ball([0.1, 0.0, 0.0, 0.0, 0.2], 0.3)
    K2 = convex.ball([0.0, 0.3, 0.0, 0.0, 0.0], 0.5)
    L = spectrum.difference_body(K1, K2)
    assert L.kind == "ball" and L.radius_range() == (0.8, 0.8)
    u = np.eye(5)
    assert np.allclose(L.h(u), K1.h(u) + K2.h(-u), atol=1e-15)


def test_write_csv_bytes_match_the_csv_module(tmp_path, monkeypatch):
    # two rows per slice, so the table spans several writes
    monkeypatch.setattr(_tables, "_ROWS_PER_WRITE", 2)
    header = ["n", "x", "y", "z"]
    columns = [
        np.array([0, -3, 7, 2**53 + 1, 1]),
        np.array([0.1, -0.0, math.nan, math.inf, -math.inf]),
        [1e-300, 2.5, -1.0, 1.0 / 3.0, 5e300],
        [1.0 + 2.0j, -0.0j, complex(math.nan, 1.0), 1e-300 - 5e300j, 0.1 + 0.2j],
    ]
    _tables.write_csv(tmp_path / "joined.csv", header, columns)
    # the complex column z is the two columns z_re and z_im
    z = np.asarray(columns[3])
    with open(tmp_path / "module.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header[:3] + ["z_re", "z_im"])
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns[:3] + [z.real, z.imag])))
    assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()


@dataclass(frozen=True)
class _Fit:
    coefficient: complex
    sides: tuple
    count: int


def test_tables_write_complex_values_as_re_and_im(tmp_path):
    # a column is complex by its dtype, so an empty one keeps both names
    _tables.write_csv(tmp_path / "empty.csv", ["t", "x"],
                      [np.array([]), np.array([], dtype=complex)])
    assert (tmp_path / "empty.csv").read_bytes() == b"t,x_re,x_im\r\n"
    # a dataclass is the dict of its fields; numpy values are Python numbers
    doc = {"fit": _Fit(1.0 - 2.0j, (0.5j, np.complex128(3.0)), np.int64(7)),
           "lines": (np.float64(0.25), 1.5), "grid": np.array([1.0, 2.0]),
           "values": np.array([1j, 2.0]), "empty": ()}
    _tables.write_json(tmp_path / "doc.json", doc)
    want = {"fit": {"coefficient_re": 1.0, "coefficient_im": -2.0,
                    "sides_re": [0.0, 3.0], "sides_im": [0.5, 0.0], "count": 7},
            "lines": [0.25, 1.5], "grid": [1.0, 2.0],
            "values_re": [0.0, 2.0], "values_im": [1.0, 0.0], "empty": []}
    text = (tmp_path / "doc.json").read_text()
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_to_csv_round_trip(tmp_path):
    # an f-mode twist makes every phase complex; the spectrum spans several
    # formatting slices
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)),
                              {(1, 0): 0.3 + 0.2j, (-1, 0): 0.3 - 0.2j})
    spec = spectrum.enumerate(convex.point((0.1, 0.2)), convex.point((0.7, -0.4)),
                              T=260.0, beta=beta)
    assert len(spec) > _tables._ROWS_PER_WRITE
    csv_path = tmp_path / "spec.csv"
    spectrum.to_csv(spec, csv_path, tmp_path / "spec.meta.json")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    assert header == ["xi_1", "xi_2", "theta_1", "theta_2", "length",
                      "phase_re", "phase_im"]
    assert len(body) == len(spec)
    assert [[int(c) for c in row[:2]] for row in body] == spec.xi.tolist()
    cells = np.array([[float(c) for c in row[2:]] for row in body])

    def same_bits(a, b):
        return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64))

    assert same_bits(cells[:, :2], spec.theta)
    assert same_bits(cells[:, 2], spec.lengths)
    assert same_bits(cells[:, 3], spec.phases.real)
    assert same_bits(cells[:, 4], spec.phases.imag)
    assert np.all(spec.phases.imag != 0.0)
