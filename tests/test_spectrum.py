import csv
import math

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
    assert np.all(np.diff(spec.lengths) >= 0)
    assert spec.lengths[0] > spec.T0
    assert spec.lengths[-1] <= spec.T + 1e-9


def test_newton_closing_relation():
    K1 = convex.ellipsoid((0.3, 0.1), (1.3, 0.7))
    K2 = convex.ball((-0.2, 0.4), 0.5)
    spec = spectrum.enumerate(K1, K2, T=40.0)
    L = spectrum.difference_body(K1, K2, "+-")
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


@pytest.mark.parametrize("orient", ["+-", "-+"])
def test_phases_are_the_holonomy_from_the_start_foot(orient):
    # the arc leaves K1 for "+-" and K2 for "-+" with outward normal theta
    beta0 = np.array([0.3, -0.2])
    modes = {(1, 0): 0.2 + 0.1j, (-1, 0): 0.2 - 0.1j, (1, 2): 0.3j, (-1, -2): -0.3j}
    K1 = convex.ellipsoid((0.1, -0.2), (0.9, 0.5))
    K2 = convex.ball((0.4, 1.1), 0.3)
    spec = spectrum.enumerate(K1, K2, orient=orient, T=30.0,
                              beta=spectrum.TwistForm(beta0, modes))

    def f(x):
        return sum(c * np.exp(1j * (x @ np.asarray(k, dtype=float)))
                   for k, c in modes.items()).real

    def phases(body):
        start = convex.inverse_gauss(body, spec.theta)
        end = start + spec.lengths[:, None] * spec.theta
        return np.exp(1j * (spec.lengths * (spec.theta @ beta0) + f(end) - f(start)))

    start_body, other = (K1, K2) if orient == "+-" else (K2, K1)
    assert len(spec) > 20
    assert np.max(np.abs(spec.phases - phases(start_body))) < 1e-12
    assert np.max(np.abs(spec.phases - phases(other))) > 0.1


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


def test_newton_diverged_names_the_candidate(monkeypatch):
    # one Newton step cannot converge from theta0 = xi / |xi| on an ellipse
    monkeypatch.setattr(spectrum, "_NEWTON_MAX", 1)
    K1 = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    K2 = convex.ball((0.1, 0.2), 0.3)
    with pytest.raises(spectrum.NewtonDiverged, match=r"candidate \(-5, 0\) did"):
        spectrum.enumerate(K1, K2, T=30.0)


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


def test_worker_determinism():
    p = convex.point((0.2, 0.1, -0.4))
    q = convex.point((0.0, 0.0, 0.0))
    a = spectrum.enumerate(p, q, T=25.0, workers=1)
    b = spectrum.enumerate(p, q, T=25.0, workers=3)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.theta, b.theta)


def test_orientation_reflection():
    # swapping the reversed pair mirrors the spectrum: lengths agree
    K1 = convex.ellipsoid((0.3, 0.0), (1.1, 0.6))
    K2 = convex.ball((0.0, -0.2), 0.4)
    fwd = spectrum.enumerate(K1, K2, orient="+-", T=30.0)
    bwd = spectrum.enumerate(K2, K1, orient="+-", T=30.0)
    assert np.max(np.abs(fwd.lengths - bwd.lengths)) < 1e-9


def test_enumerate_window_validation():
    p = convex.point((0.0, 0.0))
    with pytest.raises(ValueError):
        spectrum.enumerate(p, p, T0=10.0, T=5.0)


def test_twist_form_requires_hermitian_modes():
    with pytest.raises(ValueError):
        spectrum.TwistForm((0.0, 0.0), {(1, 0): 1.0 + 0.5j})
    tf = spectrum.TwistForm((0.0, 0.0), {(1, 0): 1.0 + 0.5j, (-1, 0): 1.0 - 0.5j})
    x = np.array([[0.3, 0.4], [0.0, 0.0]])
    assert np.max(np.abs(tf.f_eval(x).imag)) < 1e-14


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
    assert abs(spectrum.steiner_density(p, p, "+-", t) - want) < 1e-12


def test_d5_difference_body_skips_the_validation_grid(monkeypatch):
    # building a d = 5 ball evaluates 663,552 grid nodes, so the operands
    # carry the radii the grid gives a ball; the difference body needs none
    def ball5(center, radius):
        return convex.SupportBody(dim=5, kind="ball", r_min=radius, r_max=radius,
                                  parts=(convex._Ball(np.asarray(center), radius),))

    def no_grid(*args):
        raise AssertionError("difference_body evaluated a sphere grid")

    monkeypatch.setattr(convex.spherequad, "grid", no_grid)
    K1 = ball5([0.1, 0.0, 0.0, 0.0, 0.2], 0.3)
    K2 = ball5([0.0, 0.3, 0.0, 0.0, 0.0], 0.5)
    L = spectrum.difference_body(K1, K2)
    assert L.kind == "ball" and (L.r_min, L.r_max) == (0.8, 0.8)
    u = np.eye(5)
    assert np.allclose(L.h(u), K1.h(u) + K2.h(-u), atol=1e-15)


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
