import math

import numpy as np
import pytest

from orthospec import convex, spectrum, zetafns

# closed forms frozen from independent high-precision evaluation
EPSTEIN_S3_D2 = 0.036418520096128477853   # (2 pi)^-3 * 4 zeta(3/2) beta(3/2)
HEAD_S3_T200 = 0.03562248231270755        # brute partial sum over l <= 200
ELLIPSE_PERIMETER = 6.425370742838925     # arclength of (1.3, 0.7) ellipse
IRRATIONAL_BETA0 = (math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0))


@pytest.fixture(scope="module")
def model2():
    p = convex.point((0.0, 0.0))
    return zetafns.build_zeta_model(p, p, T=200.0, sweep=(1.0, 2.0, 4.0))


@pytest.fixture(scope="module")
def model2_400():
    p = convex.point((0.0, 0.0))
    return zetafns.build_zeta_model(p, p, T=400.0, sweep=(1.0,))


@pytest.fixture(scope="module")
def model3():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    return zetafns.build_zeta_model(p, q, T=150.0, sweep=(1.0,))


@pytest.fixture(scope="module")
def ellipse_model():
    e = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    p = convex.point((0.0, 0.0))
    return zetafns.build_zeta_model(e, p)


def test_zeta_eval_matches_brute_head(model2):
    got = zetafns.zeta_eval(model2, 3.0)
    assert got.imag == pytest.approx(0.0, abs=1e-15)
    assert got.real == pytest.approx(HEAD_S3_T200, rel=1e-12)


def test_zeta_eval_needs_convergent_sigma(model2):
    with pytest.raises(ValueError):
        zetafns.zeta_eval(model2, 1.5)


def test_zeta_continue_hits_the_closed_form(model2):
    got = zetafns.zeta_continue(model2, 3.0)
    # the rational tail model leaves only the lattice fluctuation
    assert abs(got - EPSTEIN_S3_D2) < 1e-6


def test_zeta_head_plus_tail_sandwich(model2):
    head = zetafns.zeta_eval(model2, 3.0)
    bound = zetafns.zeta_tail_bound(model2, 3.0)
    assert abs(head - EPSTEIN_S3_D2) <= 1.01 * bound + 1e-5


def test_zeta_continue_splice_stability(model2):
    # splice drift is the counting fluctuation E(T) T^{-s}; it shrinks fast
    # in Re(s) once past the fluctuation exponent (2/3 for d = 2)
    def drift(s):
        vals = [zetafns.zeta_continue(model2, s, factor=f)
                for f in (1.0, 2.0, 4.0)]
        return max(abs(v - vals[0]) for v in vals)

    mid, high = drift(1.5 + 0.3j), drift(2.5 + 0.3j)
    assert mid < 5e-3
    assert high < 1e-4
    assert high < mid


def test_zeta_continue_pole_guard(model2):
    with pytest.raises(zetafns.PoleHit):
        zetafns.zeta_continue(model2, 2.0)
    with pytest.raises(ValueError):
        zetafns.zeta_continue(model2, 0.5, factor=8.0)


def test_build_model_validates_sweep():
    p = convex.point((0.0, 0.0))
    with pytest.raises(ValueError):
        zetafns.build_zeta_model(p, p, T=50.0, sweep=(0.5, 1.0))


def test_residues_of_the_ellipse(ellipse_model):
    ests = zetafns.residues(ellipse_model)
    assert [e.pole for e in ests] == [1, 2]
    res1, res2 = ests
    assert res1.residue.real == pytest.approx(
        ELLIPSE_PERIMETER / (2.0 * math.pi) ** 2, rel=1e-9)
    assert res2.residue.real == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert res1.predicted_from_volumes == pytest.approx(res1.residue.real, rel=1e-9)
    # counting-fit error bars: tight for the leading pole, looser below it
    assert all(e.error >= 0.0 for e in ests)
    assert res2.error < 0.02 * abs(res2.residue)
    assert res1.error < 0.10 * abs(res1.residue)


def test_residues_reject_twisted_models():
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm(IRRATIONAL_BETA0)
    m = zetafns.build_zeta_model(p, p, beta=beta, T=60.0, sweep=(1.0,))
    with pytest.raises(ValueError):
        zetafns.residues(m)


def test_twist_suppression_decay_ladder(model2_400):
    beta = spectrum.TwistForm(IRRATIONAL_BETA0)
    rep = zetafns.twist_suppression(model2_400, beta)
    assert rep.mode == "decay"
    assert rep.certified
    assert rep.t_ladder == (100.0, 200.0, 400.0)
    assert rep.ratios[2] == pytest.approx(7.787159403513205e-06, rel=1e-9)
    assert rep.ratios[0] == pytest.approx(3.77e-4, rel=2e-2)
    assert rep.ratios[1] == pytest.approx(1.48e-4, rel=2e-2)
    assert rep.threshold == pytest.approx(0.25 / (4.0 * math.pi), rel=1e-12)
    assert rep.ratios[2] < rep.threshold


def test_twist_suppression_weighted_mode():
    p = convex.point((0.0, 0.0))
    q = convex.point((1.1, -0.7))
    beta = spectrum.TwistForm((1.0, 0.0), {(1, 0): 0.2, (-1, 0): 0.2})
    m = zetafns.build_zeta_model(p, q, beta=beta, T=150.0, sweep=(1.0, 2.0))
    rep = zetafns.twist_suppression(m, beta)
    assert rep.mode == "weighted"
    assert rep.certified
    assert len(rep.weighted) == 2 and len(rep.empirical) == 2
    assert rep.deviation < 0.05


def test_poincare_eval_matches_spectral_closed_form(model3):
    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    for s in (0.2, 0.55, 1.1, 2.0):
        direct = zetafns.poincare_eval(model3, s)
        spectral = zetafns.poincare_points_spectral(x, y, None, s)
        assert abs(direct - spectral) <= 1e-6 * abs(spectral)


def test_poincare_eval_tail_guard(model3):
    with pytest.raises(zetafns.TailDominates):
        zetafns.poincare_eval(model3, 0.02)
    with pytest.raises(ValueError):
        zetafns.poincare_eval(model3, 1e-4)


def test_poincare_points_literal_cutoff():
    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    s = 0.7
    exact = zetafns.poincare_points_spectral(x, y, None, s)
    literal = zetafns.poincare_points_spectral(x, y, None, s, cutoff=40.0)
    assert abs(literal - exact) < 5e-2 * abs(exact)
    # the literal path accepts complex s where the exact path refuses
    with pytest.raises(ValueError):
        zetafns.poincare_points_spectral(x, y, None, 0.5 + 0.4j)
    val = zetafns.poincare_points_spectral(x, y, None, 0.5 + 0.4j, cutoff=25.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_poincare_points_rejects_equal_points():
    x = np.zeros(3)
    with pytest.raises(ValueError):
        zetafns.poincare_points_spectral(x, x + 2.0 * math.pi, None, 0.5)


def test_spectral_constants_match_the_flat_closed_form():
    for d in (2, 3, 4, 5):
        kappa, c_d = zetafns.spectral_constants(d)
        assert kappa == 1.0
        assert c_d == math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)


def test_record_phases_have_one_path():
    # the phase enumerate stores, the weighted count and the zeta weights
    # are the same holonomy of the same feet, bit for bit
    beta = spectrum.TwistForm(
        (0.3, -0.2),
        {(1, 0): 0.2 + 0.1j, (-1, 0): 0.2 - 0.1j, (1, 1): 0.3, (-1, -1): 0.3},
    )
    spec = spectrum.enumerate(convex.ellipsoid((0.1, -0.2), (0.9, 0.5)),
                              convex.point((0.4, 1.1)), orient="-+", T=40.0,
                              beta=beta)
    assert len(spec) > 100
    assert np.max(np.abs(spec.phases - 1.0)) > 0.5
    assert spectrum.counting_weighted(spec, spec.beta, spec.T) == np.sum(spec.phases)
    assert np.array_equal(zetafns._phase_weights(spec, spec.beta), spec.phases)


def test_F_alpha_branches():
    z = 0.3 + 0.2j
    from scipy.special import gamma
    assert zetafns.F_alpha(0.5, z) == pytest.approx(gamma(0.5) * z ** (-0.5), rel=1e-12)
    assert zetafns.F_alpha(1.0, z) == pytest.approx(-np.log(z), rel=1e-12)
    assert zetafns.F_alpha(2.0, z) == pytest.approx(0.5 * z * np.log(z), rel=1e-12)
    want = math.pi / (math.sin(1.5 * math.pi) * gamma(1.5)) * z**0.5
    assert zetafns.F_alpha(1.5, z) == pytest.approx(want, rel=1e-12)


def test_F_alpha_derivative_recurrence():
    z = 0.4 + 0.1j
    h = 1e-6
    for alpha in (-0.3, 0.4, 0.9):
        dz = (zetafns.F_alpha(alpha, z + h) - zetafns.F_alpha(alpha, z - h)) / (2 * h)
        assert abs(dz + zetafns.F_alpha(alpha - 1.0, z)) < 1e-5 * abs(dz)


def test_F_alpha_boundary_is_a_shift():
    assert zetafns.F_alpha_boundary(0.5, 1.2, 0.05) == zetafns.F_alpha(0.5, 0.05 + 1.2j)


def test_alpha_grid_contents():
    g3 = set(np.round(zetafns.alpha_grid(3), 9))
    assert {1.0, 0.0, -1.0, -2.0}.issubset(g3)
    g2 = set(np.round(zetafns.alpha_grid(2), 9))
    assert {0.5, -0.5, 0.0}.issubset(g2)


def test_predicted_lines_unit_lattice():
    lines = zetafns.predicted_lines(3, None, 2.0)
    assert lines[0] == pytest.approx(0.0, abs=1e-9)
    assert lines[1] == pytest.approx(1.0, abs=1e-6)
    assert lines[2] == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_singularity_scan_locates_the_lines(model3):
    fits = zetafns.singularity_scan(model3)
    locs = [f.location for f in fits]
    assert locs == sorted(locs)
    by_loc = {round(f.location, 1): f for f in fits}
    stack = by_loc.get(0.0)
    assert stack is not None, "no y = 0 pole stack found"
    assert abs(stack.exponent + 3.0) <= 0.3
    first = min((f for f in fits if f.location > 0.5),
                key=lambda f: abs(f.location - 1.0))
    assert abs(first.location - 1.0) <= 0.02
    assert abs(first.exponent + 2.0) <= 0.2
    assert first.line_distance <= 0.02
    for f in fits:
        assert f.residual <= 0.35


def test_singularity_scan_ladder_validation(model3):
    with pytest.raises(ValueError):
        zetafns.singularity_scan(model3, eps_ladder=[0.9, 0.7])
    with pytest.raises(ValueError):
        zetafns.singularity_scan(model3, eps_ladder=[0.05, 0.01])


def test_gaussian_window_transform_quadrature():
    w = zetafns.GaussianWindow(0.8, 0.3)
    ts = np.linspace(-30.0, 30.0, 60001)
    for rho in (0.0, 0.6, 1.7):
        brute = np.trapezoid(w.value(ts) * np.exp(-1j * rho * ts), ts)
        assert abs(w.transform(rho) - brute) < 1e-10


def test_gaussian_window_odd_part():
    w = zetafns.GaussianWindow(1.1, 0.25)
    rho = np.linspace(0.05, 3.0, 23)
    q = w.odd_part(rho)
    want = w.value(rho) - w.value(-rho)
    assert np.max(np.abs(q - want)) < 1e-14
    h = 1e-6
    dq = (w.odd_part(rho + h) - w.odd_part(rho - h)) / (2.0 * h)
    assert np.max(np.abs(w.odd_part_deriv(rho) - dq)) < 1e-7


@pytest.fixture(scope="module")
def guinand_spectra():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                               math.sqrt(5.0) - 2.0))
    fwd = spectrum.enumerate(p, q, T0=0.0, T=150.0, beta=beta)
    bwd = spectrum.enumerate(q, p, T0=0.0, T=150.0, beta=beta)
    return fwd, bwd, beta


def test_guinand_pairing_on_a_line(guinand_spectra):
    fwd, bwd, beta = guinand_spectra
    lines = zetafns.predicted_lines(3, beta, 2.0)
    window = zetafns.GaussianWindow(float(lines[0]), 0.2)
    res = zetafns.guinand_pairing(fwd, bwd, beta, window)
    rel = abs(res.length_side - res.spectral_side) / abs(res.spectral_side)
    assert rel < 1e-6
    assert res.truncation_mass < 1e-12
    assert abs(res.spectral_side) > 1e-4


def test_guinand_pairing_off_line(guinand_spectra):
    # below the first line the nearest spectral mass is many widths away
    fwd, bwd, beta = guinand_spectra
    lines = zetafns.predicted_lines(3, beta, 2.0)
    window = zetafns.GaussianWindow(0.5 * float(lines[0]), 0.05)
    res = zetafns.guinand_pairing(fwd, bwd, beta, window)
    assert abs(res.length_side) < 1e-6
    assert abs(res.spectral_side) < 1e-6


def test_guinand_truncation_guard(guinand_spectra):
    fwd, bwd, beta = guinand_spectra
    window = zetafns.GaussianWindow(0.6, 0.01)   # needs far more spectrum
    with pytest.raises(zetafns.TruncationTooSmall):
        zetafns.guinand_pairing(fwd, bwd, beta, window)


def test_guinand_rejects_nonzero_T0():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    fwd = spectrum.enumerate(p, q, T=60.0)
    bwd = spectrum.enumerate(q, p, T=60.0)
    with pytest.raises(ValueError):
        zetafns.guinand_pairing(fwd, bwd, None, zetafns.GaussianWindow(1.0, 0.2))


def test_values_to_csv_format(tmp_path):
    path = tmp_path / "vals.csv"
    zetafns.values_to_csv(path, [0.5 + 1.0j], [2.0 - 3.0j])
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "s_re,s_im,value_re,value_im"
    assert rows[1] == "0.5,1.0,2.0,-3.0"


def test_residues_to_json_round_trip(tmp_path, ellipse_model):
    import json
    path = tmp_path / "res.json"
    zetafns.residues_to_json(path, zetafns.residues(ellipse_model))
    data = json.loads(path.read_text())
    assert [row["pole"] for row in data] == [1, 2]
    assert data[1]["residue_re"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
