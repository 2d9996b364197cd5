import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthospec import convex, spectrum, spherequad, zetafns

# closed forms frozen from independent high-precision evaluation
EPSTEIN_S3_D2 = 0.036418520096128477853   # (2 pi)^-3 * 4 zeta(3/2) beta(3/2)
HEAD_S3_T200 = 0.03562248231270755        # brute partial sum over l <= 200
ELLIPSE_PERIMETER = 6.425370742838925     # arclength of (1.3, 0.7) ellipse
IRRATIONAL_BETA0 = (math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0))
ZERO3 = spectrum.TwistForm(np.zeros(3))


@pytest.fixture(scope="module")
def model2():
    p = convex.point((0.0, 0.0))
    return zetafns.build_zeta_model(p, p, T=200.0, sweep=(1.0, 2.0, 4.0))


@pytest.fixture(scope="module")
def twisted2_400():
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm(IRRATIONAL_BETA0)
    return zetafns.build_zeta_model(p, p, beta=beta, T=400.0, sweep=(1.0,))


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


def test_twist_suppression_decay_ladder(twisted2_400):
    rep = zetafns.twist_suppression(twisted2_400)
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
    rep = zetafns.twist_suppression(m)
    assert rep.mode == "weighted"
    assert rep.certified
    assert len(rep.weighted) == 2 and len(rep.empirical) == 2
    assert rep.deviation < 0.05


def test_poincare_eval_matches_spectral_closed_form(model3):
    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    for s in (0.2, 0.55, 1.1, 2.0):
        direct = zetafns.poincare_eval(model3, s)
        spectral = zetafns.poincare_points_spectral(x, y, model3.spec.beta, s)
        assert abs(direct - spectral) <= 1e-6 * abs(spectral)


def test_poincare_eval_tail_guard(model3):
    with pytest.raises(zetafns.TailDominates):
        zetafns.poincare_eval(model3, 0.02)
    with pytest.raises(ValueError):
        zetafns.poincare_eval(model3, 1e-4)


def test_poincare_points_spectral_needs_real_positive_s():
    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    for s in (0.5 + 0.4j, 0.0, -0.7):
        with pytest.raises(ValueError):
            zetafns.poincare_points_spectral(x, y, ZERO3, s)


def test_poincare_points_rejects_equal_points():
    x = np.zeros(3)
    with pytest.raises(ValueError):
        zetafns.poincare_points_spectral(x, x + 2.0 * math.pi, ZERO3, 0.5)


def test_ewald_kernel_matches_a_40_digit_oracle():
    # _H_theta(a, b) = (1/2) sqrt(pi/a) [erfc(sb - sa) e^{-2 sa sb}
    # - erfc(sa + sb) e^{2 sa sb}]; the grid reaches sa + sb > 27, where
    # erfc underflows, and s >= 16, where e^{2 sa sb} overflows
    s_grid = np.concatenate([np.geomspace(0.05, 20.0, 24), [16.0, 26.0, 40.0]])
    b = np.concatenate([[0.0, 1e-9], np.geomspace(1e-4, 2000.0, 40), [290.0, 720.0]])
    with mp.workdps(40):
        for s in s_grid:
            got = zetafns._H_theta(s * s, b)
            sa = mp.mpf(s)
            for bi, gi in zip(b, got):
                sb = mp.sqrt(mp.mpf(bi))
                want = float(mp.sqrt(mp.pi) / (2 * sa) * (
                    mp.erfc(sb - sa) * mp.exp(-2 * sa * sb)
                    - mp.erfc(sa + sb) * mp.exp(2 * sa * sb)))
                if want > 1e-300:
                    assert abs(gi / want - 1.0) <= 1e-13, (s, bi)
                else:
                    assert abs(gi - want) <= 1e-300, (s, bi)
        x = np.linspace(0.0, 50.0, 251)
        want = [float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v))) for v in x]
        assert np.max(np.abs(zetafns._erfcx(x) / want - 1.0)) <= 2e-15


def test_gammaincc_matches_a_40_digit_oracle():
    # the regularized Q(p, x) of the Ewald lattice sum (p = (d+1)/2) and of
    # the Poincare tail bound (integer p)
    x = np.geomspace(1e-3, 300.0, 121)
    with mp.workdps(40):
        for p in (1.0, 1.5, 2.0, 2.5, 3.0):
            want = [float(mp.gammainc(p, mp.mpf(v), mp.inf, regularized=True)) for v in x]
            assert np.max(np.abs(zetafns._gammaincc(p, x) / want - 1.0)) <= 2e-15, p
    with pytest.raises(ValueError):
        zetafns._gammaincc(1.3, x)


def test_spectral_constants_match_the_flat_closed_form():
    for d in (2, 3, 4, 5):
        kappa, c_d = zetafns.spectral_constants(d)
        assert kappa == 1.0
        assert c_d == math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)


def test_record_phases_have_one_path():
    # the twist sets the phases enumerate stores and nothing else: the
    # records match the untwisted ones bit for bit, and the weighted count
    # is a prefix sum of the stored phases
    beta = spectrum.TwistForm(
        (0.3, -0.2),
        {(1, 0): 0.2 + 0.1j, (-1, 0): 0.2 - 0.1j, (1, 1): 0.3, (-1, -1): 0.3},
    )
    K1, K2 = convex.ellipsoid((0.1, -0.2), (0.9, 0.5)), convex.point((0.4, 1.1))
    spec = spectrum.enumerate(K2, K1, T=40.0, beta=beta)
    plain = spectrum.enumerate(K2, K1, T=40.0)
    assert len(spec) > 100
    assert np.max(np.abs(spec.phases - 1.0)) > 0.5
    assert np.all(plain.phases == 1.0)
    for name in ("xi", "theta", "lengths"):
        assert np.array_equal(getattr(spec, name), getattr(plain, name)), name
    assert spectrum.counting_weighted(spec, spec.T) == np.sum(spec.phases)
    n = spectrum.counting(spec, 30.0)
    assert spectrum.counting_weighted(spec, 30.0) == np.sum(spec.phases[:n])


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


def test_alpha_grid_contents():
    g3 = set(np.round(zetafns.alpha_grid(3), 9))
    assert {1.0, 0.0, -1.0, -2.0}.issubset(g3)
    g2 = set(np.round(zetafns.alpha_grid(2), 9))
    assert {0.5, -0.5, 0.0}.issubset(g2)
    # the pole-stack orders 1 - l are offered at y = 0 only
    assert set(zetafns._line_orders(2)) == {-0.5, 0.5, 1.5, 2.5, 3.5}
    assert -2.0 not in set(zetafns._line_orders(3))


def test_predicted_lines_unit_lattice():
    lines = zetafns.predicted_lines(ZERO3, 2.0)
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


def random_point_pairs(n):
    """n point pairs from one seeded stream: the first half in d = 2, the rest in d = 3."""
    rng = np.random.default_rng(3)
    for k in range(n):
        d = 2 if k < n // 2 else 3
        yield rng.uniform(0.0, 2.0 * math.pi, d), rng.uniform(0.0, 2.0 * math.pi, d)


def test_singularity_scan_fits_the_line_order_on_random_pairs():
    # Poisson summation puts alpha = (1 - d)/2 at every line off y = 0; the
    # pole-stack orders 1 - l used to tie with it in d = 2 (FitAmbiguous)
    for x, y in random_point_pairs(12):
        d = x.size
        T = 150.0 if d == 2 else 100.0
        model = zetafns.build_zeta_model(convex.point(x), convex.point(y),
                                         T=T, sweep=(1.0,))
        lines = [f for f in zetafns.singularity_scan(model) if f.location > 0.1]
        assert len(lines) >= 2, (x, y)
        for f in lines:
            assert f.alpha == (1.0 - d) / 2.0, (x, y, f)
            assert f.line_distance <= 0.03, (x, y, f)


def synthetic_model(power, T=300.0):
    """A d = 3 model whose head sum 0.01 sum l^power e^{(1.3 i - s) l} peaks at y = 1.3.

    Its slope there is -(1 + power), so the fitted order is -power: between
    the line orders -1 and 0 for power = 0.66, on -1 for power = 1.
    """
    lengths = 0.01 * np.arange(1, int(round(T / 0.01)) + 1)
    n = lengths.size
    p = convex.point((0.0, 0.0, 0.0))
    spec = spectrum.LengthSpectrum(
        dim=3, body1=p, body2=p, T0=0.0, T=T,
        beta=ZERO3, xi=np.zeros((n, 3), dtype=int),
        theta=np.zeros((n, 3)), lengths=lengths,
        phases=0.01 * lengths**power * np.exp(1.3j * lengths))
    return zetafns.ZetaModel(spec=spec, rho=np.zeros(3), T=T, sweep=(1.0,),
                             steiner=None)


def nan_phase_model():
    model = synthetic_model(1.0)
    model.spec.phases[5] = np.nan
    return model


def nan_rho_model():
    model = synthetic_model(1.0)
    model.rho[0] = np.nan
    return model


def nan_ladder_row_scan():
    """singularity_scan with the largest-eps head row NaN: the peak at y = 1.3
    is still detected on the smallest eps, and its log-slope fit is NaN."""
    head = zetafns._head_boundary_values

    def nan_first_row(lengths, damp, y_grid):
        out = head(lengths, damp, y_grid)
        out[:, 0] = np.nan
        return out

    with mock.patch.object(zetafns, "_head_boundary_values", nan_first_row):
        return zetafns.singularity_scan(synthetic_model(1.0))


# each guard raises unless its pass condition holds, and a comparison with a
# NaN never holds
_NAN_GUARDS = {
    "osc_integral": (spherequad.UnderResolved, lambda: spherequad.osc_integral(
        2, F=lambda n: np.full(n.shape[0], np.nan))),
    "steiner": (convex.QuadratureDisagreement, lambda: convex.steiner(convex.SupportBody(
        dim=2, kind="ball", parts=(convex._Ball(np.zeros(2), math.nan),)))),
    "poincare_eval": (zetafns.TailDominates,
                      lambda: zetafns.poincare_eval(nan_phase_model(), 0.5)),
    "singularity_scan": (zetafns.FitAmbiguous, nan_ladder_row_scan),
    "singularity_scan-phases": (zetafns.FitAmbiguous,
                                lambda: zetafns.singularity_scan(nan_phase_model())),
    "singularity_scan-rho": (zetafns.FitAmbiguous,
                             lambda: zetafns.singularity_scan(nan_rho_model())),
    "window": (ValueError, lambda: zetafns.GaussianWindow(1.0, math.nan)),
    "zeta_continue": (zetafns.PoleHit, lambda: zetafns.zeta_continue(
        synthetic_model(1.0), complex(math.nan, 0.0))),
}


@pytest.mark.parametrize("case", sorted(_NAN_GUARDS))
def test_guards_raise_on_nan(case):
    error, call = _NAN_GUARDS[case]
    with pytest.raises(error):
        call()


def test_singularity_scan_raises_fit_ambiguous_between_line_orders():
    with pytest.raises(zetafns.FitAmbiguous, match="y = 1.3000"):
        zetafns.singularity_scan(synthetic_model(0.66))
    (fit,) = zetafns.singularity_scan(synthetic_model(1.0))
    assert fit.location == pytest.approx(1.3, abs=1e-9)
    assert fit.alpha == -1.0


def dense_boundary_values(lengths, damp, y_grid):
    """sum_k damp[k, c] exp(-i y l_k), one exact exponential per (y, l) pair."""
    return np.array([np.exp(-1j * y * lengths) @ damp for y in y_grid])


@pytest.mark.parametrize("y_grid, uniform", [
    (np.linspace(0.0, 3.2, 641), True),
    # linspace rounding is largest relative to dy far from the origin
    (np.linspace(40.0, 43.0, 301), True),
    (np.array([0.0, 0.31, 0.5, 1.7, 1.71, 2.9, 3.2]), False),
    (np.array([1.234]), False),
], ids=["default", "offset", "explicit", "single"])
def test_head_boundary_values_match_the_dense_sum(model3, y_grid, uniform, monkeypatch):
    lengths = model3.spec.lengths
    assert lengths.size > zetafns._BLOCK_ENTRIES // zetafns._ANCHOR_ROWS
    # unit-modulus weights that vary from record to record
    beta0 = np.array([math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0), 0.25])
    weights = np.exp(1j * (model3.spec.lengths[:, None] * model3.spec.theta) @ beta0)
    damp = weights[:, None] * np.exp(-np.outer(lengths, [0.1, 0.04]))
    evaluated = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    got = zetafns._head_boundary_values(lengths, damp, y_grid)
    monkeypatch.undo()
    # one exact row per anchor block, plus the rotation on a uniform grid
    rows = math.ceil(y_grid.size / zetafns._ANCHOR_ROWS) + 1 if uniform else y_grid.size
    assert sum(evaluated) == rows * lengths.size
    want = dense_boundary_values(lengths, damp, y_grid)
    err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.all(err <= 1e-12), err


samples = st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
    # small integers make plateaus, ties between bases and equal neighbours
    st.lists(st.integers(0, 3).map(float), min_size=1, max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(samples)
def test_local_maxima_match_find_peaks(x):
    from scipy.signal import find_peaks

    x = np.array(x)
    want, props = find_peaks(x, prominence=0.0)
    peaks, prominences = zetafns._local_maxima(x)
    assert np.array_equal(peaks, want)
    assert prominences.tobytes() == props["prominences"].tobytes()


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
    lines = zetafns.predicted_lines(beta, 2.0)
    window = zetafns.GaussianWindow(float(lines[0]), 0.2)
    res = zetafns.guinand_pairing(fwd, bwd, window)
    rel = abs(res.length_side - res.spectral_side) / abs(res.spectral_side)
    assert rel < 1e-6
    assert res.truncation_mass < 1e-12
    assert abs(res.spectral_side) > 1e-4


def test_guinand_pairing_off_line(guinand_spectra):
    # below the first line the nearest spectral mass is many widths away
    fwd, bwd, beta = guinand_spectra
    lines = zetafns.predicted_lines(beta, 2.0)
    window = zetafns.GaussianWindow(0.5 * float(lines[0]), 0.05)
    res = zetafns.guinand_pairing(fwd, bwd, window)
    assert abs(res.length_side) < 1e-6
    assert abs(res.spectral_side) < 1e-6


def test_guinand_truncation_guard(guinand_spectra):
    fwd, bwd, _ = guinand_spectra
    window = zetafns.GaussianWindow(0.6, 0.01)   # needs far more spectrum
    with pytest.raises(zetafns.TruncationTooSmall):
        zetafns.guinand_pairing(fwd, bwd, window)


def test_guinand_pairing_refuses_spectra_under_different_twists(guinand_spectra):
    fwd, bwd, beta = guinand_spectra
    p, q = bwd.body1, bwd.body2
    window = zetafns.GaussianWindow(1.0, 0.2)
    others = [
        spectrum.TwistForm(np.zeros(3)),
        spectrum.TwistForm(beta.beta0 + 1e-9),
        spectrum.TwistForm(beta.beta0, {(1, 0, 0): 0.1, (-1, 0, 0): 0.1}),
    ]
    for other in others:
        # the twist is checked before the truncation mass: a short spectrum will do
        bwd_other = spectrum.enumerate(p, q, T0=0.0, T=20.0, beta=other)
        with pytest.raises(ValueError, match="different twists"):
            zetafns.guinand_pairing(fwd, bwd_other, window)
        with pytest.raises(ValueError, match="different twists"):
            zetafns.guinand_pairing(bwd_other, fwd, window)


def test_guinand_pairing_refuses_a_bwd_that_is_not_the_swapped_pair(guinand_spectra):
    fwd, bwd, beta = guinand_spectra
    p, q = fwd.body1, fwd.body2
    r = convex.point((0.9, 0.4, 1.1))
    window = zetafns.GaussianWindow(1.0, 0.2)
    # the pair is checked before the truncation mass: short spectra will do
    for K1, K2 in ((p, q), (q, r), (r, p), (q, q)):
        other = spectrum.enumerate(K1, K2, T0=0.0, T=20.0, beta=beta)
        with pytest.raises(ValueError, match="swapped pair"):
            zetafns.guinand_pairing(fwd, other, window)
    zetafns.guinand_pairing(fwd, bwd, window)


def test_guinand_rejects_nonzero_T0():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    fwd = spectrum.enumerate(p, q, T=60.0)
    bwd = spectrum.enumerate(q, p, T=60.0)
    with pytest.raises(ValueError):
        zetafns.guinand_pairing(fwd, bwd, zetafns.GaussianWindow(1.0, 0.2))
