import cmath
import dataclasses
import functools
import itertools
import math
import re
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthospec import convex, spectrum, spherequad, zetafns

# closed forms frozen from independent high-precision evaluation
# (tests/oracles/oracle_epstein.py): (2 pi)^-s 4 zeta(s/2) beta(s/2), the
# continued sum over xi != 0 of |2 pi xi|^-s in d = 2
EPSTEIN_D2 = {
    0.25: -0.874709985366388157600607319287,
    0.75: -0.680419883627535435819445816655,
    1.25: -0.597168016560854719302426586087,
    1.75: -0.90613096739860425121528656682,
    3.0: 0.0364185200961284778527785962793,
    2.5 + 1j: complex(-0.0612685243070777222193219207838, -0.0377389201782501322905402764072),
}
ELLIPSE_PERIMETER = 6.425370742838925     # arclength of (1.3, 0.7) ellipse
IRRATIONAL_BETA0 = (math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0))
ZERO3 = spectrum.TwistForm(np.zeros(3))


@pytest.fixture(scope="module")
def model2():
    p = convex.point((0.0, 0.0))
    return zetafns.build_zeta_model(spectrum.enumerate(p, p, T=200.0 * 4.0), 200.0)


@pytest.fixture(scope="module")
def twisted2_400():
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm(IRRATIONAL_BETA0)
    return zetafns.build_zeta_model(spectrum.enumerate(p, p, T=400.0, beta=beta), 400.0)


@pytest.fixture(scope="module")
def model3():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    return zetafns.build_zeta_model(spectrum.enumerate(p, q, T=150.0), 150.0)


@pytest.fixture(scope="module")
def ellipse_model():
    e = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    p = convex.point((0.0, 0.0))
    head = 60.0 * math.pi / 2
    return zetafns.build_zeta_model(spectrum.enumerate(e, p, T=head * 4.0), head)


def test_zeta_continue_hits_the_closed_form(model2):
    # the smooth splice leaves dual terms that decay faster than any power
    # of its end T: at T = 800 the value is the closed form to 1e-10, on
    # both sides of Re s = d and off the real axis
    model = dataclasses.replace(model2, T=model2.spec.T)
    for s, want in EPSTEIN_D2.items():
        assert abs(zetafns.zeta_continue(model, s) - want) < 1e-10, s


def test_zeta_continue_splice_stability(model2):
    # the splice end moves the value only by the smooth sum's dual terms
    assert model2.spec.T == 4.0 * model2.T
    spliced = [dataclasses.replace(model2, T=f * model2.T) for f in (1.0, 2.0, 4.0)]

    def drift(s):
        vals = [zetafns.zeta_continue(m, s) for m in spliced]
        return max(abs(v - vals[0]) for v in vals)

    mid, high = drift(1.5 + 0.3j), drift(2.5 + 0.3j)
    assert mid < 1e-7
    assert high < 1e-9
    assert high < mid


def test_zeta_continue_pole_guard(model2):
    for s in (2.0, 2.0 + 5e-9j, complex(math.nan, 0.0), math.inf):
        with pytest.raises(zetafns.PoleHit):
            zetafns.zeta_continue(model2, s)
    # a point pair has no perimeter term, so s = 1 is no pole
    assert model2.density[0] == 0.0
    assert np.isfinite(zetafns.zeta_continue(model2, 1.0))


@functools.cache
def _twisted_pair_model(beta0, modes=()):
    """The point pair (0, 0)-(1.1, -0.7) under beta0 dx + df, enumerated to 1600."""
    p, q = convex.point((0.0, 0.0)), convex.point((1.1, -0.7))
    beta = spectrum.TwistForm(beta0, dict(modes))
    return zetafns.build_zeta_model(spectrum.enumerate(p, q, T=1600.0, beta=beta))


def test_zeta_continue_under_an_integer_twist():
    # beta0 in Z^d: the tail is the weighted density, with its pole at s = 2
    # (a point pair has no perimeter term)
    model = _twisted_pair_model((1.0, 0.0), (((1, 0), 0.2), ((-1, 0), 0.2)))
    assert model.spec.beta.is_integer and model.density[-1] != 0
    short = zetafns.zeta_continue(dataclasses.replace(model, T=200.0), 0.25)
    assert abs(short - zetafns.zeta_continue(model, 0.25)) < 1e-7
    with pytest.raises(zetafns.PoleHit):
        zetafns.zeta_continue(model, 2.0)


def test_zeta_continue_under_a_suppressing_twist():
    # beta0 outside Z^d: the density is zero and Z_beta has no poles
    model = _twisted_pair_model((0.3, 0.1))
    assert not np.any(model.density) and not np.any(model.density_delta)
    short = zetafns.zeta_continue(dataclasses.replace(model, T=400.0), 1.5)
    assert abs(short - zetafns.zeta_continue(model, 1.5)) < 1e-6
    assert np.isfinite(zetafns.zeta_continue(model, 2.0))


def test_zeta_continue_resolves_its_ramp_far_off_the_real_axis(model2):
    # the Legendre orders of the tail grow with |Im s|, so order doubling
    # still agrees at |Im s| = 400 (spherequad.UnderResolved otherwise)
    model = dataclasses.replace(model2, T=model2.spec.T)
    for s in (2.5 + 400j, 0.25 - 400j):
        assert np.isfinite(zetafns.zeta_continue(model, s))


def test_build_model_reads_the_spectrum_it_is_given(monkeypatch):
    # the model enumerates nothing: it cuts the given spectrum at T
    p = convex.point((0.0, 0.0))
    spec = spectrum.enumerate(p, p, T=100.0)

    def refuse(*args, **kwargs):
        raise AssertionError("build_zeta_model enumerated")

    monkeypatch.setattr(spectrum, "enumerate", refuse)
    model = zetafns.build_zeta_model(spec, 50.0)
    assert model.spec is spec and model.T == 50.0
    assert zetafns.build_zeta_model(spec).T == spec.T
    lengths, _ = model.head()
    assert lengths.size == spectrum.counting(spec, 50.0) and lengths[-1] <= 50.0


def test_build_model_refuses_a_head_beyond_the_spectrum():
    p = convex.point((0.0, 0.0))
    spec = spectrum.enumerate(p, p, T=50.0)
    with pytest.raises(ValueError):
        zetafns.build_zeta_model(spec, 50.5)


def test_build_model_refuses_steiner_data_off_the_sphere(monkeypatch):
    # the leading density coefficient of any difference body is that of the unit ball
    p = convex.point((0.0, 0.0))
    spec = spectrum.enumerate(p, p, T=20.0)
    steiner = convex.steiner

    def perturbed(body):
        data = steiner(body)
        moments = data.surface_moments.copy()
        moments[-1] *= 1.0 + 1e-6
        return dataclasses.replace(data, surface_moments=moments)

    monkeypatch.setattr(convex, "steiner", perturbed)
    with pytest.raises(ValueError, match="fails the sphere check"):
        zetafns.build_zeta_model(spec)


def test_residues_of_the_ellipse(ellipse_model):
    ests = zetafns.residues(ellipse_model)
    assert [e.pole for e in ests] == [1, 2]
    res1, res2 = ests
    assert res1.residue.real == pytest.approx(
        ELLIPSE_PERIMETER / (2.0 * math.pi) ** 2, rel=1e-9)
    assert res2.residue.real == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    assert res1.predicted_from_volumes == pytest.approx(res1.residue.real, rel=1e-9)
    assert all(e.error >= 0.0 for e in ests)
    assert res2.error < 0.02 * abs(res2.residue)
    assert res1.error < 0.10 * abs(res1.residue)
    # the default model enumerates to 4 T = 120 pi, so sigma = 8 and the
    # dual frequencies sit at exp(-32) of the zero-frequency term
    for est in ests:
        assert est.error <= 1e-9 * abs(est.residue), est
        assert est.error <= est.bound and est.certified, est


@functools.cache
def _residue_model(case: str, T: float):
    """The untwisted model of a residue fixture pair, enumerated to T with head T / 2."""
    K1, K2 = {
        "ellipse-point": (convex.ellipsoid((0.0, 0.0), (1.3, 0.7)), convex.point((0.0, 0.0))),
        "ellipsoid-ball": (convex.ellipsoid((0.0, 0.0, 0.0), (0.5, 0.35, 0.25)),
                           convex.ball((0.0, 0.0, 0.0), 0.2)),
        "ball-ball": (convex.ball((0.0, 0.0, 0.0), 0.3), convex.ball((0.0, 0.0, 0.0), 0.2)),
    }[case]
    return zetafns.build_zeta_model(spectrum.enumerate(K1, K2, T=T), T / 2.0)


def test_residues_err_reads_an_ellipsoid_ball_spectrum():
    # d = 3 with curvature: the spectrum must run to 200 (sigma = 7.9); to
    # 160 (sigma = 6.3) the estimate is off by 4e-5 at ell = 1
    model = _residue_model("ellipsoid-ball", 200.0)
    assert model.spec.T == 200.0
    ests = zetafns.residues(model)
    assert [e.pole for e in ests] == [1, 2, 3]
    for est in ests:
        assert est.error <= 1e-8 * abs(est.residue), est
        assert est.error <= est.bound and est.certified, est


def test_residues_err_flags_a_short_window():
    # a spectrum to 40 gives sigma = 1.5: the dual frequencies swamp the sums,
    # and err says the identity is unresolved instead of moving the residue
    model = _residue_model("ball-ball", 40.0)
    res1 = zetafns.residues(model)[0]
    assert res1.residue.real == model.rho[0]
    assert res1.error >= 0.1 * abs(res1.residue)
    assert res1.error <= res1.bound and not res1.certified


_RESIDUE_SWEEP = [("ellipse-point", T) for T in (100.0, 150.0, 200.0)] + [
    ("ellipsoid-ball", T) for T in (60.0, 100.0, 150.0, 200.0)] + [("ball-ball", 40.0)]


@pytest.mark.parametrize("case, T", _RESIDUE_SWEEP, ids=[f"{c}-T{T:g}" for c, T in _RESIDUE_SWEEP])
def test_residue_error_stays_within_its_poisson_bound(case, T):
    # every coefficient, resolved or not: err <= bound from sigma = 1.6 to 8
    ests = zetafns.residues(_residue_model(case, T))
    for est in ests:
        assert est.error <= est.bound, est
        assert est.certified is (est.bound <= 0.05 * abs(est.residue)), est


def test_residues_reject_twisted_models():
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm(IRRATIONAL_BETA0)
    m = zetafns.build_zeta_model(spectrum.enumerate(p, p, T=60.0, beta=beta), 60.0)
    with pytest.raises(ValueError):
        zetafns.residues(m)


def _twisted_model(K1, K2, beta0, T):
    spec = spectrum.enumerate(K1, K2, T=T, beta=spectrum.TwistForm(beta0))
    return zetafns.build_zeta_model(spec)


def _poisson_bound(model):
    """(delta, sigma, Theta, B) for beta0 outside Z^d, derived afresh from the spectrum.

    The Gaussian moments come from the binomial expansion of E (mu + sigma N)^k,
    and Theta from a brute sum over the shifted lattice box [-6, 6]^d.
    """
    spec, d = model.spec, model.dim
    frac = np.asarray(spec.beta.beta0) - np.round(spec.beta.beta0)
    delta = float(np.linalg.norm(frac))
    sigma = min(8.0, (spec.T - spec.T0) / 25.0)
    mu = np.linspace(spec.T0 + 8.5 * sigma, spec.T - 8.5 * sigma, 2 * d)
    cols = np.array([[sum(math.comb(k, j) * m ** (k - j) * sigma**j
                          * math.prod(range(j - 1, 0, -2)) for j in range(0, k + 1, 2))
                      for k in range(d)] for m in mu])
    cols *= sigma * math.sqrt(2.0 * math.pi)
    p = np.abs(np.linalg.pinv(cols)[-1])
    box = np.array(list(itertools.product(range(-6, 7), repeat=d)), dtype=float) + frac
    theta = float(np.sum(np.exp(-0.5 * sigma**2 * np.sum(box**2, axis=1))))
    mags = np.array([np.sum(np.exp(-0.5 * ((spec.lengths - m) / sigma) ** 2)) for m in mu])
    bound = p @ (cols @ model.rho) * theta + len(spec) * np.finfo(float).eps * (p @ mags)
    return delta, sigma, theta, float(bound)


_TWIST_CASES = [
    ("twisted2_400", True),
    ("points3_200", True),
    ("ellipse_ball_third_quarter", True),
    # sigma = 3.96 at delta = 0.59: exp(-sigma^2 delta^2 / 2) = 6.4e-2, and
    # sum_j |P_j| Z_j Theta comes to 40 % of rho_d
    ("short_window", False),
    # delta = 0.05 at sigma = 7.96: exp(-sigma^2 delta^2 / 2) = 0.92, so the
    # window cannot tell the twist from none
    ("near_lattice", False),
]


@pytest.mark.parametrize("case, certified", _TWIST_CASES, ids=[c for c, _ in _TWIST_CASES])
def test_twist_suppression_holds_its_poisson_bound(case, certified, request):
    # beta0 outside Z^d: the smoothed leading density vanishes up to the derived bound
    p = convex.point((0.0, 0.0))
    if case == "twisted2_400":
        model = request.getfixturevalue("twisted2_400")
    elif case == "points3_200":
        model = _twisted_model(convex.point((0.0, 0.0, 0.0)), convex.point((0.9, 0.4, -1.1)),
                               IRRATIONAL_BETA0 + (math.sqrt(5.0) - 2.0,), 200.0)
    elif case == "ellipse_ball_third_quarter":
        rot = np.array([[0.8, -0.6], [0.6, 0.8]])
        model = _twisted_model(convex.ellipsoid((0.1, -0.2), (0.5, 0.3), rotation=rot),
                               convex.ball((0.3, 0.2), 0.2), (1.0 / 3.0, 0.25), 200.0)
    elif case == "short_window":
        model = _twisted_model(p, p, IRRATIONAL_BETA0, 100.0)
    else:
        model = _twisted_model(p, p, (0.05, 0.0), 200.0)
    delta, sigma, theta, bound = _poisson_bound(model)
    rep = zetafns.twist_suppression(model)
    assert rep.mode == "suppressed"
    assert rep.weighted == (0j,) * model.dim
    assert rep.deviation == abs(rep.empirical[-1])
    assert rep.bound == pytest.approx(bound, rel=1e-9)
    # Theta is at least its nearest term and not far above it
    nearest = math.exp(-0.5 * (sigma * delta) ** 2)
    assert nearest <= theta < 2**model.dim * nearest
    assert rep.deviation <= rep.bound
    assert (rep.bound <= 0.05 * model.rho[-1]) == certified
    assert rep.certified is certified


def test_twist_has_one_certificate_path():
    # the decay ladder and its report fields are gone from the package, the
    # demos and the README; twist_suppression is the only certificate
    root = Path(__file__).resolve().parent.parent
    texts = [root / "README.md", *sorted((root / "src").rglob("*.py")),
             *sorted((root / "demos").rglob("*.py"))]
    banned = re.compile(r"t_ladder|untwisted_level|[\"']decay[\"']")
    hits = [f"{path.name}:{n}" for path in texts
            for n, line in enumerate(path.read_text().splitlines(), 1) if banned.search(line)]
    assert hits == []
    assert [f.name for f in dataclasses.fields(zetafns.TwistReport)] == [
        "mode", "certified", "weighted", "empirical", "deviation", "bound"]


def test_twist_suppression_weighted_mode():
    p = convex.point((0.0, 0.0))
    q = convex.point((1.1, -0.7))
    beta = spectrum.TwistForm((1.0, 0.0), {(1, 0): 0.2, (-1, 0): 0.2})
    m = zetafns.build_zeta_model(spectrum.enumerate(p, q, T=150.0 * 2.0, beta=beta), 150.0)
    # the report reads the weighted density the model computed once
    with mock.patch.object(zetafns, "_weighted_density_residues", side_effect=AssertionError):
        rep = zetafns.twist_suppression(m)
    assert rep.weighted == tuple(complex(z) for z in m.density)
    fine = zetafns._weighted_density_residues(m.spec, 128)
    assert np.array_equal(m.density_delta, np.abs(fine - m.density))
    _, poisson, _ = zetafns._poisson_certificate(m)
    assert rep.bound == float(poisson[-1] + m.density_delta[-1])
    assert rep.mode == "weighted"
    assert rep.certified
    assert len(rep.weighted) == 2 and len(rep.empirical) == 2
    assert rep.deviation == abs(rep.empirical[-1] - rep.weighted[-1])
    assert rep.deviation <= rep.bound < 1e-9
    # the lower-order weighted residues agree with the spectrum too
    assert np.max(np.abs(np.subtract(rep.empirical, rep.weighted))) < 1e-9


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


def test_poincare_points_spectral_takes_complex_s():
    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    assert cmath.isfinite(zetafns.poincare_points_spectral(x, y, ZERO3, 0.5 + 0.4j))
    for s in (0.0, -0.7, 1.5j, -0.2 + 1.0j, math.nan, math.inf, complex(0.5, math.inf),
              complex(math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite s with Re"):
            zetafns.poincare_points_spectral(x, y, ZERO3, s)


def test_poincare_points_spectral_refuses_an_s_beyond_its_term_budget():
    # at s = 0.2 + 60i in d = 3 the lattice part would hold about 2e7 terms
    with pytest.raises(ValueError, match=r"needs more than 2e\+06 terms"):
        zetafns.poincare_points_spectral(np.zeros(3), np.array([0.9, 0.4, -1.1]), ZERO3,
                                         0.2 + 60j)


def test_poincare_eval_refuses_a_non_finite_s(model3):
    # nan once slipped past the Re(s) floor into a TailDominates with a nan bound
    for s in (math.nan, math.inf, complex(0.5, math.nan), complex(0.5, math.inf)):
        with pytest.raises(ValueError, match="finite s"):
            zetafns.poincare_eval(model3, s)
        with pytest.raises(ValueError, match="finite s"):
            zetafns.poincare_tail_bound(model3, s)


def test_poincare_points_rejects_equal_points():
    x = np.zeros(3)
    with pytest.raises(ValueError):
        zetafns.poincare_points_spectral(x, x + 2.0 * math.pi, ZERO3, 0.5)


EWALD_DIRECTIONS = {2: np.array([0.6, 0.8]), 3: np.array([2.0, 3.0, 6.0]) / 7.0}
EWALD_TWISTS = {2: np.array([0.3, 0.1]), 3: np.array([0.3, 0.1, 0.45])}
# sum_m e^{i m.u} (s^2 + |m + beta0|^2)^{-(d+1)/2} at 40 digits by the closed-form
# Ewald split (tests/oracles/oracle_ewald.py), keyed (d, twisted, torus distance, s),
# u = distance * EWALD_DIRECTIONS[d], beta0 = EWALD_TWISTS[d] when twisted
EWALD_DUAL = {
    (2, False, 2.0, 0.05): complex(8000.2344094736954, 1.4599968827483065e-41),
    (2, False, 2.0, 0.2): complex(125.20571925778778, -2.0477909226153874e-42),
    (2, False, 2.0, 1.0): complex(0.94400139867609218, 1.2163527141295665e-43),
    (2, False, 2.0, 4.0): complex(0.00052695061067628436, 4.1279702057106632e-50),
    (2, False, 2.0, 16.0): complex(4.973206181609898e-15, 0.0),
    (2, False, 2.0, 40.0): complex(2.8350539304382444e-36, 0.0),
    (2, False, 2.0, (0.2+1.7j)): complex(-1.8345764047923757, 2.1235015432224826),
    (2, False, 2.0, (1+3.2j)): complex(0.047526719257178544, -0.23089567817394981),
    (2, False, 0.3, 0.05): complex(8007.2180099462773, -1.3668700227776069e-42),
    (2, False, 0.3, 0.2): complex(131.95441726610286, 2.3631330578547744e-42),
    (2, False, 0.3, 1.0): complex(4.7061977561533786, 4.2582542592499397e-43),
    (2, False, 0.3, 4.0): complex(0.47311476182782363, -1.9558480866043701e-51),
    (2, False, 0.3, 16.0): complex(0.0032318141087629509, 0.0),
    (2, False, 0.3, 40.0): complex(9.6513061956557837e-7, 0.0),
    (2, False, 0.3, (0.2+1.7j)): complex(1.2560824091796813, 0.3842006067070254),
    (2, False, 0.3, (1+3.2j)): complex(-0.85640739467554435, -1.1063082205371731),
    (2, False, 0.001, 0.05): complex(8009.0083027034815, 1.17794769638213e-45),
    (2, False, 0.001, 0.2): complex(133.73463138850771, -4.4864491481939949e-45),
    (2, False, 0.001, 1.0): complex(6.3274443873301559, -5.7187583963217996e-46),
    (2, False, 0.001, 4.0): complex(1.5645256911963282, 5.6977542869771636e-54),
    (2, False, 0.001, 16.0): complex(0.38646589486033686, 0.0),
    (2, False, 0.001, 40.0): complex(0.15092045218437981, 0.0),
    (2, False, 0.001, (0.2+1.7j)): complex(3.2186274898519019, 0.14881180403974295),
    (2, False, 0.001, (1+3.2j)): complex(0.54112865461166005, -1.7958647409739216),
    (2, False, 2e-09, 0.05): complex(8009.0145848927046, -2.4001036571867432e-50),
    (2, False, 2e-09, 0.2): complex(133.74091345438907, 2.9061947676366874e-51),
    (2, False, 2e-09, 1.0): complex(6.3337244088581972, 5.7961654718615628e-52),
    (2, False, 2e-09, 4.0): complex(1.5707963143049417, 6.2925217449378335e-59),
    (2, False, 2e-09, 16.0): complex(0.39269906913235374, 0.0),
    (2, False, 2e-09, 40.0): complex(0.15707962011311955, 0.0),
    (2, False, 2e-09, (0.2+1.7j)): complex(3.2249124728928962, 0.14880891620786879),
    (2, False, 2e-09, (1+3.2j)): complex(0.54740863848165068, -1.7958747869007113),
    (2, True, 2.0, 0.05): complex(30.982693395506843, -2.7352539964618429),
    (2, True, 2.0, 0.2): complex(19.512469489148681, -2.4353787387860017),
    (2, True, 2.0, 1.0): complex(0.78997766655199832, -0.38606438083441178),
    (2, True, 2.0, 4.0): complex(0.00045729806152443607, -0.00026182621107606697),
    (2, True, 2.0, 16.0): complex(4.3158437088925193e-15, -2.4710873730436496e-15),
    (2, True, 2.0, 40.0): complex(2.4603141762548144e-36, -1.4086819877505824e-36),
    (2, True, 2.0, (0.2+1.7j)): complex(-1.0870144216920234, 5.2152163420066028),
    (2, True, 2.0, (1+3.2j)): complex(-0.097677974932984283, -0.220340032095417),
    (2, True, 0.3, 0.05): complex(39.008928930088844, -1.0175341080373752),
    (2, True, 0.3, 0.2): complex(27.165704942073053, -0.94550779919043048),
    (2, True, 0.3, 1.0): complex(4.6522801519566305, -0.35600235402443431),
    (2, True, 0.3, 4.0): complex(0.47167627618758144, -0.036865543152978859),
    (2, True, 0.3, 16.0): complex(0.003221987913640875, -0.00025182596758751435),
    (2, True, 0.3, 40.0): complex(9.6219618043418557e-7, -7.5203877432625564e-8),
    (2, True, 0.3, (0.2+1.7j)): complex(-1.6832724059800521, -3.8369806365850026),
    (2, True, 0.3, (1+3.2j)): complex(-0.92612602852686742, -1.0301274390383896),
    (2, True, 0.001, 0.05): complex(40.847784105126344, -0.0038643961751144674),
    (2, True, 0.001, 0.2): complex(28.990179889649318, -0.003620897054740236),
    (2, True, 0.001, 1.0): complex(6.2877324469941349, -0.0016096002472906989),
    (2, True, 0.001, 4.0): complex(1.5645256382580472, -0.00040677667495405301),
    (2, True, 0.001, 16.0): complex(0.38646588179778969, -0.00010048113153160015),
    (2, True, 0.001, 40.0): complex(0.15092044708326856, -3.9239317125842439e-5),
    (2, True, 0.001, (0.2+1.7j)): complex(0.97967636624505926, -3.8002921171864395),
    (2, True, 0.001, (1+3.2j)): complex(0.54947013750164046, -1.7912154249685613),
    (2, True, 2e-09, 0.05): complex(40.854066895368265, -7.7320592580500347e-9),
    (2, True, 2e-09, 0.2): complex(28.996462508300434, -7.2450609354939151e-9),
    (2, True, 2e-09, 1.0): complex(6.2940126812829141, -3.2224661464452934e-9),
    (2, True, 2e-09, 4.0): complex(1.5707963142476288, -8.1681408309062e-10),
    (2, True, 2e-09, 16.0): complex(0.39269906913235374, -2.0420351594882395e-10),
    (2, True, 2e-09, 40.0): complex(0.15707962011311955, -8.1681402458822169e-11),
    (2, True, 2e-09, (0.2+1.7j)): complex(0.98869492110635833, -3.7976224049539756),
    (2, True, 2e-09, (1+3.2j)): complex(0.55619273095669986, -1.7910893105075141),
    (3, False, 2.0, 0.05): complex(160002.5765379014, 2.1691585952503937e-42),
    (3, False, 2.0, 0.2): complex(627.38151273784774, -1.4728143864381669e-41),
    (3, False, 2.0, 1.0): complex(1.5299012756524444, -1.3166596358329636e-42),
    (3, False, 2.0, 4.0): complex(0.00082773926135971507, 8.199511811653018e-50),
    (3, False, 2.0, 16.0): complex(7.8118940024665208e-15, 0.0),
    (3, False, 2.0, 40.0): complex(4.4532923001978564e-36, 0.0),
    (3, False, 2.0, (0.2+1.7j)): complex(0.49310551650951416, 3.6116989974989624),
    (3, False, 2.0, (1+3.2j)): complex(0.061021389842458057, -0.38711817408685326),
    (3, False, 0.3, 0.05): complex(160013.6643152505, 3.6928086882488325e-42),
    (3, False, 0.3, 0.2): complex(638.08221863136203, 9.6295844519411086e-43),
    (3, False, 0.3, 1.0): complex(7.441831790382379, 2.1920929485002331e-43),
    (3, False, 0.3, 4.0): complex(0.74316693009021943, -1.5703302623231146e-51),
    (3, False, 0.3, 16.0): complex(0.0050765217309287674, 0.0),
    (3, False, 0.3, 40.0): complex(1.5160236320908945e-6, 0.0),
    (3, False, 0.3, (0.2+1.7j)): complex(-0.31142177201690785, -2.6981640775358786),
    (3, False, 0.3, (1+3.2j)): complex(-1.3549752043467385, -1.7406613135055648),
    (3, False, 0.001, 0.05): complex(160016.48056806828, -1.5423449020245807e-44),
    (3, False, 0.001, 0.2): complex(640.88206473511011, 1.4170169482824146e-44),
    (3, False, 0.001, 1.0): complex(9.9886408216688324, 1.2147694532234172e-45),
    (3, False, 0.001, 4.0): complex(2.4575512089674612, -2.0832589489673751e-53),
    (3, False, 0.001, 16.0): complex(0.60705920807811986, 0.0),
    (3, False, 0.001, 40.0): complex(0.23706529192944864, 0.0),
    (3, False, 0.001, (0.2+1.7j)): complex(2.4930161057475234, -3.2813237132468501),
    (3, False, 0.001, (1+3.2j)): complex(0.84053080291580315, -2.8236533309165062),
    (3, False, 2e-09, 0.05): complex(160016.49043615359, -5.5926378080162754e-51),
    (3, False, 2e-09, 0.2): complex(640.89193262023971, -1.66695332902234e-50),
    (3, False, 2e-09, 1.0): complex(9.9985054582274049, 3.8542633453517515e-51),
    (3, False, 2e-09, 4.0): complex(2.4674010807131864, -8.6296717391392556e-59),
    (3, False, 2e-09, 16.0): complex(0.61685025532887643, 0.0),
    (3, False, 2e-09, 40.0): complex(0.24674009028802595, 0.0),
    (3, False, 2e-09, (0.2+1.7j)): complex(2.5028853896365103, -3.2813306676298259),
    (3, False, 2e-09, (1+3.2j)): complex(0.85039538137878605, -2.8236691089719181),
    (3, True, 2.0, 0.05): complex(10.979548444624735, -9.1907670079162127),
    (3, True, 2.0, 0.2): complex(8.7904714522441457, -7.9320152381107878),
    (3, True, 2.0, 1.0): complex(0.69439667422041363, -1.0508849005831713),
    (3, True, 2.0, 4.0): complex(0.00042713582132976794, -0.00070897726317056568),
    (3, True, 2.0, 16.0): complex(4.0312734672408791e-15, -6.6913766997600799e-15),
    (3, True, 2.0, 40.0): complex(2.2980904612872928e-36, -3.8145238946350661e-36),
    (3, True, 2.0, (0.2+1.7j)): complex(1.5828674116580314, 1.436523905971419),
    (3, True, 2.0, (1+3.2j)): complex(-0.2992043925343289, -0.31239930679424771),
    (3, True, 0.3, 0.05): complex(29.79196163844756, -3.7692924251869686),
    (3, True, 0.3, 0.2): complex(26.000525719300346, -3.4079883641918558),
    (3, True, 0.3, 1.0): complex(7.2049769631847737, -1.1120438978984886),
    (3, True, 0.3, 4.0): complex(0.73433925876898118, -0.11420568549155474),
    (3, True, 0.3, 16.0): complex(0.0050162205224939458, -0.00078013111353321487),
    (3, True, 0.3, 40.0): complex(1.4980156215127337e-6, -2.3297392721479787e-7),
    (3, True, 0.3, (0.2+1.7j)): complex(-4.5061241841971535, -8.6064579101055315),
    (3, True, 0.3, (1+3.2j)): complex(-1.571885471692787, -1.4980148131993643),
    (3, True, 0.001, 0.05): complex(32.963794969088824, -0.014094511676237102),
    (3, True, 0.001, 0.2): complex(29.115718636000073, -0.012870999271959891),
    (3, True, 0.001, 1.0): complex(9.8395345892513053, -0.0050323333490272655),
    (3, True, 0.001, 4.0): complex(2.4575508837617307, -0.0012638834228876943),
    (3, True, 0.001, 16.0): complex(0.6070591277976386, -0.00031220186467780758),
    (3, True, 0.001, 40.0): complex(0.23706526057877399, -0.00012191928761788645),
    (3, True, 0.001, (0.2+1.7j)): complex(0.2054598883525386, -10.07391968930934),
    (3, True, 0.001, (1+3.2j)): complex(0.87100334723109233, -2.8084672158247648),
    (3, True, 2e-09, 0.05): complex(32.97366739213319, -2.8199175333498364e-8),
    (3, True, 2e-09, 0.2): complex(29.12559040749389, -2.5752150079217243e-8),
    (3, True, 2e-09, 1.0): complex(9.8494005396789321, -1.0074813646855799e-8),
    (3, True, 2e-09, 4.0): complex(2.4674010805060582, -2.5378982538562287e-9),
    (3, True, 2e-09, 16.0): complex(0.61685025532887643, -6.3447454833827293e-10),
    (3, True, 2e-09, 40.0): complex(0.24674009028802595, -2.5378980715339814e-10),
    (3, True, 2e-09, (0.2+1.7j)): complex(0.22283036431124969, -10.073493226929829),
    (3, True, 2e-09, (1+3.2j)): complex(0.88228445621987256, -2.8080446925873614),
}


@pytest.mark.parametrize("d,twisted", [(2, False), (2, True), (3, False), (3, True)])
def test_ewald_dual_sum_matches_a_40_digit_oracle(d, twisted):
    # down to the near pair at 2e-9, out to s = 40 (a sum of about 1e-36) and off the axis
    beta0 = EWALD_TWISTS[d] if twisted else np.zeros(d)
    for (dim, tw, dist, s), want in EWALD_DUAL.items():
        if (dim, tw) == (d, twisted):
            got = zetafns._ewald_dual_sum(s, dist * EWALD_DIRECTIONS[d], beta0, d)
            assert abs(got - want) <= 1e-12 * abs(want), (dist, s)


def test_dual_sum_doubling_is_checked_against_its_terms(monkeypatch):
    # a far pair at s = 40 sums to about 1e-36, where an absolute floor of 1e-12
    # would pass any order doubling; the check reads the terms' own magnitudes
    assert abs(EWALD_DUAL[(3, False, 2.0, 40.0)]) < 1e-30
    monkeypatch.setattr(zetafns, "_ewald_order", lambda s, rho: 24)
    with pytest.raises(spherequad.UnderResolved, match="dual sum doubling 24->48"):
        zetafns._ewald_dual_sum(40.0, 2.0 * EWALD_DIRECTIONS[3], np.zeros(3), 3)


@pytest.mark.parametrize("d,s,beta0", [
    (2, 8.0 + 1.0j, 0.0),  # a sum near e^{-rho Re s} = 4e-16; its terms' magnitudes sum to 0.18
    (2, 4.0 + 1.7j, 0.0),
    (3, 1.0, 0.5),         # a sum that is 0 by symmetry
])
def test_dual_sum_refuses_an_s_whose_terms_cancel_beyond_rounding(d, s, beta0):
    # rounding is 1e-16 of the terms' magnitudes, so a sum far below them is refused
    with pytest.raises(ValueError, match="cancels"):
        zetafns._ewald_dual_sum(s, np.full(d, math.pi), np.full(d, beta0), d)


def _point_pair_head(x, y, beta0, s_grid, T):
    """sum of e^{-i beta0.w} e^{-s |w|} over w = x - y + 2 pi k with |w| <= T, at each s.

    The twist's phase convention is pinned against spectrum.enumerate below.
    """
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    reach = int((T + np.linalg.norm(u)) / (2.0 * math.pi)) + 1
    w = np.concatenate([w[np.linalg.norm(w, axis=1) <= T] for w in (
        u + 2.0 * math.pi * k for k in spectrum._lattice_slabs(u.size, reach))])
    lengths = np.linalg.norm(w, axis=1)
    phases = np.exp(-1j * (w @ np.asarray(beta0, dtype=float)))
    return np.array([np.exp(-s * lengths) @ phases for s in s_grid])


def test_point_pair_head_reads_the_spectrum_phases():
    x, y, beta0 = np.zeros(2), np.array([0.9, 0.4]), EWALD_TWISTS[2]
    spec = spectrum.enumerate(convex.point(x), convex.point(y), T0=0.0, T=30.0,
                              beta=spectrum.TwistForm(beta0))
    s = np.array([0.7 + 0.3j, 1.5])
    want = np.exp(-np.outer(s, spec.lengths)) @ spec.phases
    assert np.max(np.abs(_point_pair_head(x, y, beta0, s, 30.0) - want)) < 1e-14


@pytest.mark.parametrize("d,twisted", [(2, False), (2, True), (3, False), (3, True)])
def test_poincare_points_spectral_meets_a_long_head_on_the_default_grid(d, twisted):
    # the 33 s of the poincare subcommand, crossing the lines; a head to T = 200
    # (d = 2) or 240 (d = 3) leaves a tail below 1e-15 at Re s = 0.2
    x, y = np.zeros(d), np.array([0.9, 0.4, -1.1])[:d]
    beta0 = EWALD_TWISTS[d] if twisted else np.zeros(d)
    s_grid = np.array([complex(0.2, t) for t in np.linspace(0.0, 3.2, 33)])
    head = _point_pair_head(x, y, beta0, s_grid, 200.0 if d == 2 else 240.0)
    dual = np.array([zetafns.poincare_points_spectral(x, y, spectrum.TwistForm(beta0), s)
                     for s in s_grid])
    assert np.max(np.abs(dual - head) / np.abs(head)) <= 1e-11


@pytest.mark.parametrize("twisted", [False, True])
def test_poincare_points_spectral_meets_a_long_head_in_d5(twisted):
    x = np.zeros(5)
    y = np.array([0.9, 0.4, -1.1, 0.3, -0.6])
    beta0 = np.array([0.3, 0.1, 0.45, -0.2, 0.37]) if twisted else np.zeros(5)
    s_grid = np.array([1.0, 1.0 + 1.6j, 1.0 + 3.2j])
    head = _point_pair_head(x, y, beta0, s_grid, 45.0)  # tail below 1e-15 at Re s = 1
    dual = np.array([zetafns.poincare_points_spectral(x, y, spectrum.TwistForm(beta0), s)
                     for s in s_grid])
    assert np.max(np.abs(dual - head) / np.abs(head)) <= 1e-11


def test_gammaincc_matches_a_40_digit_oracle():
    # the regularized Q(p, x) of the Poincare tail bound, integer p only
    x = np.geomspace(1e-3, 300.0, 121)
    with mp.workdps(40):
        for p in (1, 2, 3, 4, 5):
            want = [float(mp.gammainc(p, mp.mpf(v), mp.inf, regularized=True)) for v in x]
            assert np.max(np.abs(zetafns._gammaincc(p, x) / want - 1.0)) <= 2e-15, p
    for p in (0, 1.3, 1.5, 2.5):
        with pytest.raises(ValueError):
            zetafns._gammaincc(p, x)


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


@pytest.mark.parametrize("alpha, z", [(0.5, -1.0), (1.0, 0.0), (2.0, -0.5 + 1e-12j),
                                      (1.5, np.array([0.3 + 0.2j, -2.0]))])
def test_F_alpha_refuses_the_negative_real_axis(alpha, z):
    with pytest.raises(ValueError, match="F_alpha is defined off the negative real axis"):
        zetafns.F_alpha(alpha, z)


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


_TWISTS = {2: [(0.0, 0.0), (0.3, 0.1), (0.5, 0.5)],
           3: [(0.0, 0.0, 0.0), (0.3, 0.1, 0.45), (0.5, 0.5, 0.0)],
           4: [(0.0, 0.0, 0.0, 0.0), (0.3, 0.1, 0.45, 0.2), (0.5, 0.5, 0.0, 0.5)]}


@pytest.mark.parametrize("dim, beta0", [(d, b) for d, bs in _TWISTS.items() for b in bs])
def test_predicted_lines_equal_those_of_the_whole_cube(dim, beta0):
    # the lines as read from every point of the cube at once, as they were
    # before the slabs: the slabs keep the norms and their rounding bitwise
    beta0 = np.asarray(beta0)
    # in d = 4 the reference cube to 20 would hold 4.1M points
    for y_max in (3.6, 20.0 if dim < 4 else 10.0):
        reach = y_max + 1e-9
        m = spectrum._lattice_box(dim, int(math.ceil(reach + np.linalg.norm(beta0))))
        rho = np.linalg.norm(m - beta0, axis=1)
        keep = rho <= reach
        got = zetafns.predicted_lines(spectrum.TwistForm(beta0), y_max)
        assert got.tobytes() == np.unique(np.round(rho[keep], 12)).tobytes()
        dual_m, dual_rho = zetafns._dual_points(beta0, reach)
        assert np.array_equal(dual_m, m[keep]) and dual_rho.tobytes() == rho[keep].tobytes()


def test_predicted_lines_hold_one_slab_of_the_cube_at_a_time():
    # a y grid to 100 in d = 3 asks for the lines to 101: the cube [-102, 102]^3
    # holds 8.6M points, 206 MiB of coordinates alone
    import tracemalloc
    tracemalloc.start()
    try:
        lines = zetafns.predicted_lines(spectrum.TwistForm(np.array([0.3, 0.1, 0.45])), 101.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines[-1] <= 101.0 and lines.size > 100000
    assert peak < 128 * 2**20


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
        model = zetafns.build_zeta_model(
            spectrum.enumerate(convex.point(x), convex.point(y), T=T), T)
        lines = [f for f in zetafns.singularity_scan(model) if f.location > 0.1]
        assert len(lines) >= 2, (x, y)
        for f in lines:
            assert f.alpha == (1.0 - d) / 2.0, (x, y, f)
            assert f.line_distance <= 0.03, (x, y, f)


def test_singularity_scan_deflates_by_the_twists_own_density():
    # beta0 outside Z^d has a zero nu = 0 density; deflating by the untwisted
    # rho left a false y = 0 stack and no fit on the line |beta0| = 0.3162
    p, q = convex.point((0.0, 0.0)), convex.point((0.9, 0.4))
    beta = spectrum.TwistForm((0.3, 0.1))
    model = zetafns.build_zeta_model(spectrum.enumerate(p, q, T=150.0, beta=beta))
    (fit,) = zetafns.singularity_scan(model)
    assert fit.alpha == -0.5
    assert fit.nearest_line == pytest.approx(math.hypot(0.3, 0.1), abs=1e-12)
    assert fit.line_distance < 0.01


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
    return zetafns.ZetaModel(spec=spec, rho=np.zeros(3), T=T, steiner=None,
                             density=np.zeros(3), density_delta=np.zeros(3))


def nan_phase_model():
    model = synthetic_model(1.0)
    model.spec.phases[5] = np.nan
    return model


def nan_rho_model():
    # the scan deflates by the model's density, rho itself when untwisted
    model = synthetic_model(1.0)
    model.density[0] = np.nan
    return model


def nan_ladder_row_scan():
    """singularity_scan with the largest-eps head row NaN: the peak at y = 1.3
    is still detected on the smallest eps, and its log-slope fit is NaN."""
    head = zetafns._head_boundary_values

    def nan_first_row(lengths, phases, s):
        out = head(lengths, phases, s)
        if out.ndim == 2:  # the ladder, not the short head
            out[0] = np.nan
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


def dense_boundary_values(lengths, phases, s):
    """sum_k phases[k] exp(-s l_k) on a (ladder, y) grid s, one exact exp(-i y l) per (y, l)."""
    grid = np.atleast_2d(s)
    damp = phases[:, None] * np.exp(-np.outer(lengths, grid[:, 0].real))
    return np.array([np.exp(-1j * y * lengths) @ damp for y in grid[0].imag]).T.reshape(s.shape)


@pytest.mark.parametrize("y_grid, tie", [
    (np.linspace(0.0, 3.2, 641), False),
    # far from the origin the carrier's phase y_c l is largest
    (np.linspace(40.0, 43.0, 301), False),
    (np.array([0.0, 0.31, 0.5, 1.7, 1.71, 2.9, 3.2]), False),
    (np.array([1.234]), False),
    # records are sorted only up to _GROUP_TOL: the least length need not come first
    (np.linspace(0.0, 3.2, 641), True),
], ids=["default", "offset", "explicit", "single", "ties"])
def test_head_boundary_values_match_the_dense_sum(model3, y_grid, tie):
    lengths = model3.spec.lengths.copy()
    if tie:
        lengths[1] = lengths[0] - 1e-12
        assert lengths.min() < lengths[0]
    # unit-modulus weights that vary from record to record
    beta0 = np.array([math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0), 0.25])
    phases = np.exp(1j * (model3.spec.lengths[:, None] * model3.spec.theta) @ beta0)
    s = np.array([0.1, 0.04])[:, None] + 1j * y_grid[None, :]
    got = zetafns._head_boundary_values(lengths, phases, s)
    want = dense_boundary_values(lengths, phases, s)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.all(err <= 1e-12), err


def test_head_boundary_values_of_no_records_are_zero():
    s = np.array([0.1, 0.04])[:, None] + 1j * np.linspace(0.0, 3.2, 5)[None, :]
    got = zetafns._head_boundary_values(np.empty(0), np.empty(0, dtype=complex), s)
    assert got.shape == s.shape and not np.any(got)


def test_singularity_scan_with_an_empty_short_head_matches_the_dense_sum():
    # T0 = 90 >= 0.85 T: every record lies beyond the short head's cut
    spec = spectrum.enumerate(convex.point((0.0, 0.0, 0.0)), convex.point((0.9, 0.4, -1.1)),
                              T0=90.0, T=100.0)
    model = zetafns.build_zeta_model(spec, 100.0)
    assert np.searchsorted(spec.lengths, 0.85 * spec.T) == 0
    got = zetafns.singularity_scan(model)
    with mock.patch.object(zetafns, "_head_boundary_values", dense_boundary_values):
        want = zetafns.singularity_scan(model)
    assert len(got) == len(want) >= 5
    for g, w in zip(got, want):
        assert (g.location, g.alpha) == (w.location, w.alpha)
        assert g.exponent == pytest.approx(w.exponent, abs=1e-12)
        assert g.coefficient == pytest.approx(w.coefficient, rel=1e-10)


def test_singularity_scan_memory_is_bounded(model3):
    # the bench's ladder and y grid: the bin moments hold a few arrays of the
    # 56,943 records and one ladder row by the bins
    import tracemalloc
    ladder = np.geomspace(0.1, 9.0 / 150.0, 8)
    y_grid = np.linspace(0.0, 2.6, 521)
    tracemalloc.start()
    try:
        fits = zetafns.singularity_scan(model3, ladder, y_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [round(f.location, 3) for f in fits] == [0.0, 1.0, 1.415, 1.735, 2.23]
    assert peak < 16 * 2**20


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
def guinand_spectrum():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                               math.sqrt(5.0) - 2.0))
    return spectrum.enumerate(p, q, T0=0.0, T=150.0, beta=beta)


def test_guinand_pairing_on_a_line(guinand_spectrum):
    lines = zetafns.predicted_lines(guinand_spectrum.beta, 2.0)
    window = zetafns.GaussianWindow(float(lines[0]), 0.2)
    res = zetafns.guinand_pairing(guinand_spectrum, window)
    rel = abs(res.length_side - res.spectral_side) / abs(res.spectral_side)
    assert rel < 1e-6
    assert res.truncation_mass < 1e-12
    assert abs(res.spectral_side) > 1e-4


def test_guinand_pairing_off_line(guinand_spectrum):
    # below the first line the nearest spectral mass is many widths away
    lines = zetafns.predicted_lines(guinand_spectrum.beta, 2.0)
    window = zetafns.GaussianWindow(0.5 * float(lines[0]), 0.05)
    res = zetafns.guinand_pairing(guinand_spectrum, window)
    assert abs(res.length_side) < 1e-6
    assert abs(res.spectral_side) < 1e-6


def test_guinand_truncation_guard(guinand_spectrum):
    window = zetafns.GaussianWindow(0.6, 0.01)   # needs far more spectrum
    with pytest.raises(zetafns.TruncationTooSmall):
        zetafns.guinand_pairing(guinand_spectrum, window)


def test_guinand_pairing_in_d5():
    # the d = 5 branch of _ghat_radial, on the first line of an irrational twist
    p = convex.point((0.0, 0.0, 0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1, 0.3, -0.6))
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                               math.sqrt(5.0) - 2.0, math.sqrt(7.0) - 2.5,
                               math.pi - 3.0))
    spec = spectrum.enumerate(p, q, T0=0.0, T=40.0, beta=beta)
    lines = zetafns.predicted_lines(beta, 2.0)
    res = zetafns.guinand_pairing(spec, zetafns.GaussianWindow(float(lines[0]), 0.2))
    assert res.truncation_mass < 1e-12
    assert abs(res.spectral_side) > 1e-4
    assert abs(res.length_side - res.spectral_side) / abs(res.spectral_side) < 1e-9


def test_guinand_rejects_nonzero_T0():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    spec = spectrum.enumerate(p, q, T=60.0)
    with pytest.raises(ValueError):
        zetafns.guinand_pairing(spec, zetafns.GaussianWindow(1.0, 0.2))
