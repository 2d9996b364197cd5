"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS/FAIL line with its measured figures so the
suite output doubles as a verification report.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import curve_fit

from orthospec import convex, dynamics, spectrum, spherequad, zetafns
from sphere_fourier import bessel_surface

IRRATIONAL_BETA2 = (math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0))
IRRATIONAL_BETA3 = (math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                    math.sqrt(5.0) - 2.0)


def report(capsys, n, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} ({name}): {detail}"


@pytest.fixture(scope="module")
def points2_400():
    # the twist sets the phases only, so criterion 1 counts the same records
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm(IRRATIONAL_BETA2)
    t0 = time.perf_counter()
    spec = spectrum.enumerate(p, p, T=400.0, beta=beta, workers=1)
    return spec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scan_model3():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    return zetafns.build_zeta_model(spectrum.enumerate(p, q, T=300.0), 300.0)


@pytest.fixture(scope="module")
def guinand300():
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    beta = spectrum.TwistForm(IRRATIONAL_BETA3)
    return spectrum.enumerate(p, q, T0=0.0, T=300.0, beta=beta)


def test_criterion_1_counting_law(points2_400, capsys):
    spec, elapsed = points2_400
    n = spectrum.counting(spec, 400.0)
    dev2 = abs(n * 4.0 * math.pi / 400.0**2 - 1.0)

    b1 = convex.ball((0.0, 0.0, 0.0), 0.3)
    b2 = convex.ball((0.0, 0.0, 0.0), 0.2)
    w = 2.0
    spec3 = spectrum.enumerate(b1, b2, T=60.0 + w)
    ts = np.linspace(20.0 + w, 60.0 - w, 120)
    # window-averaged staircase: the mean of N over [T-w, T+w] has the
    # exact closed form a ((T+b)^3 + w^2 (T+b)) under the cubic law
    contrib = np.clip(ts[:, None] + w - spec3.lengths[None, :], 0.0, 2.0 * w)
    nbar = contrib.sum(axis=1) / (2.0 * w)
    a0 = (2.0 * math.pi) ** (-3) * (4.0 * math.pi / 3.0)
    (a, b), _ = curve_fit(
        lambda T, a, b: a * ((T + b) ** 3 + w * w * (T + b)),
        ts, nbar, p0=(a0, 0.0))
    lead_dev = abs(a / a0 - 1.0)
    sub_dev = abs((3.0 * a * b) / (3.0 * a0 * 0.5) - 1.0)
    ok = dev2 <= 0.01 and elapsed < 10.0 and lead_dev <= 0.02 and sub_dev <= 0.05
    report(capsys, 1, "counting law", ok,
           f"d2 dev {dev2:.2e} in {elapsed:.2f}s; "
           f"d3 lead dev {lead_dev:.2%}, subleading dev {sub_dev:.2%}")


def test_criterion_2_residues_are_intrinsic_volumes(capsys):
    e = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    p = convex.point((0.0, 0.0))
    head = 60.0 * math.pi / 2
    ests2 = zetafns.residues(
        zetafns.build_zeta_model(spectrum.enumerate(e, p, T=head * 4.0), head))
    perimeter = quad(
        lambda t: math.hypot(1.3 * math.sin(t), 0.7 * math.cos(t)),
        0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12)[0]
    dev1 = abs(ests2[0].residue.real / (perimeter / (2.0 * math.pi) ** 2) - 1.0)
    dev2 = abs(ests2[1].residue.real / (1.0 / (2.0 * math.pi)) - 1.0)

    b1 = convex.ball((0.0, 0.0, 0.0), 0.3)
    b2 = convex.ball((0.0, 0.0, 0.0), 0.2)
    ests3 = zetafns.residues(
        zetafns.build_zeta_model(spectrum.enumerate(b1, b2, T=50.0 * 2.0), 50.0))
    r = 0.5  # difference body is the ball of the summed radii
    volumes = [1.0, 4.0 * r, 2.0 * math.pi * r**2, 4.0 * math.pi * r**3 / 3.0]
    devs3 = []
    for est in ests3:
        ell = est.pole
        want = (ell * math.pi ** (ell / 2.0)
                / ((2.0 * math.pi) ** 3 * math.gamma(ell / 2.0 + 1.0))
                * volumes[3 - ell])
        devs3.append(abs(est.residue.real / want - 1.0))
    # the spectral deviation: the Gaussian-smoothed estimate off the Steiner value
    spec2, spec3 = (max(e.error / abs(e.residue) for e in ests) for ests in (ests2, ests3))
    ok = dev1 <= 0.01 and dev2 <= 0.005 and max(devs3) <= 0.03
    report(capsys, 2, "residue identity", ok,
           f"ellipse devs {dev1:.2e}/{dev2:.2e}, spectral {spec2:.1e}; ball devs "
           + "/".join(f"{d:.1e}" for d in devs3) + f", spectral {spec3:.1e}")


def test_criterion_3_twisted_counting_collapses(points2_400, capsys):
    spec, _ = points2_400
    model = zetafns.build_zeta_model(spec)
    rep = zetafns.twist_suppression(model)
    delta = float(np.linalg.norm(np.array(IRRATIONAL_BETA2) - np.round(IRRATIONAL_BETA2)))
    sigma = min(8.0, (spec.T - spec.T0) / 25.0)  # the window width of _poisson_certificate
    rho_d = model.rho[-1]
    ok = rep.mode == "suppressed" and rep.certified and rep.deviation <= rep.bound
    report(capsys, 3, "twisted holomorphy proxy", ok,
           f"delta {delta:.3f}, sigma {sigma:.2f}: smoothed lead {rep.deviation / rho_d:.1e} "
           f"<= bound {rep.bound / rho_d:.1e} rho_d (exp(-sigma^2 delta^2/2) "
           f"{math.exp(-0.5 * (sigma * delta) ** 2):.1e})")


def test_criterion_4_oscillatory_engine(capsys):
    rhos = np.linspace(0.5, 200.0, 400)
    errs = [
        abs(spherequad.osc_integral(3, xi=np.array([r, 0.0, 0.0]), t=1.0).value
            - bessel_surface(3, r))
        for r in rhos
    ]
    exact_dev = max(errs)

    ts = np.geomspace(50.0, 800.0, 14)
    resid = []
    for t in ts:
        full = spherequad.osc_integral(2, xi=np.array([1.0, 0.0]), t=float(t)).value
        lead, _ = spherequad.stationary_phase(2, xi=np.array([1.0, 0.0]), t=float(t))
        resid.append(abs(full - lead))
    slope = float(np.polyfit(np.log(ts), np.log(resid), 1)[0])

    cap = spherequad.cap_decay_check(
        3, xi=np.array([1.0, 0.0, 0.0]), ts=np.geomspace(40.0, 400.0, 8))
    ok = exact_dev <= 1e-10 and abs(slope + 1.5) <= 0.15 and cap <= -3.0
    report(capsys, 4, "oscillatory engine", ok,
           f"closed-form dev {exact_dev:.1e}; residual slope {slope:.3f}; "
           f"cap exponent {cap:.2f}")


def test_criterion_5_poincare_singularities(scan_model3, capsys):
    model = scan_model3
    fits = zetafns.singularity_scan(model)
    stack = [f for f in fits if f.location < 0.1]
    lines = [f for f in fits if f.location >= 0.1]
    loc_dev = max(f.line_distance for f in lines)
    exp_dev = max(abs(f.exponent + 2.0) for f in lines)
    stack_ok = len(stack) == 1 and abs(stack[0].exponent + 3.0) <= 0.3

    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    rels = []
    for s in np.linspace(0.2, 2.0, 19):
        direct = zetafns.poincare_eval(model, float(s))
        spectral = zetafns.poincare_points_spectral(x, y, model.spec.beta, float(s))
        rels.append(abs(direct - spectral) / abs(spectral))
    ok = (len(lines) >= 3 and loc_dev <= 0.01 and exp_dev <= 0.2
          and stack_ok and max(rels) <= 1e-6)
    report(capsys, 5, "Poincare singularities", ok,
           f"{len(lines)} lines, max offset {loc_dev:.4f}, exponent dev "
           f"{exp_dev:.2f}, y=0 exponent {stack[0].exponent:.2f}, "
           f"spectral rel {max(rels):.1e}")


def test_criterion_6_guinand_meyer(guinand300, capsys):
    lines = zetafns.predicted_lines(guinand300.beta, 2.0)
    on = zetafns.guinand_pairing(
        guinand300, zetafns.GaussianWindow(float(lines[0]), 0.2))
    rel = abs(on.length_side - on.spectral_side) / abs(on.spectral_side)
    off = zetafns.guinand_pairing(
        guinand300, zetafns.GaussianWindow(0.5 * float(lines[0]), 0.05))
    off_len, off_spec = abs(off.length_side), abs(off.spectral_side)
    ok = rel <= 1e-3 and off_len <= 1e-6 and off_spec <= 1e-6
    report(capsys, 6, "Guinand-Meyer summation", ok,
           f"on-line rel {rel:.1e}; off-line sides {off_len:.1e}/{off_spec:.1e}")


def test_criterion_7_correlation_asymptotics(capsys):
    beta0 = np.array([0.15, -0.35])
    phi = dynamics.TorusObservable(
        2, {(1, 0): 1.0, (0, 1): 0.5j, (1, 1): 0.25})
    psi = dynamics.TorusObservable(
        2, {(-1, 0): 1.0, (0, -1): -0.5j, (-1, -1): 0.25})
    ts = np.geomspace(50.0, 800.0, 16)
    scaled = []
    for t in ts:
        got = dynamics.correlation(phi, psi, beta0, float(t))
        exp = dynamics.correlation_expansion(phi, psi, beta0, float(t))
        scaled.append(abs(got - exp) * float(t) ** 1.5)
    fitted = float(np.median(scaled))
    trend = float(np.polyfit(np.log(ts), np.log(scaled), 1)[0])

    par = dynamics.correlation(phi, psi, beta0, 0.0)
    want = 2.0 * math.pi * (1.0 * 1.0 + 0.5j * -0.5j + 0.25 * 0.25)
    par_dev = abs(par - want)
    ok = max(scaled) <= 3.0 * fitted and trend <= 0.1 and par_dev <= 1e-10
    report(capsys, 7, "correlation asymptotics", ok,
           f"scaled residual max {max(scaled):.3f} vs fitted {fitted:.3f}, "
           f"trend {trend:+.2f}; Parseval dev {par_dev:.1e}")


def test_criterion_8_equidistribution(capsys):
    K = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    f = dynamics.TorusObservable(
        2, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5,
            (1, 1): 0.25j, (-1, -1): -0.25j}, real=True)
    ts, errs = [], []
    t0 = 10.0
    while t0 <= 500.0:
        window = [abs(dynamics.equidistribute(K, f, t0 * (1 + 0.03 * j)).error)
                  for j in range(8)]
        ts.append(t0)
        errs.append(max(window))
        t0 *= 2.0
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])

    one = dynamics.TorusObservable(2, {(0, 0): 1.0})
    exact = dynamics.equidistribute(K, one, 25.0).error
    ok = abs(slope + 0.5) <= 0.15 and exact == 0.0
    report(capsys, 8, "equidistribution rate", ok,
           f"error slope {slope:.3f} over dyadic t in [10, 500]; "
           f"constant test error {exact}")


def test_criterion_9_property_suites(capsys):
    checks = []

    K = convex.ellipsoid((0.0, 0.3, 0.0), (1.1, 0.8, 0.6))
    Kr = convex.minkowski_sum(K, convex.ball((0.0, 0.0, 0.0), 0.4))
    a, b = convex.steiner(K), convex.steiner(Kr)
    checks.append(("steiner shift", max(
        abs(np.polyval(b.steiner_coeffs[::-1], t) - np.polyval(a.steiner_coeffs[::-1], t + 0.4))
        for t in (0.0, 0.7, 2.3)) < 1e-8))

    g = spherequad.grid(3, 12)
    euler = np.max(np.abs(K.h(g.nodes) - np.sum(g.nodes * K.grad(g.nodes), axis=1)))
    checks.append(("euler identity", euler < 1e-10))

    e = convex.ellipsoid((0.3, 0.1), (1.3, 0.7))
    p = convex.ball((-0.2, 0.4), 0.5)
    spec = spectrum.enumerate(e, p, T=40.0)
    L = spectrum.difference_body(e, p)
    resid = (2.0 * math.pi * spec.xi - spec.lengths[:, None] * spec.theta
             - L.grad(spec.theta))
    checks.append(("newton residuals", float(
        np.max(np.linalg.norm(resid, axis=1))) < 1e-9))

    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    s1 = spectrum.enumerate(convex.ellipsoid((0.0, 0.0), (1.3, 0.7)),
                            convex.point((0.0, 0.0)), T=30.0)
    s2 = spectrum.enumerate(convex.ellipsoid((0.0, 0.0), (1.3, 0.7), rotation=R),
                            convex.point((0.0, 0.0)), T=30.0)
    checks.append(("rotation invariance", s1.lengths.size == s2.lengths.size
                   and np.max(np.abs(np.sort(s1.lengths) - np.sort(s2.lengths))) < 1e-9))

    v = np.array([1.7, -0.3])
    s3 = spectrum.enumerate(convex.ellipsoid(v, (1.3, 0.7)),
                            convex.point(v), T=30.0)
    checks.append(("translation invariance",
                   np.allclose(s1.lengths, s3.lengths, atol=1e-9)))

    q = convex.point((0.2, 0.1, -0.4))
    o = convex.point((0.0, 0.0, 0.0))
    w1 = spectrum.enumerate(q, o, T=25.0, workers=1)
    w3 = spectrum.enumerate(q, o, T=25.0, workers=3)
    checks.append(("worker determinism",
                   np.array_equal(w1.lengths, w3.lengths)
                   and np.array_equal(w1.xi, w3.xi)
                   and np.array_equal(w1.theta, w3.theta)))

    failed = [name for name, ok in checks if not ok]
    report(capsys, 9, "property suites", not failed,
           "all properties hold" if not failed else f"failed: {failed}")
