"""Twisted counting and the collapse of the leading term.

A closed one-form beta = beta0 . dx + df attaches the phase
exp(2 pi i beta0 . xi) (corrected by f at the feet) to each orthogeodesic.
When beta0 has no integer representative the phased count N_beta(T) loses
its T^d growth; twist_suppression certifies the decay on a T ladder.
"""

import math

from orthospec import convex, spectrum, zetafns


def main() -> None:
    p = convex.point((0.0, 0.0))
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)))

    model = zetafns.build_zeta_model(spectrum.enumerate(p, p, T=200.0 * 2.0, beta=beta), 200.0)
    spec = model.spec
    print(f"twisted spectrum to T = {spec.T:.0f}: {len(spec)} lengths")

    level = 1.0 / (4.0 * math.pi)
    print("\nphased counting ratios |N_beta(T)| / T^2")
    for T in (100.0, 200.0, 400.0):
        r = abs(spectrum.counting_weighted(spec, T)) / T**2
        print(f"  T = {T:5.0f}: {r:.3e}   (untwisted level {level:.3e})")

    report = zetafns.twist_suppression(model)
    print(f"\ntwist_suppression: mode = {report.mode}, "
          f"certified = {report.certified}")
    print(f"  ladder  {tuple(round(t, 1) for t in report.t_ladder)}")
    print(f"  ratios  {tuple(f'{r:.2e}' for r in report.ratios)}")
    print(f"  threshold {report.threshold:.3e}")

    # integer beta0 plus an exact mode keeps the T^d term; the report
    # switches to weighted residues checked against the Gaussian-smoothed
    # estimate read off the phase-weighted spectrum
    f_only = spectrum.TwistForm((0.0, 0.0), {(1, 0): 0.3, (-1, 0): 0.3})
    model2 = zetafns.build_zeta_model(
        spectrum.enumerate(p, convex.point((1.1, -0.7)), T=120.0 * 2.0, beta=f_only), 120.0)
    report2 = zetafns.twist_suppression(model2)
    print(f"\nf-only twist: mode = {report2.mode}, "
          f"certified = {report2.certified}, deviation {report2.deviation:.1e}")


if __name__ == "__main__":
    main()
