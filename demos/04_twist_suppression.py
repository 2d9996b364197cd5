"""Twisted counting and the collapse of the leading term.

A closed one-form beta = beta0 . dx + df attaches the phase
exp(2 pi i beta0 . xi) (corrected by f at the feet) to each orthogeodesic.
Poisson summation says the Gaussian-smoothed count of width sigma sees the
dual frequencies k + beta0, k in Z^d.  When beta0 has no integer
representative its leading density is zero up to about
exp(-sigma^2 delta^2 / 2), delta = dist(beta0, Z^d); twist_suppression
compares it with that value within a derived bound B and certifies only a
bound below 5 % of the untwisted density rho_d.
"""

import math

import numpy as np

from orthospec import convex, spectrum, zetafns


def show(label: str, model: zetafns.ZetaModel) -> None:
    spec = model.spec
    beta0 = spec.beta.beta0
    delta = 1.0 if spec.beta.is_integer else float(np.linalg.norm(beta0 - np.round(beta0)))
    sigma = min(8.0, (spec.T - spec.T0) / 25.0)  # the window width twist_suppression used
    rep = zetafns.twist_suppression(model)
    rho_d = model.rho[-1]
    print(f"\n{label}: beta0 = {tuple(round(float(b), 4) for b in beta0)}, T = {spec.T:.0f}")
    print(f"  delta = {delta:.3f}, sigma = {sigma:.2f}, "
          f"exp(-sigma^2 delta^2 / 2) = {math.exp(-0.5 * (sigma * delta) ** 2):.2e}")
    print(f"  mode = {rep.mode}: deviation {rep.deviation / rho_d:.2e} rho_d, "
          f"bound B {rep.bound / rho_d:.2e} rho_d, certified = {rep.certified}")


def main() -> None:
    p = convex.point((0.0, 0.0))
    irrational = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0)))
    spec = spectrum.enumerate(p, p, T=400.0, beta=irrational)
    print(f"twisted spectrum to T = {spec.T:.0f}: {len(spec)} lengths")
    show("irrational twist", zetafns.build_zeta_model(spec))

    # a short window: sigma near 4 leaves B at a sizeable share of rho_d
    show("the same twist on a short window",
         zetafns.build_zeta_model(spectrum.enumerate(p, p, T=100.0, beta=irrational)))

    # a small delta: at sigma = 8 the window cannot tell beta0 = (0.05, 0)
    # from the untwisted setting, and the report says so
    near = spectrum.TwistForm((0.05, 0.0))
    show("a twist near Z^d",
         zetafns.build_zeta_model(spectrum.enumerate(p, p, T=200.0, beta=near)))

    # integer beta0 plus an exact mode keeps the T^d term; the expected
    # value is then the weighted residue by quadrature, delta counts as 1
    f_only = spectrum.TwistForm((0.0, 0.0), {(1, 0): 0.3, (-1, 0): 0.3})
    show("f-only twist", zetafns.build_zeta_model(
        spectrum.enumerate(p, convex.point((1.1, -0.7)), T=240.0, beta=f_only)))


if __name__ == "__main__":
    main()
