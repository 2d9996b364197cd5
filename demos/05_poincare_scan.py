"""Poincare series on the critical line and its boundary singularities.

For two marked points the series P(s) = sum phase_k exp(-s l_k) extends to
Re s > 0; its boundary values along s = eps + i y develop power-law peaks
at y = kappa |xi - beta0| over the dual lattice.  singularity_scan fits the
peak locations and exponents, and an Ewald-summed closed form provides an
independent check on the real axis.
"""

import numpy as np

from orthospec import convex, zetafns


def main() -> None:
    x = np.zeros(3)
    y = np.array([0.9, 0.4, -1.1])
    model = zetafns.build_zeta_model(convex.point(x), convex.point(y),
                                     T=150.0, sweep=(1.0,))
    print(f"point-pair model in d = 3, head to T = {model.T:.0f}")

    kappa, c3 = zetafns.spectral_constants(3)
    print(f"closed-form spectral constants: kappa = {kappa:.8f}, c3 = {c3:.8f}")

    print("\ndirect series vs Ewald dual sum on the real axis")
    for s in (0.25, 0.7, 1.4, 2.0):
        direct = zetafns.poincare_eval(model, s)
        dual = zetafns.poincare_points_spectral(x, y, model.spec.beta, s)
        rel = abs(direct - dual) / abs(dual)
        print(f"  s = {s:.2f}: {direct.real:+.8f}  rel diff {rel:.1e}")

    print("\nsingularity scan along the boundary")
    fits = zetafns.singularity_scan(model)
    lines = zetafns.predicted_lines(model.spec.beta, 3.2)
    for f in fits:
        print(f"  y = {f.location:.4f}  exponent {f.exponent:+.2f}  "
              f"nearest line {f.nearest_line:.4f}  "
              f"offset {f.line_distance:.4f}  residual {f.residual:.2f}")
    shown = ", ".join(f"{v:.4f}" for v in lines[:6])
    print(f"predicted lines: {shown}, ...")


if __name__ == "__main__":
    main()
