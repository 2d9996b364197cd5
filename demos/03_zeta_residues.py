"""Length zeta functions and their residues.

The zeta function Z(s) = sum l_k^{-s} converges for Re s > d and continues
meromorphically with simple poles at s = 1 .. d; zeta_continue computes it at
every s from one smoothly cut head and the Steiner tail density.  The residues recover the
intrinsic volumes of the difference body, giving a purely spectral route
to convex geometry.
"""

import math

from orthospec import convex, spectrum, zetafns


def main() -> None:
    ellipse = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    origin = convex.point((0.0, 0.0))
    head = 60.0 * math.pi / 2  # the splice end T; the spectrum runs on to 4 T
    model = zetafns.build_zeta_model(spectrum.enumerate(ellipse, origin, T=head * 4.0), head)
    print(f"zeta model: d = {model.spec.dim}, splice T = {model.T:.2f}, "
          f"{model.spec.lengths.size} lengths")

    print("\nvalues on the real axis (one smooth splice on both sides of Re s = d)")
    for s in (3.0, 2.5, 1.5, 0.5):
        print(f"  Z({s:.1f}) = {zetafns.zeta_continue(model, s).real:+.8f}")

    print("\nresidues against closed forms")
    ests = zetafns.residues(model)
    per = convex.steiner(convex.ellipsoid((0.0, 0.0), (1.3, 0.7))).intrinsic[1]
    want = {1: 2.0 * per / (2.0 * math.pi) ** 2, 2: 1.0 / (2.0 * math.pi)}
    for est in ests:
        w = want[est.pole]
        print(f"  pole s = {est.pole}: residue {est.residue.real:.8f}  "
              f"predicted {w:.8f}  err {est.error:.2e} <= bound {est.bound:.2e}, "
              f"certified = {est.certified}")

    # PoleHit guards the continuation near s = 1, 2
    try:
        zetafns.zeta_continue(model, 1.0 + 1e-12)
    except zetafns.PoleHit as exc:
        print(f"\ncontinuation at a pole raises: {exc}")


if __name__ == "__main__":
    main()
