"""Summation formula pairing length and spectral sides.

In odd dimension the tempered distribution built from a twisted pair of
point orthospectra (both orientations) is a crystalline-type measure: a
Gaussian window centred on a predicted line sees matching mass from the
length side and from the dual-lattice side, while a window in a spectral
gap sees nothing from either.
"""

import math

from orthospec import convex, spectrum, zetafns


def main() -> None:
    p = convex.point((0.0, 0.0, 0.0))
    q = convex.point((0.9, 0.4, -1.1))
    beta = spectrum.TwistForm((math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(3.0),
                               math.sqrt(5.0) - 2.0))

    # the narrow gap window below needs exp(-w^2 T^2 / 2) <= 1e-12
    fwd = spectrum.enumerate(p, q, T0=0.0, T=160.0, beta=beta)
    bwd = spectrum.enumerate(q, p, T0=0.0, T=160.0, beta=beta)
    print(f"spectra: {len(fwd)} forward, {len(bwd)} backward chords")

    lines = zetafns.predicted_lines(beta, 2.0)
    print("first predicted lines:", ", ".join(f"{v:.6f}" for v in lines[:4]))

    window = zetafns.GaussianWindow(float(lines[0]), 0.2)
    res = zetafns.guinand_pairing(fwd, bwd, window)
    rel = abs(res.length_side - res.spectral_side) / abs(res.spectral_side)
    print(f"\non-line window (center {window.center:.4f}, width 0.2)")
    print(f"  length side   {res.length_side:+.10f}")
    print(f"  spectral side {res.spectral_side:+.10f}")
    print(f"  relative difference {rel:.2e}, "
          f"truncation mass {res.truncation_mass:.1e}")

    # lines are dense for irrational beta0 in d = 3, so the gap window
    # must be narrow and sit well inside the first gap
    off = zetafns.GaussianWindow(0.5 * float(lines[0]), 0.05)
    res2 = zetafns.guinand_pairing(fwd, bwd, off)
    print(f"\noff-line window (center {off.center:.4f}, width 0.05)")
    print(f"  |length side|   {abs(res2.length_side):.2e}")
    print(f"  |spectral side| {abs(res2.spectral_side):.2e}")


if __name__ == "__main__":
    main()
