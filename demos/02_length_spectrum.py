"""Orthogeodesic length spectra on the flat torus.

Enumerates the chords that leave the first body orthogonally and hit the
second orthogonally after winding around the torus, checks the counting
law N(T) ~ c_d vol(L) T^d, and writes the spectrum to CSV.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from orthospec import convex, spectrum


def main() -> None:
    ball = convex.ball((0.0, 0.0), 0.3)
    egg = convex.ellipsoid((2.0, 1.0), (0.5, 0.2))

    spec = spectrum.enumerate(ball, egg, T=80.0)
    print(f"orthogeodesics up to length 80: {spec.lengths.size}")
    print("shortest five:")
    for k in range(5):
        xi = tuple(int(c) for c in spec.xi[k])
        print(f"  length {spec.lengths[k]:.6f}  winding {xi}")

    # every chord satisfies the closing relation 2 pi xi = l theta + grad h_L
    L = spectrum.difference_body(ball, egg)
    resid = (2.0 * math.pi * spec.xi
             - spec.lengths[:, None] * spec.theta - L.grad(spec.theta))
    print(f"max closing residual: {np.max(np.linalg.norm(resid, axis=1)):.2e}")

    print("\ncounting law against the leading Steiner density")
    coeffs = spectrum.density_coeffs(ball, egg)
    for T in (20.0, 40.0, 80.0):
        got = spectrum.counting(spec, T)
        want = spectrum.steiner_density(ball, egg, T)
        print(f"  T = {T:5.1f}: N = {got:6d}  density {want:9.1f}  "
              f"ratio {got / want:.4f}")
    print(f"leading coefficient: {coeffs[-1]:.6e}")

    out = Path(tempfile.mkdtemp()) / "spectrum.csv"
    spectrum.to_csv(spec, out, out.with_suffix(".json"))
    print(f"\nwrote {out} ({out.stat().st_size} bytes) plus a JSON sidecar")


if __name__ == "__main__":
    main()
