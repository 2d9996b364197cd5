"""Epstein zeta oracles for the square lattice.

Prints frozen reference values:
  * Z(s) = sum_{xi != 0} |2 pi xi|^{-s} in d=2, continued to every s by the
    classical closed form (2 pi)^{-s} 4 zeta(s/2) beta(s/2) (mpmath, 30
    digits), at s = 0.25, 0.75, 1.25, 1.75, 3 and 2.5 + i (compared against
    the library's continuation in the tests);
  * at s = 3 the same sum by a brute radius-1e4 partial sum plus integral
    tail correction (agreement check);
  * Hurwitz cross-check for the d=2 ball Poincare head: lengths 2 pi k - 2R
    on the axis sublattice.
"""

import numpy as np
import mpmath as mp

mp.mp.dps = 30


S_GRID = (0.25, 0.75, 1.25, 1.75, 3.0, 2.5 + 1j)


def closed_form(s_half):
    # sum'_{(m,n)} (m^2+n^2)^{-s} = 4 zeta(s) beta(s), continued to every s != 1
    s = mp.mpmathify(s_half)
    beta = mp.mpf(4) ** (-s) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
    return 4 * mp.zeta(s) * beta


def brute(s: float, radius: int) -> float:
    total = 0.0
    n = np.arange(-radius, radius + 1)
    for m in range(-radius, radius + 1):
        sq = float(m) ** 2 + n.astype(float) ** 2
        sq = sq[sq > 0]
        total += float(np.sum(sq ** (-s / 2.0)))
    return total


def main():
    for s in S_GRID:
        z = closed_form(mp.mpmathify(s) / 2) / (2 * mp.pi) ** s
        print(f"closed form (2pi)^-s 4 zeta(s/2) beta(s/2) at s = {s}: "
              f"{mp.nstr(mp.re(z), 30)} {mp.nstr(mp.im(z), 30)}")

    s = 3.0
    exact = closed_form(s / 2) / (2 * mp.pi) ** 3
    radius = 10_000
    head = brute(s, radius)
    # tail: integral of 2 pi r * r^{-3} from radius to infinity = 2 pi / radius
    tail = 2 * np.pi / radius
    approx = (head + tail) / (2 * np.pi) ** 3
    print(f"brute radius {radius} + tail      = {approx!r}")
    print(f"difference                        = {float(abs(approx - exact)):.3e}")

    # d=2 identical balls radius R: axis sublattice lengths 2 pi k - 2R, so
    # sum_k (2 pi k - 2R)^{-s} = (2 pi)^{-s} zeta(s, 1 - q), q = 2R/(2pi)
    R = 0.35
    q = 2 * R / (2 * np.pi)
    hz = (2 * mp.pi) ** (-mp.mpf(s)) * mp.zeta(mp.mpf(s), 1 - mp.mpf(q))
    print(f"Hurwitz axis check (R={R}): sum_k (2pi k - 2R)^-3 = {mp.nstr(hz, 20)}")


if __name__ == "__main__":
    main()
