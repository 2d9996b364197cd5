"""Ewald oracle for the point-pair dual sum of the Poincare series.

Prints frozen reference values of

    D(s) = sum_{m in Z^d} e^{i m.u} (s^2 + |m + beta0|^2)^{-(d+1)/2},

the sum zetafns._ewald_dual_sum evaluates, at 40 digits (mpmath) by the
classical Ewald split at tau = 1 with closed-form kernels:

  * lattice terms A^{-p} Q(p, A), A = s^2 + |m + beta0|^2, p = (d+1)/2,
    with the regularized upper incomplete gamma mp.gammainc at complex A;
  * image terms pi^{d/2} / Gamma(p) e^{-i w.beta0} H(s, |w|^2 / 4),
    w = u - 2 pi n, where
    H(s, b) = int_0^1 tau^{-1/2} e^{-tau s^2 - b/tau} dtau
            = sqrt(pi) / (2 s) [e^{-2 s sqrt(b)} erfc(sqrt(b) - s)
                                - e^{2 s sqrt(b)} erfc(sqrt(b) + s)]
    with the complex mp.erfc.

Both sums keep every term above e^{-100} of e^{-rho Re s}, rho the torus
distance of u, which is the size of D(s).  The grid: d = 2 and 3, beta0 = 0
and beta0 = (0.3, 0.1[, 0.45]), real s in {0.05, 0.2, 1, 4, 16, 40} and
s = 0.2 + 1.7i, 1 + 3.2i, and u = dist * e with dist in {2, 0.3, 1e-3, 2e-9}
along e = (0.6, 0.8) or (2, 3, 6) / 7.  u is the float64 vector the tests
build.  An mp.quad check of H at one complex s comes first.  The output
lines are the literal the tests freeze (tests/test_zetafns.py, EWALD_DUAL).
"""

import math
import itertools

import mpmath as mp
import numpy as np

mp.mp.dps = 40

S_GRID = (0.05, 0.2, 1.0, 4.0, 16.0, 40.0, 0.2 + 1.7j, 1.0 + 3.2j)
DISTANCES = (2.0, 0.3, 1e-3, 2e-9)
DIRECTIONS = {2: np.array([0.6, 0.8]), 3: np.array([2.0, 3.0, 6.0]) / 7.0}
TWISTS = {2: np.array([0.3, 0.1]), 3: np.array([0.3, 0.1, 0.45])}
CUT = 100


def H(s, b):
    sb = mp.sqrt(b)
    return mp.sqrt(mp.pi) / (2 * s) * (mp.exp(-2 * s * sb) * mp.erfc(sb - s)
                                       - mp.exp(2 * s * sb) * mp.erfc(sb + s))


def points(center, r2):
    """Integer points k with |k - center|^2 <= r2 (float64 center)."""
    if r2 < 0:
        return []
    reach = int(math.sqrt(r2)) + 1
    axes = [range(int(round(c)) - reach, int(round(c)) + reach + 1) for c in center]
    return [k for k in itertools.product(*axes)
            if sum((ki - c) ** 2 for ki, c in zip(k, center)) <= r2]


def dual_sum(s, u, beta0):
    d = len(u)
    s = mp.mpc(s)
    s2 = s * s
    p = mp.mpf(d + 1) / 2
    um = [mp.mpf(x) for x in u]
    bm = [mp.mpf(x) for x in beta0]
    two_pi = 2 * mp.pi
    rho = mp.sqrt(sum((x - two_pi * round(float(x) / (2 * math.pi))) ** 2 for x in um))
    cut = CUT + rho * s.real
    lattice = mp.mpf(0)
    for m in points(-np.asarray(beta0), float(cut - s2.real)):
        A = s2 + sum((mi + bi) ** 2 for mi, bi in zip(m, bm))
        phase = mp.expj(sum(mi * ui for mi, ui in zip(m, um)))
        lattice += phase * A ** (-p) * mp.gammainc(p, A, mp.inf, regularized=True)
    images = mp.mpf(0)
    r2 = float((cut + max(0, -s2.real)) / mp.pi ** 2)
    for n in points(np.asarray(u) / (2 * math.pi), r2):
        w = [ui - two_pi * ni for ui, ni in zip(um, n)]
        b = sum(x * x for x in w) / 4
        images += mp.expj(-sum(wi * bi for wi, bi in zip(w, bm))) * H(s, b)
    return lattice + mp.pi ** (mp.mpf(d) / 2) / mp.gamma(p) * images


def main():
    s, b = mp.mpc(1.0, 3.2), mp.mpf("0.7")
    quad = mp.quad(lambda t: t ** -0.5 * mp.exp(-t * s * s - b / t), [0, 0.05, 0.3, 1])
    print(f"# H(1 + 3.2i, 0.7): closed form vs mp.quad differ by "
          f"{mp.nstr(abs(H(s, b) - quad) / abs(quad), 3)} relative")
    for d in (2, 3):
        for twisted in (False, True):
            beta0 = TWISTS[d] if twisted else np.zeros(d)
            for dist in DISTANCES:
                u = dist * DIRECTIONS[d]
                for s in S_GRID:
                    v = dual_sum(s, u, beta0)
                    print(f"    ({d}, {twisted}, {dist!r}, {s!r}): "
                          f"complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)}),", flush=True)


if __name__ == "__main__":
    main()
