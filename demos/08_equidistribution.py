"""Equidistribution of dilated convex hypersurfaces.

Averages of a band-limited observable over the scaled boundary t dK
converge to the torus mean at the rate t^{-(d-1)/2}; each nonzero mode
contributes an oscillatory sphere integral weighted by the area element,
and the modes xi and -xi share one integral and its complex conjugate.
Also shows the low-level oscillatory diagnostics behind the rate.
"""

import numpy as np

from orthospec import convex, dynamics, spherequad


def main() -> None:
    K = convex.ellipsoid((0.0, 0.0), (1.3, 0.7))
    f = dynamics.TorusObservable(
        2, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5,
            (1, 1): 0.25j, (-1, -1): -0.25j}, real=True)

    print("boundary averages of a five-mode observable (mean 2)")
    print(f"{'t':>7} {'average':>12} {'|error|':>10} {'|error| t^0.5':>14}")
    for t in (10.0, 40.0, 160.0, 640.0):
        res = dynamics.equidistribute(K, f, t)
        err = abs(res.error)
        print(f"{t:7.1f} {res.average.real:12.6f} {err:10.2e} "
              f"{err * np.sqrt(t):14.4f}")

    one = dynamics.TorusObservable(2, {(0, 0): 1.0})
    print(f"\nconstant observable: error = "
          f"{dynamics.equidistribute(K, one, 50.0).error} (exact)")

    # the rate comes from stationary phase on the sphere: the full
    # oscillatory integral minus its two-pole leading term decays one
    # power of t^{1/2} faster in d = 2
    print("\noscillatory integral vs leading term, d = 2, |xi| = 1")
    for t in (50.0, 200.0, 800.0):
        xi = np.array([1.0, 0.0])
        full = spherequad.osc_integral(2, xi=xi, t=t).value
        lead, order = spherequad.stationary_phase(2, xi=xi, t=t)
        print(f"  t = {t:5.0f}: residual {abs(full - lead):.3e} "
              f"(remainder order {order})")


if __name__ == "__main__":
    main()
