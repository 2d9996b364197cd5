"""Convex bodies from support functions.

Builds points, balls, ellipsoids, and a spherical-harmonic perturbation,
then exercises the Steiner machinery: parallel volumes, intrinsic volumes,
and their behaviour under Minkowski sums.
"""

import numpy as np

from orthospec import convex


def main() -> None:
    ball = convex.ball((0.0, 0.0, 0.0), 0.5)
    egg = convex.ellipsoid((0.2, -0.1, 0.0), (1.1, 0.8, 0.6))

    print("support values along the x axis")
    e1 = np.array([1.0, 0.0, 0.0])
    print(f"  h_ball(+e1) = {ball.h(e1)[0]:.6f}")
    print(f"  h_egg(+e1)  = {egg.h(e1)[0]:.6f}")
    print(f"  h_egg(-e1)  = {egg.h(-e1)[0]:.6f}")

    # Minkowski sums add support functions pointwise
    both = convex.minkowski_sum(ball, egg)
    got = both.h(e1)[0]
    want = ball.h(e1)[0] + egg.h(e1)[0]
    print(f"  additivity check: {got:.12f} vs {want:.12f}")

    print("\nintrinsic volumes (V_0 .. V_d)")
    for name, body in (("ball(0.5)", ball), ("ellipsoid", egg), ("sum", both)):
        data = convex.steiner(body)
        vols = ", ".join(f"{v:.6f}" for v in data.intrinsic)
        print(f"  {name:<12} [{vols}]")

    data = convex.steiner(egg)
    print("\nSteiner polynomial: vol(egg + t ball)")
    for t in (0.0, 0.5, 1.0):
        print(f"  t = {t:.1f}: {np.polyval(data.steiner_coeffs[::-1], t):.6f}")

    # a degree-4 zonal bump keeps the body strictly convex for small
    # coefficients; construction certifies positivity of the radii
    bumped = convex.harmonic(convex.ball((0.0, 0.0, 0.0), 1.0),
                             [(4, (0.0, 0.0, 1.0), 0.02)])
    print(f"\nharmonic perturbation: volume {convex.steiner(bumped).volume:.6f} "
          f"(unit ball {4.0 * np.pi / 3.0:.6f})")


if __name__ == "__main__":
    main()
