"""Closed-form Fourier transform of the round sphere, a reference for the tests."""

import math

import numpy as np
from scipy.special import jv

from orthospec import spherequad


def bessel_surface(dim: int, rho) -> np.ndarray | float:
    """Radial Fourier transform of the sphere: integral of e^{i rho theta.e} dsigma.

    Equals (2 pi)^(d/2) rho^(1-d/2) J_{d/2-1}(rho); tends to the sphere area
    as rho -> 0.
    """
    rho = np.asarray(rho, dtype=float)
    nu = dim / 2.0 - 1.0
    small = np.abs(rho) < 1e-12
    safe = np.where(small, 1.0, rho)
    out = (2.0 * math.pi) ** (dim / 2.0) * safe ** (1.0 - dim / 2.0) * jv(nu, safe)
    out = np.where(small, spherequad.sphere_area(dim), out)
    return out if out.ndim else float(out)
