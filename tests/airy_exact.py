"""Exact E Tr exp(-tH) of the `sao` preset, a test-side reference.

The preset is H = (-d^2 + r x + 2 xi) / 2 with a Dirichlet wall, diagonal
noise variance 1/beta (R, C, H: beta = 1, 2, 4) and off-diagonal variance
1/2.  By Bloemendal & Virag its spectrum is Airy_beta for every r, so

    E Tr exp(-tH) = int rho_beta(x) exp(tau x) dx,    tau = t / 2,

with the Airy_beta one-point densities, K(x) = Ai'(x)^2 - x Ai(x)^2 the
Airy kernel on the diagonal and T(x) = int_x^inf Ai:

    beta = 2:  K(x)
    beta = 1:  K(x) + Ai(x) (1 - T(x)) / 2
    beta = 4:  2^(-1/3) [K(y) - Ai(y) T(y) / 2],    y = 2^(2/3) x.

The trapezoid rule on 200 001 points of [-600, 30] gives every value to
about 1e-10 relative (4e5 points move none by more than 4e-11) for t down to
0.1; below that the cut at -600 shows (-1.4e-6 at t = 0.05, -7e-3 at
t = 0.02, for beta = 2).  At beta = 2 the integral has the closed form
exp(tau^3 / 12) / (2 sqrt(pi) tau^(3/2)) (Okounkov), whose leading (Weyl)
term is that of every beta as t -> 0.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import trapezoid
from scipy.special import airy, itairy

BETAS = {"R": 1, "C": 2, "H": 4}
_GRID = np.linspace(-600.0, 30.0, 200_001)


def _tail(y: np.ndarray) -> np.ndarray:
    """int_y^inf Ai, from itairy's integrals from 0 and int_0^inf Ai = 1/3."""
    apt, _, ant, _ = itairy(np.abs(y))
    return np.where(y >= 0.0, 1.0 / 3.0 - apt, 1.0 / 3.0 + ant)


@lru_cache(maxsize=None)
def density(beta: int) -> np.ndarray:
    """rho_beta on _GRID."""
    y = _GRID * 2.0 ** (2.0 / 3.0) if beta == 4 else _GRID
    ai, aip, _, _ = airy(y)
    kernel = aip**2 - y * ai**2
    if beta == 2:
        return kernel
    if beta == 1:
        return kernel + 0.5 * ai * (1.0 - _tail(y))
    return 2.0 ** (-1.0 / 3.0) * (kernel - 0.5 * ai * _tail(y))


def sao_trace(beta: int, t: float) -> float:
    """E Tr exp(-tH) of the sao preset over the field of the given beta."""
    return float(trapezoid(density(beta) * np.exp(t / 2.0 * _GRID), _GRID))


def beta2_closed_form(t: float) -> float:
    """The beta = 2 value exp(tau^3 / 12) / (2 sqrt(pi) tau^(3/2))."""
    tau = t / 2.0
    return math.exp(tau**3 / 12.0) / (2.0 * math.sqrt(math.pi) * tau**1.5)
