"""Monte Carlo oracle for the pairing weights: empirical Gaussian product
moments with matched pairs forced to share one draw.

For a jump sequence and a matching, each pair gets one independent standard
field-valued Gaussian; the second member reuses the draw as-is when its jump
equals the first member's and conjugated when it is reversed.  The mean of
the real part of the ordered product then equals the pairing weight exactly,
which checks constant_c without going through it.
"""

import numpy as np

from mvsao.combinatorics import reversed_jump
from mvsao.noise_model import N_COMPONENTS, UNIT_NORMALIZATION


def _quat_mul(x, y):
    # componentwise quaternion product on (m, 4) arrays
    a1, b1, c1, d1 = x.T
    a2, b2, c2, d2 = y.T
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=1,
    )


def _conj(x):
    out = x.copy()
    out[:, 1:] *= -1.0
    return out


def pairing_moment_mc(kind, jumps, matching, n_samples, rng):
    """Empirical (mean, stderr) of Re of the ordered noise product."""
    n = len(jumps)
    slots = [None] * n
    for l1, l2 in matching:
        l1, l2 = min(l1, l2), max(l1, l2)
        ncomp = N_COMPONENTS[kind]
        g = np.zeros((n_samples, 4))
        g[:, :ncomp] = UNIT_NORMALIZATION[kind] * rng.standard_normal((n_samples, ncomp))
        slots[l1] = g
        if jumps[l2] == jumps[l1]:
            slots[l2] = g
        elif tuple(jumps[l2]) == reversed_jump(tuple(jumps[l1])):
            slots[l2] = _conj(g)
        else:
            # unrelated jumps: independent draw, the product averages to zero
            g2 = np.zeros((n_samples, 4))
            g2[:, :ncomp] = UNIT_NORMALIZATION[kind] * rng.standard_normal((n_samples, ncomp))
            slots[l2] = g2
    prod = slots[0]
    for k in range(1, n):
        prod = _quat_mul(prod, slots[k])
    re = prod[:, 0]
    return float(re.mean()), float(re.std(ddof=1) / np.sqrt(n_samples))
