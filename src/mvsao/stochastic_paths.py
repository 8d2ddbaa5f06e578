"""Spatial process simulation: Brownian bridges on the line, the half line
and a bounded interval, their transition densities, per-step boundary
crossing probabilities and the exact per-step wall factor.  The local-time
histograms of a batch of bridges live with the estimators (_PathBatch).

The reflected processes are simulated by folding a free Brownian path:
on the half line Z = |x + W|, on the interval Z is the triangle-wave fold
of x + W onto [0, theta].  Bridge endpoint conditioning is exact: the free
endpoint W(t) is drawn from the Gaussian mixture over the image points of
the target y (one table, _images, also gives the transition density), after
which the folded endpoint equals y identically, so no rejection is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)
# a row block of path arrays this large fits in L2 (see block_rows)
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class DomainConfig:
    """Spatial domain: case 1 the line, case 2 the half line (0, inf),
    case 3 the interval (0, theta); r is the number of colors."""

    case: int
    theta: float | None = None
    r: int = 1

    def __post_init__(self):
        if self.case not in (1, 2, 3):
            raise ValueError(f"case must be 1, 2 or 3, got {self.case}")
        if self.case == 3:
            if self.theta is None or self.theta <= 0:
                raise ValueError("case 3 requires theta > 0")
        if self.r < 1:
            raise ValueError("color count r must be >= 1")


def gaussian_kernel(t: float, z) -> np.ndarray:
    return np.exp(-(z**2) / (2.0 * t)) / (_SQRT2PI * np.sqrt(t))


def _fold(u: np.ndarray, theta: float) -> np.ndarray:
    """Fold the float array u onto [0, theta] in place, bit for bit
    theta - |np.mod(u, 2 theta) - theta|.  np.mod is the identity on
    [0, 2 theta) (-0.0 aside, which the rest maps to 0.0), u + 2 theta on
    [-2 theta, 0) (the sum np.mod itself rounds) and the exact (Sterbenz)
    u - 2 theta on [2 theta, 4 theta), so it runs only beyond those."""
    period = 2.0 * theta
    low = u < 0.0
    high = u >= period
    far = (u < -period) | (u >= 2.0 * period)
    wrapped = np.mod(u[far], period)
    np.add(u, period, out=u, where=low)
    np.subtract(u, period, out=u, where=high)
    u[far] = wrapped
    u -= theta
    np.abs(u, out=u)
    return np.subtract(theta, u, out=u)


def block_rows(width: int) -> int:
    """Rows of a float array width columns wide that fit in _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _images(domain: DomainConfig, t: float, x, y) -> tuple[np.ndarray, np.ndarray]:
    """The method of images: the free displacements e with fold(x + e) = y
    and their Gaussian kernels, along a new last axis (x and y broadcast)."""
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    if domain.case == 1:
        e = y - x
    elif domain.case == 2:
        e = np.concatenate([y - x, -y - x], axis=-1)
    else:
        th = domain.theta
        nmax = int(np.ceil((8.0 * np.sqrt(t) + 4.0 * th) / (2.0 * th)))
        shifts = 2.0 * np.arange(-nmax, nmax + 1) * th
        e = np.concatenate([y + shifts - x, -y + shifts - x], axis=-1)
    return e, gaussian_kernel(t, e)


def transition_density(domain: DomainConfig, t: float, x, y) -> np.ndarray | float:
    """Transition kernel of Z: the sum of its image kernels."""
    if t <= 0:
        raise ValueError("transition_density requires t > 0")
    out = _images(domain, t, x, y)[1].sum(axis=-1)
    return out if out.ndim else float(out)


def sample_bridge_ensemble(domain: DomainConfig, x, y, t: float,
                           dt: float, n_paths: int, rng: np.random.Generator,
                           return_free: bool = False):
    """n_paths bridges of Z over [0, t], row i from x[i] to y[i] (x and y
    are scalars or one value per row), shape (n_paths, steps+1).

    The free endpoint is drawn from the image mixture, the free bridge is
    then folded; folded endpoints hit y exactly.  With return_free the
    unfolded free paths x + W are returned alongside (used for exact
    interpolation at off-grid times).

    One uniform per row picks its image endpoint, by inversion of the row's
    mixture CDF (one searchsorted for all rows, row i's CDF and uniform
    shifted by i): for one (x, y) this is the draw of rng.choice(p=weights).
    The paths are then built in row blocks of about _BLOCK_BYTES, each pass
    over a block running in cache: the block's normals go into one reused
    buffer (block by block they are the C-order draw of the whole array),
    are scaled and summed into the output rows, which are pulled to their
    endpoints, shifted by x and folded in place.
    """
    x = np.broadcast_to(np.asarray(x, dtype=float), (n_paths,))
    y = np.broadcast_to(np.asarray(y, dtype=float), (n_paths,))
    low, high = {1: (-np.inf, np.inf), 2: (0.0, np.inf), 3: (0.0, domain.theta)}[domain.case]
    outside = np.flatnonzero(~((low <= x) & (x <= high) & (low <= y) & (y <= high)))
    if len(outside):
        i = outside[0]
        raise ValueError(f"row {i}: endpoints ({x[i]}, {y[i]}) outside the domain closure")
    if dt <= 0 or dt > t:
        raise ValueError("need 0 < dt <= t")
    n_steps = max(1, int(round(t / dt)))
    # one (x, y) for every row (scalars, or a stride-0 row view) needs one table
    one = x.strides == y.strides == (0,)
    e, kernels = _images(domain, t, x[:1] if one else x, y[:1] if one else y)
    cdf = np.cumsum(kernels, axis=1)
    cdf /= cdf[:, -1:]
    row = np.arange(n_paths)
    cdf = cdf + row[:, None]
    # a key i + u that rounds up to i + 1 would fall in row i + 1
    keys = np.minimum(row + rng.random(n_paths), np.nextafter(row + 1.0, 0.0))
    pick = cdf.ravel().searchsorted(keys, side="right") - row * cdf.shape[1]
    ends = np.broadcast_to(e, cdf.shape)[row, pick]
    step_sd = np.sqrt(t / n_steps)
    s = np.linspace(0.0, 1.0, n_steps + 1)[1:]
    out = np.empty((n_paths, n_steps + 1))
    # case 1 does not fold: its free paths are the output itself
    free = np.empty_like(out) if return_free and domain.case != 1 else out
    rows = block_rows(n_steps + 1)
    buf = np.empty((min(rows, n_paths), n_steps))
    for lo in range(0, n_paths, rows):
        w = out[lo:lo + rows]
        incs = buf[:len(w)]
        rng.standard_normal(out=incs)
        incs *= step_sd
        w[:, 0] = 0.0
        np.cumsum(incs, axis=1, out=w[:, 1:])
        # pull the end to the endpoint; column 0 stays 0.0 (0.0 - +-0.0 = 0.0),
        # so only the later columns need the correction, built in incs' buffer
        w[:, 1:] -= np.multiply((w[:, -1] - ends[lo:lo + rows])[:, None], s, out=incs)
        w += x[lo:lo + rows, None]
        if free is not out:
            free[lo:lo + rows] = w
        if domain.case == 2:
            np.abs(w, out=w)
        elif domain.case == 3:
            _fold(w, domain.theta)
    return (out, free) if return_free else out


def step_crossing_probs(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Per-step q = exp(-2 a b / dt) elementwise, a and b the distances of a
    step's two ends to a wall: the chance that a free Brownian bridge
    between them touches the wall, and the image share of a reflected
    step's kernel (see log_wall_factor).  An end on the wall (a zero
    distance) gives exactly one.
    """
    q = np.multiply(a, -2.0)
    q *= b
    q /= dt
    return np.exp(q, out=q)


def log_wall_factor(a, b, dt: float, alpha: float) -> np.ndarray:
    """Log of E[exp(alpha L) | Z(0) = a, Z(dt) = b] for Brownian motion
    reflected at a wall, a and b the distances to it, L the local time there
    over the step (E L_t = sqrt(2t/pi) from the wall): with q = exp(-2ab/dt),
    1 + q alpha sqrt(2 pi dt) erfcx((a + b - alpha dt) / sqrt(2 dt)) / (1 + q),
    the ratio of the half-line Robin kernel to the Neumann one (Borodin &
    Salminen, Handbook of Brownian Motion), exactly 1 at alpha = 0.  DIRICHLET
    (alpha = -inf) gives the reflected bridge's survival (1 - q) / (1 + q),
    whose log is -inf, without a warning, at wall contact.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    z = 2.0 * a * b / dt
    if alpha == -np.inf:
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(-z)) - np.log1p(np.exp(-z))
    from scipy.special import erfcx  # only Robin walls load it: 4 MB resident, 50 ms
    q = np.exp(-z)
    x = (a + b - alpha * dt) / np.sqrt(2.0 * dt)
    return np.log1p(q * alpha * _SQRT2PI * np.sqrt(dt) * erfcx(x) / (1.0 + q))


def interpolate_free(free: np.ndarray, times: np.ndarray, dt: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Brownian values of a gridded free path at nondecreasing off-grid
    times, drawn from their exact joint law given the grid.

    Between grid points the path is a Brownian bridge, so the times are
    drawn in order, each given its step's right grid point and the value at
    the previous time in the same step (at the first, the step's left grid
    point): Gaussian around the linear interpolation between the two, with
    variance dt (u - l)(1 - u) / (1 - l), u and l their positions in the
    step.  One normal per time, in order.  Sampling removes the O(sqrt(dt))
    evaluation bias at jump times.  free is a single path (1-d array).
    """
    pos = np.asarray(times, dtype=float) / dt
    m = np.minimum(pos.astype(np.int64), len(free) - 2)
    out = np.empty(len(pos))
    step = -1
    # a time rounded past the last grid point takes that point's value
    for i, (k, u, z) in enumerate(zip(m.tolist(), np.minimum(pos - m, 1.0).tolist(),
                                      rng.standard_normal(len(pos)).tolist())):
        if k != step:
            step, lo, left = k, 0.0, free[k]
        if u > lo:  # else the time equals the previous one and takes its value
            mean = left + (u - lo) / (1.0 - lo) * (free[k + 1] - left)
            left = mean + math.sqrt(dt * (u - lo) * (1.0 - u) / (1.0 - lo)) * z
            lo = u
        out[i] = left
    return out


def fold_to_domain(values: np.ndarray, domain: DomainConfig) -> np.ndarray:
    if domain.case == 1:
        return values
    if domain.case == 2:
        return np.abs(values)
    return _fold(np.array(values, dtype=float), domain.theta)
