"""Spatial process simulation: Brownian bridges on the line, the half line
and a bounded interval, their transition densities, occupation local times
and per-step boundary crossing probabilities.

The reflected processes are simulated by folding a free Brownian path:
on the half line Z = |x + W|, on the interval Z is the triangle-wave fold
of x + W onto [0, theta].  Bridge endpoint conditioning is exact: the free
endpoint W(t) is drawn from the Gaussian mixture over the image points of
the target y, after which the folded endpoint equals y identically, so no
rejection step is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)
# image terms are kept until they fall below this fraction of the leading one
_IMAGE_RTOL = 1e-15


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

    def contains(self, x: float) -> bool:
        if self.case == 1:
            return True
        if self.case == 2:
            return x >= 0.0
        return 0.0 <= x <= self.theta

    def boundary_points(self) -> tuple[float, ...]:
        if self.case == 1:
            return ()
        if self.case == 2:
            return (0.0,)
        return (0.0, self.theta)


@dataclass
class PathSample:
    """One time-gridded realization of Z; values[m] is Z(m * dt).

    segment_times marks the cumulative endpoints of bridge concatenation;
    a plain bridge has a single segment.
    """

    dt: float
    values: np.ndarray
    segment_times: tuple[float, ...] = field(default_factory=tuple)

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt


@dataclass
class LocalTimeField:
    """Binned occupation density: bin b covers [(offset+b)h, (offset+b+1)h)
    and carries the window time spent there divided by h."""

    h: float
    offset: int
    masses: np.ndarray
    window_length: float

    def total_mass(self) -> float:
        return float(self.masses.sum() * self.h)

    def norm2_squared(self) -> float:
        return float(np.sum(self.masses**2) * self.h)


def gaussian_kernel(t: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.exp(-(z**2) / (2.0 * t)) / (_SQRT2PI * np.sqrt(t))


def _fold(values: np.ndarray, theta: float) -> np.ndarray:
    u = np.mod(values, 2.0 * theta)
    return theta - np.abs(u - theta)


def _image_endpoints(domain: DomainConfig, x: float, y: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Free endpoints e with fold(x + e) = y, with their Gaussian weights."""
    if domain.case == 1:
        e = np.array([y - x])
    elif domain.case == 2:
        e = np.array([y - x, -y - x])
    else:
        th = domain.theta
        span = 8.0 * np.sqrt(t) + 4.0 * th
        nmax = int(np.ceil(span / (2.0 * th)))
        ns = np.arange(-nmax, nmax + 1)
        e = np.concatenate([y + 2.0 * ns * th - x, -y + 2.0 * ns * th - x])
    w = gaussian_kernel(t, e)
    keep = w >= _IMAGE_RTOL * w.max()
    return e[keep], w[keep]


def transition_density(domain: DomainConfig, t: float, x, y) -> np.ndarray | float:
    """Transition kernel of Z; reflecting kernels via the method of images."""
    if t <= 0:
        raise ValueError("transition_density requires t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if domain.case == 1:
        out = gaussian_kernel(t, x - y)
    elif domain.case == 2:
        out = gaussian_kernel(t, x - y) + gaussian_kernel(t, x + y)
    else:
        th = domain.theta
        nmax = int(np.ceil((8.0 * np.sqrt(t) + 4.0 * th) / (2.0 * th)))
        out = np.zeros(np.broadcast(x, y).shape)
        for n in range(-nmax, nmax + 1):
            out += gaussian_kernel(t, x - y + 2.0 * n * th)
            out += gaussian_kernel(t, x + y + 2.0 * n * th)
    return out if out.ndim else float(out)


def sample_free_bridges(endpoints: np.ndarray, t: float, n_steps: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Brownian bridges from 0 to the given endpoints on an n_steps grid."""
    n = len(endpoints)
    dt = t / n_steps
    incs = rng.standard_normal((n, n_steps)) * np.sqrt(dt)
    w = np.empty((n, n_steps + 1))
    w[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=w[:, 1:])
    s = np.linspace(0.0, 1.0, n_steps + 1)
    w -= s[None, :] * (w[:, -1] - endpoints)[:, None]
    return w


def sample_bridge_ensemble(domain: DomainConfig, x: float, y: float, t: float,
                           dt: float, n_paths: int, rng: np.random.Generator,
                           return_free: bool = False):
    """n_paths bridges of Z from x to y over [0, t], shape (n_paths, steps+1).

    The free endpoint is drawn from the image mixture, the free bridge is
    then folded; folded endpoints hit y exactly.  With return_free the
    unfolded free paths x + W are returned alongside (used for exact
    interpolation at off-grid times).
    """
    if not (domain.contains(x) and domain.contains(y)):
        raise ValueError(f"endpoints ({x}, {y}) outside the domain closure")
    if dt <= 0 or dt > t:
        raise ValueError("need 0 < dt <= t")
    n_steps = max(1, int(round(t / dt)))
    e, wts = _image_endpoints(domain, x, y, t)
    probs = wts / wts.sum()
    choice = rng.choice(len(e), size=n_paths, p=probs)
    free = x + sample_free_bridges(e[choice], t, n_steps, rng)
    if domain.case == 1:
        folded = free
    elif domain.case == 2:
        folded = np.abs(free)
    else:
        folded = _fold(free, domain.theta)
    if return_free:
        return folded, free
    return folded


def sample_bridge(domain: DomainConfig, x: float, y: float, t: float, dt: float,
                  rng: np.random.Generator) -> PathSample:
    """A single endpoint-conditioned bridge of Z as a PathSample."""
    values = sample_bridge_ensemble(domain, x, y, t, dt, 1, rng)[0]
    real_dt = t / (len(values) - 1)
    return PathSample(dt=real_dt, values=values, segment_times=(t,))


def _window_steps(path: PathSample, window: tuple[float, float]) -> tuple[int, int]:
    s, t = window
    if s < -1e-12 or t > path.horizon + 1e-12 or s > t:
        raise ValueError(f"window {window} outside the path span")
    m0 = int(round(s / path.dt))
    m1 = int(round(t / path.dt))
    return m0, m1


def local_time(path: PathSample, window: tuple[float, float], h: float) -> LocalTimeField:
    """Occupation local time over the window, binned at resolution h.

    Each time step contributes dt to the bin of its left endpoint, so the
    occupation identity sum(mass) * h = window length is exact.
    """
    if h <= 0:
        raise ValueError("bin width must be positive")
    m0, m1 = _window_steps(path, window)
    if m1 == m0:
        return LocalTimeField(h=h, offset=0, masses=np.zeros(0), window_length=0.0)
    vals = path.values[m0:m1]
    idx = np.floor(vals / h).astype(np.int64)
    offset = int(idx.min())
    masses = np.bincount(idx - offset).astype(float) * (path.dt / h)
    return LocalTimeField(h=h, offset=offset, masses=masses,
                          window_length=(m1 - m0) * path.dt)


def inner_product(l1: LocalTimeField, l2: LocalTimeField) -> float:
    """L2 pairing of two aligned local-time fields."""
    if abs(l1.h - l2.h) > 1e-12 * max(l1.h, l2.h):
        raise ValueError("mismatched bin widths")
    if len(l1.masses) == 0 or len(l2.masses) == 0:
        return 0.0
    lo = max(l1.offset, l2.offset)
    hi = min(l1.offset + len(l1.masses), l2.offset + len(l2.masses))
    if hi <= lo:
        return 0.0
    a = l1.masses[lo - l1.offset:hi - l1.offset]
    b = l2.masses[lo - l2.offset:hi - l2.offset]
    return float(np.dot(a, b) * l1.h)


def step_crossing_probs(values: np.ndarray, c: float, dt: float, side: str) -> np.ndarray:
    """Per-step q = exp(-2 d1 d2 / dt), d1 and d2 the distances of
    consecutive points to the boundary level c: the chance that a free
    Brownian bridge between them touches c, and the image share of a
    reflected step's kernel (see log_wall_factor).  Points at or beyond the
    boundary give one.  values has shape (..., n_steps + 1).
    """
    if side == "lower":
        d1 = values[..., :-1] - c
        d2 = values[..., 1:] - c
    elif side == "upper":
        d1 = c - values[..., :-1]
        d2 = c - values[..., 1:]
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    inside = (d1 > 0.0) & (d2 > 0.0)
    with np.errstate(over="ignore"):
        p = np.exp(-2.0 * d1 * d2 / dt)
    return np.where(inside, p, 1.0)


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
    """Exact Brownian values of a gridded free path at off-grid times.

    Conditionally on the two neighboring grid points the value is Gaussian
    around the linear interpolation with variance dt * u * (1 - u); sampling
    it removes the O(sqrt(dt)) evaluation bias at jump times.  free is a
    single path (1-d array).
    """
    times = np.asarray(times, dtype=float)
    pos = times / dt
    m = np.minimum(pos.astype(np.int64), len(free) - 2)
    u = pos - m
    mean = free[m] + u * (free[m + 1] - free[m])
    var = np.maximum(dt * u * (1.0 - u), 0.0)
    return mean + np.sqrt(var) * rng.standard_normal(times.shape)


def fold_to_domain(values: np.ndarray, domain: DomainConfig) -> np.ndarray:
    if domain.case == 1:
        return values
    if domain.case == 2:
        return np.abs(values)
    return _fold(values, domain.theta)
