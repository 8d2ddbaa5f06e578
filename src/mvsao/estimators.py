"""Monte Carlo estimators for the trace moments: the regular-noise kernel
estimator, the smooth (mollified) trace-moment estimator, the white-noise
trace-moment estimator driven by the singular jump process, and the
covariance experiment built on top of them.

Structure shared by the moment estimators: the starting point is integrated
by a midpoint rule over the (truncated) domain and summed exactly over
colors, while the path expectation at each starting tuple is a Monte Carlo
mean.  The color-endpoint conditioning of the jump walk is absorbed into an
indicator on free walks, which is what replaces the product of walk
transition kernels.  Both moment routes assemble every sample's weight in
one loop (_moment_weights) from

  * the pairing sum over matchings of the realized jumps (smooth route) or
    the sampled matching weight (white route),
  * the exponential of -int V + self-intersection terms, and
  * per step, the exact wall factor E[exp(alpha L) | step endpoints] of
    the color held, whose Dirichlet limit is the survival probability.

The colored walk and the self-intersection sampler are those of
jump_process.  All three estimators draw their paths as _PathBatch chunks
and read from them the path values at jump times and one exponent,
-int V + the wall logs, for colors held per segment (exponent_constant) or
per step (exponent_sample); in the kernel's chunks, which run from x to y,
V is V plus the diagonal noise.
Both moment routes weigh the diagonal noise by the batch's one local-time
norm (norm2_constant, norm2_sample): per color ||sum_k L_k * bump_{eps_k}||^2,
which at eps = 0 is the white ||L||^2.

Seed policy: every (starting tuple, grid node, chunk) triple owns the rng
stream SeedSequence(entropy=seed, spawn_key=(stream, node, chunk)), which
makes results bit-identical for a fixed configuration regardless of how
work is distributed over workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .algebra import (
    N_COMPONENTS,
    UNIT_NORMALIZATION,
    FieldElement,
    conj,
    from_components,
    mul,
    one,
)
from .combinatorics import constant_c, enumerate_matchings
from .experiment import ExperimentSpec, InvariantError, MomentEstimate
from .jump_process import (  # draw_jumps_along: perfbench traces this binding
    JumpPath,
    SelfIntersectionSampler,
    draw_free_walk,
    draw_jumps_along,
    singular_jump_counts,
    walk_jump_counts,
)
from .noise_model import NoiseField, bump_scaled, mollified_profiles, pair_index, rho
from .stochastic_paths import (
    block_rows,
    interpolate_free,
    log_wall_factor,
    sample_bridge_ensemble,
    step_crossing_probs,
    transition_density,
)

_STREAM_FK = 0
_STREAM_SMOOTH = 1
_STREAM_WHITE = 2

_MAX_CHUNK_FLOATS = 2**22  # 32 MB of float64 per path array of a chunk
# steps whose ends both lie sqrt(_WALL_REACH_DT * dt) or more from a wall
# have a wall factor of exactly 1 (see _PathBatch._build)
_WALL_REACH_DT = 20.0


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """The documented seed-splitting rule."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _chunk_rows(spec: ExperimentSpec) -> int:
    """Paths per chunk: as many as keep each path array of the chunk within
    _MAX_CHUNK_FLOATS floats, and at least 64."""
    return max(64, _MAX_CHUNK_FLOATS // sum(spec.step_counts()))


def child_seed(seed: int, tag: int) -> int:
    """An independent integer seed derived from (seed, tag)."""
    return int(np.random.SeedSequence(entropy=(seed, tag)).generate_state(1)[0])


def color_patterns(spec: ExperimentSpec) -> list[tuple[tuple[int, ...], int]]:
    """Starting color tuples with multiplicities.

    When the operator law is color-symmetric, tuples in one relabeling
    orbit contribute equally, so only one representative per equality
    pattern is simulated, weighted by the number of color assignments.
    """
    r = spec.domain.r
    n = spec.n_factors
    if not spec.color_symmetric():
        tuples = np.stack(np.meshgrid(*[np.arange(1, r + 1)] * n, indexing="ij"), -1)
        return [(tuple(int(c) for c in row), 1) for row in tuples.reshape(-1, n)]
    patterns = []
    for assignment in _set_partitions(n):
        blocks = max(assignment) + 1
        if blocks > r:
            continue
        mult = 1
        for b in range(blocks):
            mult *= (r - b)
        rep = tuple(a + 1 for a in assignment)
        patterns.append((rep, mult))
    return patterns


def _set_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n positions encoded by first-occurrence block ids."""
    out = []

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == n:
            out.append(prefix)
            return
        nxt = (max(prefix) + 1) if prefix else 0
        for b in range(nxt + 1):
            rec(prefix + (b,))

    rec(())
    return out


def start_quadrature(spec: ExperimentSpec) -> tuple[np.ndarray, float]:
    lo, hi = spec.spatial_bounds()
    hq = (hi - lo) / spec.n_quad
    xs = lo + (np.arange(spec.n_quad) + 0.5) * hq
    return xs, hq


def _mollifier_kernel(eps: float, h: float) -> np.ndarray | None:
    """Discrete convolution kernel of the scaled bump on the bin grid."""
    if eps == 0.0:
        return None
    half = int(np.ceil(eps / h))
    kern = bump_scaled(np.arange(-half, half + 1) * h, eps) * h
    return kern / kern.sum()


class _PathBatch:
    """One chunk of concatenated bridges from x_k to ys[k] (default x_k),
    with everything the weight assembly needs precomputed and vectorized.

    It keeps only what the weights read: the step bins and histograms and
    the segments' mollifier kernels (unless bins is off), and the exponent
    -int diagonal(colors, Z) + wall logs (default diagonal spec.potential)
    per segment and color; for per-step colors, the walls' logs at the
    near-wall steps alone, and the step values only for a color-dependent
    diagonal.  The unfolded paths are kept only with keep_free
    (jump_values).  All of it is built in one pass over (segment,
    block_rows row block), so no temporary spans more than one block."""

    def __init__(self, spec: ExperimentSpec, xs: tuple[float, ...], n: int,
                 rng: np.random.Generator, keep_free: bool = False,
                 ys: tuple[float, ...] | None = None, diagonal=None, bins: bool = True):
        self.spec = spec
        self.n = n
        self.dt = spec.resolved_dt()
        self.h = spec.resolved_h()
        # a common step width keeps the global step grid aligned
        self.seg_steps = spec.step_counts()
        self.total_steps = sum(self.seg_steps)
        self.seg_bounds = np.concatenate([[0], np.cumsum(self.seg_steps)])
        folded = []
        self.free = []
        for x, y, t in zip(xs, ys or xs, spec.ts):
            paths = sample_bridge_ensemble(spec.domain, x, y, t, self.dt, n, rng,
                                           return_free=keep_free)
            if keep_free:
                paths, free = paths
                self.free.append(free)
            folded.append(paths)
        if bins:
            self._bin_range(folded)
        self._build(folded, diagonal, bins)

    def _bin_range(self, folded: list[np.ndarray]):
        """The segments' mollifier kernels, the bin range of the steps' left
        ends and the arrays that _build fills with their bins."""
        spec, n = self.spec, self.n
        self.kernels = [_mollifier_kernel(e, self.h) for e in spec.eps_vector()]
        # step m of segment k counts into row k r + color - 1 of norm2_sample
        self.step_row = np.repeat(np.arange(len(folded)) * spec.domain.r - 1, self.seg_steps)
        # bin range: realized values padded by the largest mollifier width,
        # clipped to the domain (the mu-norm integrates over I only)
        pad = max((len(k) // 2 + 1 for k in self.kernels if k is not None), default=0)
        lo_bin = int(np.floor(min(f[:, :-1].min() for f in folded) / self.h)) - pad
        hi_bin = int(np.floor(max(f[:, :-1].max() for f in folded) / self.h)) + pad
        if spec.domain.case in (2, 3):
            lo_bin = max(lo_bin, 0)
        if spec.domain.case == 3:
            hi_bin = min(hi_bin, int(np.floor(spec.domain.theta / self.h)))
        self.bin_offset = lo_bin
        self.n_bins = hi_bin - lo_bin + 1
        # the narrowest unsigned type lets the sampler's stable argsort run
        # as a radix sort (up to 16 bits)
        self.step_bins = np.empty((n, self.total_steps), np.min_scalar_type(self.n_bins - 1))
        # per-segment histograms of step counts
        self.seg_hist = np.empty((n, len(folded), self.n_bins))

    def _build(self, folded: list[np.ndarray], diagonal, bins: bool):
        """Per (segment, row block): the block's step bins and histograms,
        its -int diagonal per color, and seg_exponent[:, k, c - 1], every
        sample's exponent over segment k held in color c: -int diagonal,
        then the lower wall's logs, then the upper wall's, each summed in
        step order.  Then what exponent_sample reads besides it."""
        spec, n, r, dt = self.spec, self.n, self.spec.domain.r, self.dt
        pot = spec.potential
        self.diagonal = diagonal or partial(pot.values, r=r)
        # a color-free diagonal is integrated for color 1 alone
        by_color = diagonal is not None or (pot.kind == "tabulated"
                                            and not spec.color_symmetric())
        colors = range(1, r + 1) if by_color else (1,)
        seg_v = np.zeros((n, len(folded), len(colors)))
        self.seg_exponent = np.empty((n, len(folded), r))
        # per wall with a nonzero weight: each distinct nonzero weight and the
        # colors holding it; a zero (Neumann) weight costs nothing.  Case 1 has
        # no wall, case 2 the lower one, case 3 both
        walls = []
        sides = [(0.0, "lower", spec.alphas), (spec.domain.theta, "upper", spec.betas)]
        for point, side, weights in sides[:spec.domain.case - 1]:
            weights = np.asarray(weights, dtype=float)
            if weights.any():
                walls.append((point, side, [(alpha, weights == alpha)
                                            for alpha in np.unique(weights[weights != 0.0])]))
        # per wall and block: the near-wall steps' rows and global steps, and
        # their logs per weight
        found = [[] for _ in walls]
        reach = math.sqrt(_WALL_REACH_DT * dt)
        row_type, step_type = (np.min_scalar_type(m - 1) for m in (n, self.total_steps))
        for k, f in enumerate(folded):
            rows = block_rows(f.shape[1])
            buf = np.empty((min(rows, n), f.shape[1] - 1))
            for lo in range(0, n, rows):
                block = f[lo:lo + rows]
                values = block[:, :-1]
                if bins:
                    # bins are integer-valued doubles far below 2**53, so
                    # shifting them before the cast is exact
                    b = np.divide(values, self.h, out=buf[:len(values)])
                    np.floor(b, out=b)
                    b -= self.bin_offset
                    np.clip(b, 0, self.n_bins - 1, out=b)
                    into = self.step_bins[lo:lo + rows, self.seg_bounds[k]:self.seg_bounds[k + 1]]
                    into[...] = b
                    flat = into + (np.arange(len(b)) * self.n_bins)[:, None]
                    self.seg_hist[lo:lo + rows, k] = np.bincount(
                        flat.ravel(), minlength=len(b) * self.n_bins).reshape(len(b), self.n_bins)
                if by_color or pot.kind != "zero":
                    for i in colors:
                        seg_v[lo:lo + rows, k, i - 1] = self.diagonal(i, values).sum(axis=1) * dt
                cells = self.seg_exponent[lo:lo + rows, k]
                cells[...] = -seg_v[lo:lo + rows, k]
                for (point, side, terms), out in zip(walls, found):
                    # a factor whose q is 1e-17 or less is 1 to double
                    # precision, and a step with both ends sqrt(_WALL_REACH_DT
                    # dt) or more from the wall has q <= exp(-40) < 1e-17: q
                    # is computed only for steps with an end nearer than that
                    close = block < point + reach if side == "lower" else block > point - reach
                    near = close[:, :-1] | close[:, 1:]
                    row, step = np.divmod(np.flatnonzero(near), near.shape[1])
                    ends = np.stack((block[:, :-1][near], block[:, 1:][near]), axis=1)
                    keep = step_crossing_probs(ends, point, dt, side=side)[:, 0] > 1e-17
                    row, step, d = row[keep], step[keep], np.abs(ends[keep] - point)
                    logs = [log_wall_factor(d[:, 0], d[:, 1], dt, alpha) for alpha, _ in terms]
                    for (_, held), w in zip(terms, logs):
                        sums = np.bincount(row, weights=w, minlength=len(block))
                        cells[:, held] += sums[:, None]
                    out.append(((row + lo).astype(row_type),
                                (step + self.seg_bounds[k]).astype(step_type), logs))
        if bins:
            self.full_hist = self.seg_hist.sum(axis=1)
        # per-step colors read the step values (left ends) of a color-dependent
        # diagonal, else each sample's color-free -int V
        self.step_values = None
        if by_color:
            self.step_values = (folded[0][:, :-1] if len(folded) == 1
                                else np.concatenate([f[:, :-1] for f in folded], axis=1))
        else:
            self.v_exponent = -seg_v.sum(axis=(1, 2))
        # per wall: each path's near-wall steps at ptr[s]:ptr[s + 1] of steps,
        # in step order, and each distinct nonzero weight's colors and logs there
        self.walls = []
        for (_, _, terms), blocks in zip(walls, found):
            # each segment holds its steps in (row, step) order, so a stable
            # sort by row puts them in (row, global step) order
            row = np.concatenate([piece[0] for piece in blocks])
            order = np.argsort(row, kind="stable")
            self.walls.append((np.searchsorted(row[order], np.arange(n + 1)),
                               np.concatenate([piece[1] for piece in blocks])[order],
                               [(held, np.concatenate([piece[2][j] for piece in blocks])[order])
                                for j, (_, held) in enumerate(terms)]))

    def exponent_constant(self, colors: tuple[int, ...]) -> np.ndarray:
        """Every sample's -int diagonal + wall logs when segment k holds
        colors[k] throughout."""
        held = np.asarray(colors) - 1
        return self.seg_exponent[:, np.arange(len(held)), held].sum(axis=1)

    def exponent_sample(self, s: int, step_colors: np.ndarray) -> float:
        """Sample s's -int diagonal + wall logs when step m holds color
        step_colors[m]."""
        if self.step_values is None:
            out = float(self.v_exponent[s])
        else:
            out = -float(self.diagonal(step_colors, self.step_values[s]).sum() * self.dt)
        for ptr, steps, terms in self.walls:
            lo, hi = ptr[s], ptr[s + 1]
            held = step_colors[steps[lo:hi]] - 1
            for holds, logs in terms:
                out += float(logs[lo:hi][holds[held]].sum())
        return out

    # -- local-time norms ----------------------------------------------------
    def _smoothed(self, k: int, counts: np.ndarray) -> np.ndarray:
        """Segment k's step counts convolved with its kernel (none: eps_k = 0)."""
        if self.kernels[k] is None:
            return counts
        from scipy.ndimage import convolve1d  # heavy, and only mollified runs need it

        return convolve1d(counts, self.kernels[k], axis=-1, mode="constant", cval=0.0)

    def norm2_constant(self, colors: tuple[int, ...]) -> np.ndarray:
        """sum_i ||sum_{k: colors[k] = i} L_k * bump_{eps_k}||_2^2, every
        sample, when segment k holds colors[k] throughout; at eps = 0 the
        white norm of the colored local times.  Step counts are summed and
        scaled at the end: white counts add up exactly."""
        out = np.zeros(self.n)
        for i in sorted(set(colors)):
            field = sum(self._smoothed(k, self.seg_hist[:, k, :])
                        for k, c in enumerate(colors) if c == i)
            out += (field**2).sum(axis=1) * ((self.dt / self.h) ** 2 * self.h)
        return out

    def norm2_sample(self, s: int, step_colors: np.ndarray) -> float:
        """The same norm for sample s when step m holds color step_colors[m]:
        one bincount over (segment, color, bin)."""
        r, n_bins, n_segs = self.spec.domain.r, self.n_bins, len(self.seg_steps)
        flat = (self.step_row + step_colors) * n_bins + self.step_bins[s]
        counts = np.bincount(flat, minlength=n_segs * r * n_bins).astype(float)
        field = sum(self._smoothed(k, c) for k, c in enumerate(counts.reshape(n_segs, r, -1)))
        # scaled by (dt/h)^2, then by h: one precomputed scale moves white bits
        return float((field**2).sum() * (self.dt / self.h) ** 2 * self.h)

    def jump_values(self, s: int, times: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        """Z at the given sorted global times for sample s, drawn from the
        free path's bridge law between its grid values (interpolate_free),
        then folded."""
        out = np.empty(len(times))
        starts = self.seg_bounds[:-1] * self.dt
        seg_of = np.minimum(np.searchsorted(starts, times, side="right") - 1,
                            len(self.spec.ts) - 1)
        for k in range(len(self.spec.ts)):
            mask = seg_of == k
            if not mask.any():
                continue
            out[mask] = interpolate_free(self.free[k][s], times[mask] - starts[k], self.dt, rng)
        # looked up per call: perfbench wraps the module attribute
        from .stochastic_paths import fold_to_domain
        return fold_to_domain(out, self.spec.domain)


@dataclass
class FieldEstimate:
    """Kernel estimate with componentwise standard errors."""

    value: FieldElement
    stderr: float
    n_paths: int


class _Accumulator:
    def __init__(self):
        self.s = 0.0
        self.s2 = 0.0
        self.n = 0
        self.n_discarded = 0
        self.max_abs = 0.0
        self.abs_sum = 0.0

    def add_batch(self, w: np.ndarray, discarded: int):
        self.s += float(w.sum())
        self.s2 += float(w @ w)
        self.n += len(w)
        self.n_discarded += discarded
        if len(w):
            contrib = np.abs(w)
            self.max_abs = max(self.max_abs, float(contrib.max()))
            self.abs_sum += float(contrib.sum())


def smooth_trace_moment(spec: ExperimentSpec, workers: int = 1) -> MomentEstimate:
    """Mixed trace moment of the mollified operator family.

    Every realized even jump count is expanded over all pairings; each
    pairing is weighted by the field constant and the product of twofold
    convolutions at the jump displacement.  Odd jump counts contribute
    zero; jump counts above n_max are discarded and reported.
    """
    check_mollifiers(spec)
    return _run_moment(spec, white=False, workers=workers)


def check_mollifiers(spec: ExperimentSpec) -> None:
    """ValueError unless the smooth route can run spec's mollification
    scales: none negative, each nonzero eps at least twice the bin width h,
    and zeta > 0 wherever off-diagonal noise couples colors."""
    eps, zetas = spec.eps_vector(), spec.zeta_vector()
    if min(eps + zetas) < 0:
        raise ValueError(f"mollification scales must be nonnegative, got {eps + zetas}")
    h = spec.resolved_h()
    for e in eps:
        if 0 < e < 2.0 * h:
            raise ValueError(f"mollification scale {e} under-resolved by bin width {h:g}; "
                             "need eps = 0 or eps >= 2 h")
    if any(z == 0 for z in zetas) and spec.upsilon2 > 0 and spec.domain.r > 1:
        raise ValueError("smooth route requires zeta > 0 for every factor")


def whitenoise_trace_moment(spec: ExperimentSpec, workers: int = 1) -> MomentEstimate:
    """Mixed trace moment of the white-noise operator via the singular
    jump process whose times sit on self-intersections of the frozen path."""
    if any(spec.eps_vector() + spec.zeta_vector()):
        raise ValueError("white-noise route has no mollification scales")
    return _run_moment(spec, white=True, workers=workers)


def _node_stats(args) -> _Accumulator:
    """Accumulated weight statistics for one starting-tuple node."""
    spec, white, node_idx, pat, xv, per_node = args
    stream = _STREAM_WHITE if white else _STREAM_SMOOTH
    acc = _Accumulator()
    chunk_size = _chunk_rows(spec)
    for chunk_idx, done in enumerate(range(0, per_node, chunk_size)):
        m = min(chunk_size, per_node - done)
        rng = derived_rng(spec.seed, stream, node_idx, chunk_idx)
        batch = _PathBatch(spec, tuple(xv), m, rng, keep_free=not white)
        acc.add_batch(*_moment_weights(spec, batch, pat, rng, white))
    return acc


def _run_moment(spec: ExperimentSpec, white: bool, workers: int) -> MomentEstimate:
    xs, hq = start_quadrature(spec)
    patterns = color_patterns(spec)
    n = spec.n_factors
    nodes = [(pat, mult, xv) for pat, mult in patterns
             for xv in np.stack(np.meshgrid(*[xs] * n, indexing="ij"), -1).reshape(-1, n)]
    per_node = max(16, spec.n_paths // max(1, len(nodes)))

    tasks = [(spec, white, node_idx, pat, tuple(xv), per_node)
             for node_idx, (pat, _, xv) in enumerate(nodes)]
    # a pool starts all its processes at once; the result is the same for any number
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs need it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_node_stats, tasks, chunksize=4))
    else:
        results = [_node_stats(t) for t in tasks]

    total = 0.0
    var = 0.0
    n_eff = 0
    n_disc = 0
    max_contrib = 0.0
    abs_contrib = 0.0
    warnings = []

    # pi_z of every node: one density call per segment, multiplied in segment order
    starts = np.array([xv for _, _, xv in nodes])
    pi_z = np.prod([transition_density(spec.domain, t, x, x)
                    for t, x in zip(spec.ts, starts.T)], axis=0)
    for acc, (_, mult, _), node_pi in zip(results, nodes, pi_z):
        scale = mult * hq**n * float(node_pi)
        node_n = max(acc.n, 1)
        mean = acc.s / node_n
        # with n - 1, as the oracle's ddof=1
        node_var = max(acc.s2 / node_n - mean**2, 0.0) * node_n / max(node_n - 1, 1)
        total += scale * mean
        var += scale**2 * node_var / node_n
        n_eff += acc.n
        n_disc += acc.n_discarded
        max_contrib = max(max_contrib, acc.max_abs * abs(scale) / node_n)
        abs_contrib += acc.abs_sum * abs(scale) / node_n

    if n_disc > 0.01 * max(1, n_eff + n_disc):
        warnings.append(f"discard rate {n_disc / (n_eff + n_disc):.2%} above 1%")
    est = MomentEstimate(value=total, stderr=float(np.sqrt(var)), n_paths=n_eff,
                         n_discarded=n_disc, seed=spec.seed,
                         config_hash=spec.config_hash(),
                         max_weight_share=(max_contrib / abs_contrib
                                           if abs_contrib > 0 else 0.0),
                         warnings=tuple(warnings))
    if n == 1 and est.value <= 0.0:
        raise InvariantError("single-trace estimate must be positive; "
                             f"got {est.value} (insufficient sampling?)")
    return est


def _moment_weights(spec: ExperimentSpec, batch: _PathBatch, colors: tuple[int, ...],
                    rng: np.random.Generator, white: bool) -> tuple[np.ndarray, int]:
    """Per-sample weights factor * exp(base + sigma2/2 ||L||^2 - int V +
    wall logs) of one chunk, and the number discarded for a jump count above
    n_max.  The route sets, before the shared loop, the jump counts, the log
    base, the jump-free factor, and how a sample's jumps are drawn and
    weighed (draw, factor)."""
    r = spec.domain.r
    segments = tuple(zip(spec.ts, colors))
    if white:
        l2 = batch.norm2_constant((1,) * spec.n_factors)  # one color: ||L||^2
        counts = singular_jump_counts(r, l2, rng)
        base = (r - 1) ** 2 / 2.0 * l2
        scale = 1.0

        def draw(s, n):
            sampler = SelfIntersectionSampler(batch.step_bins[s], batch.full_hist[s], batch.dt)
            return sampler.sample(n, segments, r, rng)

        def factor(s, n, jp):
            return spec.upsilon2 ** (n / 2.0) * constant_c(spec.kind, jp.jumps, jp.matching)
    else:
        seg_counts = walk_jump_counts(r, spec.ts, batch.n, rng)
        counts = seg_counts.sum(axis=1)
        base = np.zeros(batch.n)
        scale = math.exp((r - 1) * sum(spec.ts))

        def draw(s, n):
            return draw_free_walk(segments, seg_counts[s], r, rng)

        def factor(s, n, jp):
            return scale * _matching_sum(spec, batch, s, jp, rng)

    weights = np.zeros(batch.n)
    zero = counts == 0
    if zero.any():
        idx = np.flatnonzero(zero)
        expo = (base[idx]
                + spec.sigma2 / 2.0 * batch.norm2_constant(colors)[idx]
                + batch.exponent_constant(colors)[idx])
        with np.errstate(over="ignore"):  # an overflow is reported as a non-finite estimate
            weights[idx] = scale * np.exp(expo)
    keep = counts <= spec.n_max
    # odd counts and unmatched endpoint colors keep their zero weight
    for s in np.flatnonzero(~zero & keep & (counts % 2 == 0)):
        n = int(counts[s])
        jp = draw(s, n)
        if jp.endpoint_colors() != list(colors):
            continue
        f = factor(s, n, jp)
        if f == 0.0:
            continue
        step_colors = jp.color_at_steps(batch.dt, batch.total_steps)
        expo = (base[s]
                + spec.sigma2 / 2.0 * batch.norm2_sample(s, step_colors)
                + batch.exponent_sample(s, step_colors))
        weights[s] = f * _exp(expo)
    return weights[keep], int(batch.n - keep.sum())


def _exp(x: float) -> float:
    """math.exp with inf for an overflow, which the estimate's finiteness check reports."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _matching_sum(spec: ExperimentSpec, batch: _PathBatch, s: int, jp: JumpPath,
                  rng: np.random.Generator) -> float:
    """Sum over pairings of the realized jumps (at least one), each weighted
    by the field constant and the product of convolution kernels at the
    displacements."""
    if spec.upsilon2 == 0.0:
        return 0.0
    zvals = batch.jump_values(s, jp.times, rng)
    seg_of = np.minimum(np.searchsorted(jp.segment_starts, jp.times, side="right") - 1,
                        len(spec.ts) - 1)
    zeta_of = np.asarray(spec.zeta_vector())[seg_of]
    total = 0.0
    for p in _matchings(jp.n_jumps, spec.n_max):
        c = constant_c(spec.kind, jp.jumps, p)
        if c == 0.0:
            continue
        prod = 1.0
        for l1, l2 in p:
            prod *= spec.upsilon2 * rho(zeta_of[l1], zeta_of[l2], zvals[l1] - zvals[l2])
            if prod == 0.0:
                break
        total += c * prod
    return total


@lru_cache(maxsize=None)
def _matchings(n: int, n_max: int):
    return tuple(enumerate_matchings(n, n_max=n_max))


# --------------------------------------------------------------------------
# regular-noise kernel estimator
# --------------------------------------------------------------------------

def fk_kernel_regular(spec: ExperimentSpec, t: float, a: tuple[int, float],
                      b: tuple[int, float], noise: NoiseField | None, eps: float,
                      n_paths: int | None = None) -> FieldEstimate:
    """Kernel of the mollified-noise semigroup at (a, b), estimated from
    conditioned paths against one frozen noise realization (none: no noise).

    The walk's endpoint conditioning is an indicator on free walks; the
    jump-product functional multiplies mollified off-diagonal noise values
    at the jump points with sign (-1)^N and the rate normalization.  The
    paths are _PathBatch chunks whose diagonal is V plus the diagonal noise.
    """
    if eps <= 0:
        raise ValueError("regular-noise kernel needs eps > 0")
    if t <= 0:
        raise ValueError("t must be positive")
    r = spec.domain.r
    i0, x0 = int(a[0]), float(a[1])
    j0, y0 = int(b[0]), float(b[1])
    if not (1 <= i0 <= r and 1 <= j0 <= r):
        raise ValueError(f"colors must lie in 1..{r}, got {i0} and {j0}")
    n_paths = spec.n_paths if n_paths is None else n_paths
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    # the moment estimators' dt rule: a dt that does not divide t is rejected
    sub = replace(spec, ts=(t,), eps=None, zetas=None)
    chunk_size = _chunk_rows(sub)
    field = _MollifiedNoise(spec, noise, eps) if noise is not None else None
    prefactor = math.exp((r - 1) * t)

    comp_sum, comp_sq = np.zeros(4), np.zeros(4)
    for chunk_idx, done in enumerate(range(0, n_paths, chunk_size)):
        mchunk = min(chunk_size, n_paths - done)
        rng = derived_rng(spec.seed, _STREAM_FK, 0, chunk_idx)
        batch = _PathBatch(sub, (x0,), mchunk, rng, keep_free=field is not None, ys=(y0,),
                           diagonal=field.diagonal if field else None, bins=False)
        counts = walk_jump_counts(r, (t,), mchunk, rng)[:, 0]
        # a walk without jumps draws no random numbers and holds color i0
        if i0 == j0:
            w = np.exp(batch.exponent_constant((i0,))[counts == 0])
            comp_sum[0] += w.sum()
            comp_sq[0] += w @ w
        # without noise the off-diagonal entries, and so the jump product, vanish
        for s in np.flatnonzero(counts) if field else ():
            comps = np.array(_fk_single(batch, s, int(counts[s]), i0, j0, field, rng).components)
            comp_sum += comps
            comp_sq += comps**2
        del batch  # free this chunk's paths before the next chunk is drawn
    mean = prefactor * comp_sum / n_paths
    var = (np.maximum(prefactor**2 * comp_sq / n_paths - mean**2, 0.0)
           * n_paths / max(n_paths - 1, 1))
    se = float(np.sqrt(var.sum() / n_paths))
    pi_z = transition_density(spec.domain, t, x0, y0)
    value = from_components(spec.kind, pi_z * mean[:N_COMPONENTS[spec.kind]])
    return FieldEstimate(value=value, stderr=pi_z * se, n_paths=n_paths)


class _MollifiedNoise:
    """A frozen noise realization mollified at scale eps, read at path points."""

    def __init__(self, spec: ExperimentSpec, noise: NoiseField, eps: float):
        self.spec = spec
        self.centers = noise.cell_centers()
        profiles = mollified_profiles(noise, eps)
        self.pair = {key: profiles[k] for key, k in pair_index(spec.domain.r).items()}
        self.norm = UNIT_NORMALIZATION[spec.kind] * np.sqrt(spec.upsilon2)

    def diagonal(self, colors, x) -> np.ndarray:
        """V plus the mollified diagonal noise, elementwise in (colors, x)."""
        v = self.spec.potential.values(colors, x, self.spec.domain.r)
        sigma = np.sqrt(self.spec.sigma2)
        if np.ndim(colors) == 0:
            return v + sigma * np.interp(x, self.centers, self.pair[colors, colors][0])
        for i in np.unique(colors):
            at = colors == i
            v[at] += sigma * np.interp(x[at], self.centers, self.pair[i, i][0])
        return v

    def entry(self, frm: int, to: int, z: float) -> FieldElement:
        """Entry (frm, to) of the mollified off-diagonal noise at z."""
        lo, hi = min(frm, to), max(frm, to)
        comps = np.array([np.interp(z, self.centers, self.pair[lo, hi][c])
                          for c in range(4)]) * self.norm
        value = from_components(self.spec.kind, comps)
        # the noise is Hermitian: entry (to, frm) below the diagonal is
        # the conjugate of the stored entry (frm, to)
        return conj(value) if frm > to else value


def _fk_single(batch: _PathBatch, s: int, n_jumps: int, i0: int, j0: int,
               field: _MollifiedNoise, rng: np.random.Generator) -> FieldElement:
    """Sample s's weight when its walk jumps n_jumps > 0 times."""
    spec = batch.spec
    jp = draw_free_walk(((spec.ts[0], i0),), (n_jumps,), spec.domain.r, rng)
    if jp.endpoint_colors() != [j0]:
        return FieldElement(spec.kind, 0.0)
    expo = batch.exponent_sample(s, jp.color_at_steps(batch.dt, batch.total_steps))
    # the ordered product of off-diagonal noise at the jump points
    prod = one(spec.kind)
    for (frm, to), z in zip(jp.jumps, batch.jump_values(s, jp.times, rng)):
        prod = mul(prod, field.entry(frm, to, z))
    return prod.scale(math.exp(expo) * (-1.0) ** n_jumps)


# --------------------------------------------------------------------------
# covariance experiment
# --------------------------------------------------------------------------

def check_covariance_times(t1: float, t2: float) -> None:
    if not (0 < t1 <= 1 and 0 < t2 <= 1):
        raise ValueError("covariance experiment expects t1, t2 in (0, 1]")


def rigidity_covariance(spec: ExperimentSpec, t1: float, t2: float,
                        workers: int = 1) -> MomentEstimate:
    """Cov[Tr exp(-t1 H), Tr exp(-t2 H)] from three independent estimates.

    The second moment and both first moments are estimated on disjoint
    seeds; the error bar is the delta-method combination.
    """
    check_covariance_times(t1, t2)
    spec2 = replace(spec, ts=(t1, t2), eps=None, zetas=None,
                    seed=child_seed(spec.seed, 0))
    spec1a = replace(spec, ts=(t1,), eps=None, zetas=None,
                     seed=child_seed(spec.seed, 1))
    spec1b = replace(spec, ts=(t2,), eps=None, zetas=None,
                     seed=child_seed(spec.seed, 2))
    m2 = whitenoise_trace_moment(spec2, workers=workers)
    m1a = whitenoise_trace_moment(spec1a, workers=workers)
    m1b = whitenoise_trace_moment(spec1b, workers=workers)
    cov = m2.value - m1a.value * m1b.value
    var = (m2.stderr**2 + (m1b.value * m1a.stderr) ** 2
           + (m1a.value * m1b.stderr) ** 2)
    return MomentEstimate(value=cov, stderr=float(np.sqrt(var)),
                          n_paths=m2.n_paths + m1a.n_paths + m1b.n_paths,
                          n_discarded=m2.n_discarded + m1a.n_discarded + m1b.n_discarded,
                          seed=spec.seed, config_hash=spec.config_hash(),
                          max_weight_share=max(m2.max_weight_share,
                                               m1a.max_weight_share,
                                               m1b.max_weight_share))
