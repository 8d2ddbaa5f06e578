"""Monte Carlo estimators for the trace moments: the regular-noise kernel
estimator, the smooth (mollified) trace-moment estimator, the white-noise
trace-moment estimator driven by the singular jump process, and the
covariance experiment built on top of them.

Structure shared by the moment estimators: the starting point is integrated
by a midpoint rule over the (truncated) domain and summed exactly over
colors, while the path expectation at each starting tuple is a Monte Carlo
mean.  The color-endpoint conditioning of the jump walk is absorbed into an
indicator on free walks, which is what replaces the product of walk
transition kernels.  Both moment routes assemble a chunk's weights in one
batched loop (_moment_weights) from

  * the pairing sum over matchings of the realized jumps (smooth route) or
    the sampled matching weight (white route),
  * the exponential of -int V + self-intersection terms, and
  * per step, the exact wall factor E[exp(alpha L) | step endpoints] of
    the color held, whose Dirichlet limit is the survival probability.

The colored walk and the self-intersection sampler are those of
jump_process, drawn for all of a chunk's jumping samples at once.  All three
estimators draw their paths as _PathBatch chunks and read from them the path
values at jump times and one exponent, -int V + the wall logs, for colors
held per segment (exponent_constant) or per step (exponent_steps, a row
block per call); in the kernel's chunks, which run from x to y, V is V plus
the diagonal noise.  The kernel multiplies its off-diagonal noise entries as
the oracle does, as 2x2 complex blocks (quaternion_block), and pools its
weights' components (a, b, c, d) through _Accumulator, one slot each.
Both moment routes weigh the diagonal noise by the batch's one local-time
norm (norm2_constant, norm2_steps): per color ||sum_k L_k * bump_{eps_k}||^2,
which at eps = 0 is the white ||L||^2.

Packed chunks: every grid node gets per_node samples.  Consecutive nodes of
one color pattern share a chunk, whole, until it holds a block_rows row
block of its widest segment (at most _chunk_rows rows); each row carries its
node's starting tuple, and the chunk's weights are merged into per-node
statistics by the rows' node index.  A node with a row block or more of its
own is a chunk alone, split into chunks of _chunk_rows rows when it has
more.

Seed policy: chunk c of the chunks whose first node is node owns the rng
stream SeedSequence(entropy=seed, spawn_key=(stream, node, c)): a packed
chunk is chunk 0 of its first node, and a node alone keeps the stream of
its own chunks.  A task is one packed chunk or one node's chunks, and its
result does not depend on the other tasks, so results are bit-identical for
a fixed configuration regardless of how work is distributed over workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .combinatorics import constant_c, enumerate_matchings
from .experiment import ExperimentSpec, InvariantError, MomentEstimate
from .jump_process import (  # draw_jumps_along: perfbench traces this binding
    JumpPath,
    draw_jumps_along,
    free_walk_times,
    singular_jump_counts,
    singular_walk_times,
    walk_jump_counts,
)
from .noise_model import (
    UNIT_NORMALIZATION,
    NoiseField,
    bump_scaled,
    mollified_profiles,
    pair_index,
    quaternion_block,
    rho,
)
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
    """One chunk of concatenated bridges, segment k of row i from xs[i, k]
    to ys[i, k] (default xs[i, k]), with everything the weight assembly
    needs precomputed and vectorized.

    It keeps only what the weights read: the step bins and histograms and
    the segments' mollifier kernels, and the exponent -int diagonal(colors,
    Z) + wall logs (default diagonal spec.potential) per segment and color;
    for per-step colors, the walls' logs at the near-wall steps alone, and
    the step values only for a color-dependent diagonal.  The unfolded
    paths, which jump_values reads at jump times, are kept only when a jump
    can read them: r > 1 and some zeta > 0.  All of it is built in one pass
    over (segment, block_rows row block), so no temporary spans more than
    one block."""

    def __init__(self, spec: ExperimentSpec, xs, n: int,
                 rng: np.random.Generator, ys=None, diagonal=None):
        """xs (ys, default xs) holds the segments' start (end) points: one
        per segment, or one row of them per path, shape (n, segments)."""
        self.spec = spec
        self.n = n
        self.dt = spec.resolved_dt()
        self.h = spec.resolved_h()
        # a common step width keeps the global step grid aligned
        self.seg_steps = spec.step_counts()
        self.total_steps = sum(self.seg_steps)
        self.seg_bounds = np.concatenate([[0], np.cumsum(self.seg_steps)])
        xs = np.broadcast_to(np.asarray(xs, dtype=float), (n, len(spec.ts)))
        ys = xs if ys is None else np.broadcast_to(np.asarray(ys, dtype=float), xs.shape)
        keep_free = spec.domain.r > 1 and any(spec.zeta_vector())
        folded = []
        self.free = []
        for x, y, t in zip(xs.T, ys.T, spec.ts):
            paths = sample_bridge_ensemble(spec.domain, x, y, t, self.dt, n, rng,
                                           return_free=keep_free)
            if keep_free:
                paths, free = paths
                self.free.append(free)
            folded.append(paths)
        # the segments' mollifier kernels, the bin range of the steps' left
        # ends and the arrays that _build fills with their bins
        self.kernels = [_mollifier_kernel(e, self.h) for e in spec.eps_vector()]
        # step m of segment k counts into row k r + color - 1 of norm2_steps
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
        self._build(folded, diagonal)

    def _build(self, folded: list[np.ndarray], diagonal):
        """Per (segment, row block): the block's step bins and histograms,
        its -int diagonal per color, and seg_exponent[:, k, c - 1], every
        sample's exponent over segment k held in color c: -int diagonal,
        then the lower wall's logs, then the upper wall's, each summed in
        step order.  Then what exponent_steps reads besides it.

        Per row block and weighted wall, the near-wall steps are found,
        gathered, cut and logged once, on 1-D arrays: one comparison of
        the block with the wall's reach, one flatnonzero over the steps
        with an end inside it, two takes of their ends' distances a and b,
        then q = step_crossing_probs(a, b, dt) > 1e-17 and log_wall_factor
        on the steps kept.  The paths lie in the closed domain, so a and b
        are the steps' signed distances, and an end on the wall gives
        q = 1 and a Dirichlet log of -inf."""
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
            steps = f.shape[1] - 1
            # a row block holds about two float arrays of its size: the bin
            # buffer, the walls' two bool masks and the near-wall steps'
            # gathers (or the diagonal's values), so they fit in cache
            rows = block_rows(2 * f.shape[1])
            buf = np.empty((min(rows, n), steps))
            if walls:
                close_buf = np.empty((len(buf), steps + 1), bool)
                near_buf = np.empty((len(buf), steps), bool)
            for lo in range(0, n, rows):
                block = f[lo:lo + rows]
                values = block[:, :-1]
                # bins are integer-valued doubles far below 2**53, so
                # shifting them before the cast is exact
                b = np.divide(values, self.h, out=buf[:len(values)])
                np.floor(b, out=b)
                b -= self.bin_offset
                np.clip(b, 0, self.n_bins - 1, out=b)
                into = self.step_bins[lo:lo + rows, self.seg_bounds[k]:self.seg_bounds[k + 1]]
                into[...] = b
                # the block's flat (row, bin) indices reuse buf: b is spent
                flat = np.add(into, (np.arange(len(b)) * self.n_bins)[:, None],
                              out=buf[:len(b)].view(np.int64))
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
                    close = close_buf[:len(block)]
                    if side == "lower":
                        np.less(block, point + reach, out=close)
                    else:
                        np.greater(block, point - reach, out=close)
                    idx = np.flatnonzero(np.logical_or(close[:, :-1], close[:, 1:],
                                                       out=near_buf[:len(block)]))
                    row = idx // steps
                    # the block is a contiguous row slice steps + 1 wide, so
                    # step idx of row idx // steps starts at flat idx + row
                    end = np.add(idx, row, out=idx)
                    a = block.ravel().take(end)
                    end += 1
                    b = block.ravel().take(end)
                    # the ends lie in the closed domain: |end - wall| is the
                    # signed distance, and an end on the wall gives q = 1
                    a -= point
                    np.abs(a, out=a)
                    b -= point
                    np.abs(b, out=b)
                    keep = step_crossing_probs(a, b, dt) > 1e-17
                    if not keep.all():
                        kept = np.flatnonzero(keep)
                        row, end, a, b = row[kept], end[kept], a[kept], b[kept]
                    logs = [log_wall_factor(a, b, dt, alpha) for alpha, _ in terms]
                    for (_, held), w in zip(terms, logs):
                        sums = np.bincount(row, weights=w, minlength=len(block))
                        cells[:, held] += sums[:, None]
                    # step m of the segment ends at flat row (steps + 1) + m + 1
                    end -= row * (steps + 1) + 1 - self.seg_bounds[k]
                    out.append(((row + lo).astype(row_type), end.astype(step_type), logs))
        self.full_hist = self.seg_hist.sum(axis=1)
        # per-step colors read the step values (left ends) of a color-dependent
        # diagonal, else each sample's color-free -int V
        self.step_values = None
        if by_color:
            self.step_values = (folded[0][:, :-1] if len(folded) == 1
                                else np.concatenate([f[:, :-1] for f in folded], axis=1))
        else:
            self.v_exponent = -seg_v.sum(axis=(1, 2))
        # the paths are spent: free them before the walls are assembled
        folded.clear()
        # per wall: the near-wall steps' rows, global steps and per-weight colors
        # and logs, in the (segment, row, step) order found: each row's in step order
        self.walls = [(np.concatenate([piece[0] for piece in blocks]),
                       np.concatenate([piece[1] for piece in blocks]),
                       [(held, np.concatenate([piece[2][j] for piece in blocks]))
                        for j, (_, held) in enumerate(terms)])
                      for (_, _, terms), blocks in zip(walls, found)]

    def exponent_constant(self, colors: tuple[int, ...]) -> np.ndarray:
        """Every sample's -int diagonal + wall logs when segment k holds
        colors[k] throughout."""
        held = np.asarray(colors) - 1
        return self.seg_exponent[:, np.arange(len(held)), held].sum(axis=1)

    def exponent_steps(self, rows: np.ndarray, step_colors: np.ndarray) -> np.ndarray:
        """Sample rows[i]'s -int diagonal + wall logs when its step m holds
        color step_colors[i, m]: the walls' logs gathered at the rows'
        near-wall steps and summed per row in step order.  rows are distinct;
        a call scans the walls' whole store, so callers pass row blocks."""
        if self.step_values is None:
            out = self.v_exponent[rows]
        else:
            out = -(self.diagonal(step_colors, self.step_values[rows]).sum(axis=1) * self.dt)
        position = np.full(self.n, -1)
        position[rows] = np.arange(len(rows))
        for row, steps, terms in self.walls:
            idx = np.flatnonzero(position[row] >= 0)
            local = position[row[idx]]
            held = step_colors[local, steps[idx]] - 1
            for holds, logs in terms:
                out = out + np.bincount(local, weights=np.where(holds[held], logs[idx], 0.0),
                                        minlength=len(rows))
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

    def norm2_steps(self, rows: np.ndarray, step_colors: np.ndarray) -> np.ndarray:
        """The same norm for sample rows[i] when its step m holds color
        step_colors[i, m]: one bincount over (row, segment, color, bin)."""
        r, n_bins, n_segs = self.spec.domain.r, self.n_bins, len(self.seg_steps)
        width = n_segs * r * n_bins
        flat = (self.step_row + step_colors) * n_bins + self.step_bins[rows]
        flat += (np.arange(len(rows)) * width)[:, None]
        counts = np.bincount(flat.ravel(), minlength=len(rows) * width).astype(float)
        counts = counts.reshape(len(rows), n_segs, r, n_bins)
        field = sum(self._smoothed(k, counts[:, k]) for k in range(n_segs))
        # scaled by (dt/h)^2, then by h: one precomputed scale moves white bits
        return (field**2).sum(axis=(1, 2)) * (self.dt / self.h) ** 2 * self.h

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
    """Kernel estimate: the components (a, b, c, d) of the value
    a + b*i + c*j + d*k, and the standard error of their vector."""

    value: np.ndarray
    stderr: float


class _Accumulator:
    """Weight statistics of consecutive start nodes: per node the sample
    count, mean and sum of squared deviations from it (M2), merged chunk by
    chunk with the Chan-Golub-LeVeque update, and the largest and summed
    |weight|; and the samples discarded."""

    def __init__(self, nodes: int):
        self.n = np.zeros(nodes, dtype=np.int64)
        self.mean = np.zeros(nodes)
        self.m2 = np.zeros(nodes)
        self.max_abs = np.zeros(nodes)
        self.abs_sum = np.zeros(nodes)
        self.n_discarded = 0

    def add_batch(self, node: np.ndarray, w: np.ndarray, discarded: int):
        """Merge one chunk's weights w, w[j] drawn at node node[j]."""
        k = len(self.n)
        n_b = np.bincount(node, minlength=k)
        # a non-finite weight is reported by the estimate, without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            mean_b = np.bincount(node, weights=w, minlength=k) / np.maximum(n_b, 1)
            m2_b = np.bincount(node, weights=(w - mean_b[node]) ** 2, minlength=k)
            n = self.n + n_b
            delta = mean_b - self.mean
            share = n_b / np.maximum(n, 1)
            self.mean = self.mean + delta * share
            self.m2 = self.m2 + m2_b + delta**2 * self.n * share
        self.n = n
        self.n_discarded += discarded
        contrib = np.abs(w)
        np.maximum.at(self.max_abs, node, contrib)
        self.abs_sum += np.bincount(node, weights=contrib, minlength=k)


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


def _chunk_stats(args) -> _Accumulator:
    """Weight statistics of consecutive start nodes of one color pattern,
    per_node samples each: one packed chunk of whole nodes, or the chunks of
    _chunk_rows samples of one node."""
    spec, white, pat, starts, first_node, per_node = args
    stream = _STREAM_WHITE if white else _STREAM_SMOOTH
    acc = _Accumulator(len(starts))
    xs = np.repeat(starts, per_node, axis=0)
    node = np.repeat(np.arange(len(starts)), per_node)
    size = _chunk_rows(spec)
    for chunk_idx, lo in enumerate(range(0, len(xs), size)):
        rng = derived_rng(spec.seed, stream, first_node, chunk_idx)
        rows = xs[lo:lo + size]
        batch = _PathBatch(spec, rows, len(rows), rng)
        w, keep = _moment_weights(spec, batch, pat, rng, white)
        acc.add_batch(node[lo:lo + size][keep], w[keep], int(batch.n - keep.sum()))
    return acc


def _run_moment(spec: ExperimentSpec, white: bool, workers: int) -> MomentEstimate:
    xs, hq = start_quadrature(spec)
    patterns = color_patterns(spec)
    n = spec.n_factors
    grid = np.stack(np.meshgrid(*[xs] * n, indexing="ij"), -1).reshape(-1, n)
    per_node = max(16, spec.n_paths // max(1, len(patterns) * len(grid)))
    # consecutive nodes of one pattern share a chunk until it holds a row
    # block of its widest segment (within _chunk_rows); a larger node is alone
    pack = max(1, min(-(-block_rows(max(spec.step_counts()) + 1) // per_node),
                      _chunk_rows(spec) // per_node))
    tasks = [(spec, white, pat, grid[lo:lo + pack], p * len(grid) + lo, per_node)
             for p, (pat, _) in enumerate(patterns) for lo in range(0, len(grid), pack)]
    # a pool starts all its processes at once; the result is the same for any number
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs need it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_stats, tasks, chunksize=4))
    else:
        results = [_chunk_stats(t) for t in tasks]

    # per node, in node order: pattern-major, then grid order
    counts, mean, m2, max_abs, abs_sum = (np.concatenate([getattr(acc, name) for acc in results])
                                          for name in ("n", "mean", "m2", "max_abs", "abs_sum"))
    n_eff = int(counts.sum())
    n_disc = sum(acc.n_discarded for acc in results)
    # pi_z of every grid node: one density call per segment, multiplied in segment order
    pi_z = np.prod([transition_density(spec.domain, t, x, x) for t, x in zip(spec.ts, grid.T)],
                   axis=0)
    mults = np.repeat([mult for _, mult in patterns], len(grid))
    scale = mults * hq**n * np.tile(pi_z, len(patterns))
    node_n = np.maximum(counts, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        total = float((scale * mean).sum())
        # with n - 1, as the oracle's ddof=1
        var = float((scale**2 * (m2 / np.maximum(counts - 1, 1)) / node_n).sum())
        max_contrib = float((max_abs * np.abs(scale) / node_n).max())
        abs_contrib = float((abs_sum * np.abs(scale) / node_n).sum())

    warnings = []
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
                    rng: np.random.Generator, white: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample weights factor * exp(base + sigma2/2 ||L||^2 - int V +
    wall logs) of one chunk, and the mask of samples kept (jump count at
    most n_max; the rest are discarded).

    The route sets the jump counts, the log base, the jump-free factor and
    how jumps are drawn and weighed (draw, factor).  Every kept sample with
    an even, nonzero jump count then draws its jump times in one batch (the
    singular or the free walk), the endpoint indicator is read off the
    batch, the pairing factor runs per accepted sample, and
    the step colors, norms and exponents of the samples with a nonzero
    factor run as array operations, one block_rows row block at a time."""
    r = spec.domain.r
    segments = tuple(zip(spec.ts, colors))
    if white:
        l2 = batch.norm2_constant((1,) * spec.n_factors)  # one color: ||L||^2
        counts = singular_jump_counts(r, l2, rng)
        base = (r - 1) ** 2 / 2.0 * l2
        scale = 1.0

        def draw(rows):
            return singular_walk_times(batch.step_bins[rows], batch.full_hist[rows],
                                       counts[rows], batch.dt, batch.seg_bounds, rng)

        def factor(s, path):
            return spec.upsilon2 ** (len(path.jumps) / 2.0) * constant_c(spec.kind, path.jumps,
                                                                         path.matching)
    else:
        seg_counts = walk_jump_counts(r, spec.ts, batch.n, rng)
        counts = seg_counts.sum(axis=1)
        base = np.zeros(batch.n)
        scale = math.exp((r - 1) * sum(spec.ts))

        def draw(rows):
            return free_walk_times(segments, seg_counts[rows], rng)

        def factor(s, path):
            return scale * _matching_sum(spec, batch, s, path, rng)

    weights = np.zeros(batch.n)
    zero = counts == 0
    # an overflow is reported as a non-finite estimate
    with np.errstate(over="ignore"):
        if zero.any():
            idx = np.flatnonzero(zero)
            expo = (base[idx]
                    + spec.sigma2 / 2.0 * batch.norm2_constant(colors)[idx]
                    + batch.exponent_constant(colors)[idx])
            weights[idx] = scale * np.exp(expo)
        keep = counts <= spec.n_max
        # odd counts and unmatched endpoint colors keep their zero weight
        rows = np.flatnonzero(~zero & keep & (counts % 2 == 0))
        jumps = draw_jumps_along(segments, r, *draw(rows), rng)
        accepted = np.flatnonzero((jumps.endpoint_colors() == colors).all(axis=1))
        factors = np.array([factor(rows[i], JumpPath(jumps, i)) for i in accepted])
        live = factors != 0.0
        accepted, factors = accepted[live], factors[live]
        block = block_rows(batch.total_steps)
        for lo in range(0, len(accepted), block):
            at = accepted[lo:lo + block]
            step_colors = jumps.step_colors(at, batch.dt, batch.seg_bounds)
            s = rows[at]
            expo = (base[s]
                    + spec.sigma2 / 2.0 * batch.norm2_steps(s, step_colors)
                    + batch.exponent_steps(s, step_colors))
            weights[s] = factors[lo:lo + block] * np.exp(expo)
    return weights, keep


def _matching_sum(spec: ExperimentSpec, batch: _PathBatch, s: int, path: JumpPath,
                  rng: np.random.Generator) -> float:
    """Sum over pairings of sample s's jumps (at least one), each weighted
    by the field constant and the product of convolution kernels at the
    displacements."""
    if spec.upsilon2 == 0.0:
        return 0.0
    zvals = batch.jump_values(s, path.times, rng)
    zeta_of = np.asarray(spec.zeta_vector())[path.seg]
    total = 0.0
    for p in _matchings(len(path.jumps), spec.n_max):
        c = constant_c(spec.kind, path.jumps, p)
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

def fk_kernel_regular(spec: ExperimentSpec, a: tuple[int, float], b: tuple[int, float],
                      noise: NoiseField | None) -> FieldEstimate:
    """Kernel at (a, b) of the mollified-noise semigroup at spec's one time,
    estimated from spec.n_paths conditioned paths against one frozen noise
    realization (none: no noise), its diagonal mollified at spec.eps and its
    off-diagonal entries at spec.zetas.

    The walk's endpoint conditioning is an indicator on free walks; the
    jump-product functional multiplies mollified off-diagonal noise values
    at the jump points with sign (-1)^N and the rate normalization.  The
    paths are _PathBatch chunks whose diagonal is V plus the diagonal noise.
    """
    if len(spec.ts) != 1:
        raise ValueError(f"the kernel runs at one time, got ts = {spec.ts}")
    (t,) = spec.ts
    r = spec.domain.r
    if noise is not None and (noise.kind, noise.r) != (spec.kind, r):
        raise ValueError(f"noise field 0 is {noise.kind} with r = {noise.r}, the run "
                         f"{spec.kind} with r = {r}")
    i0, x0 = int(a[0]), float(a[1])
    j0, y0 = int(b[0]), float(b[1])
    if not (1 <= i0 <= r and 1 <= j0 <= r):
        raise ValueError(f"colors must lie in 1..{r}, got {i0} and {j0}")
    # the moment estimators' dt rule: a dt that does not divide t is rejected
    chunk_size = _chunk_rows(spec)
    field = _MollifiedNoise(spec, noise) if noise is not None else None

    # one accumulator slot per component: the key of weight w[s, c] is c
    acc = _Accumulator(4)
    for chunk_idx, done in enumerate(range(0, spec.n_paths, chunk_size)):
        mchunk = min(chunk_size, spec.n_paths - done)
        rng = derived_rng(spec.seed, _STREAM_FK, 0, chunk_idx)
        batch = _PathBatch(spec, (x0,), mchunk, rng, ys=(y0,),
                           diagonal=field.diagonal if field else None)
        counts = walk_jump_counts(r, (t,), mchunk, rng)[:, 0]
        w = np.zeros((mchunk, 4))
        # a walk without jumps draws no random numbers and holds color i0
        if i0 == j0:
            still = counts == 0
            w[still, 0] = np.exp(batch.exponent_constant((i0,))[still])
        # without noise the off-diagonal entries, and so the jump product, vanish
        walks = list(filter(None, (_fk_single(batch, s, int(counts[s]), i0, j0, field, rng)
                                   for s in (np.flatnonzero(counts) if field else ()))))
        block = block_rows(batch.total_steps)
        for lo in range(0, len(walks), block):
            rows, colors, comps = zip(*walks[lo:lo + block])
            expo = batch.exponent_steps(np.array(rows), np.stack(colors))
            for s, c, e in zip(rows, comps, expo.tolist()):
                w[s] = c * math.exp(e)
        acc.add_batch(np.tile(np.arange(4), mchunk), w.ravel(), 0)
        del batch  # free this chunk's paths before the next chunk is drawn
    scale = math.exp((r - 1) * t) * transition_density(spec.domain, t, x0, y0)
    se = math.sqrt(acc.m2.sum() / max(spec.n_paths - 1, 1) / spec.n_paths)
    return FieldEstimate(value=scale * acc.mean, stderr=scale * se)


class _MollifiedNoise:
    """A frozen noise realization read at path points: its diagonal entries
    mollified at the spec's eps, its off-diagonal entries at its zeta."""

    def __init__(self, spec: ExperimentSpec, noise: NoiseField):
        self.spec = spec
        self.centers = noise.cell_centers()
        (eps,), (zeta,) = spec.eps_vector(), spec.zeta_vector()
        pairs = pair_index(spec.domain.r)
        scale = {(i, j): eps if i == j else zeta for i, j in pairs}
        profiles = {s: mollified_profiles(noise, s) for s in set(scale.values())}
        self.pair = {key: profiles[scale[key]][k] for key, k in pairs.items()}
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

    def entry(self, frm: int, to: int, z: float) -> np.ndarray:
        """The 2x2 block of entry (frm, to) of the mollified off-diagonal
        noise at z."""
        lo, hi = min(frm, to), max(frm, to)
        comps = np.array([np.interp(z, self.centers, self.pair[lo, hi][c])
                          for c in range(4)]) * self.norm
        block = quaternion_block(*comps)
        # the noise is Hermitian: entry (to, frm) below the diagonal is the
        # conjugate of the stored (frm, to), whose block is the conjugate transpose
        return block.conj().T if frm > to else block


def _fk_single(batch: _PathBatch, s: int, n_jumps: int, i0: int, j0: int,
               field: _MollifiedNoise, rng: np.random.Generator):
    """s, the step colors of sample s's walk, a batch of one that jumps
    n_jumps > 0 times, and its weight components (a, b, c, d) before the
    factor exp(exponent); None if the walk does not end in j0."""
    segments = ((batch.spec.ts[0], i0),)
    drawn = free_walk_times(segments, np.array([[n_jumps]]), rng)
    path = JumpPath(draw_jumps_along(segments, batch.spec.domain.r, *drawn, rng), 0)
    if path.endpoint_colors() != [j0]:
        return None
    step_colors = path.color_at_steps(batch.dt, batch.seg_bounds)
    # the ordered product of off-diagonal noise blocks at the jump points
    prod = np.eye(2, dtype=complex)
    for (frm, to), z in zip(path.jumps, batch.jump_values(s, path.times, rng)):
        prod = prod @ field.entry(frm, to, z)
    comps = np.array([prod[0, 0].real, prod[0, 0].imag, prod[0, 1].real, prod[0, 1].imag])
    return s, step_colors, comps * (-1.0) ** n_jumps


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
    parts = [whitenoise_trace_moment(replace(spec, ts=ts, seed=child_seed(spec.seed, k)),
                                     workers=workers)
             for k, ts in enumerate([(t1, t2), (t1,), (t2,)])]
    m2, m1a, m1b = parts
    cov = m2.value - m1a.value * m1b.value
    var = (m2.stderr**2 + (m1b.value * m1a.stderr) ** 2
           + (m1a.value * m1b.stderr) ** 2)
    return MomentEstimate(value=cov, stderr=float(np.sqrt(var)),
                          n_paths=sum(m.n_paths for m in parts),
                          n_discarded=sum(m.n_discarded for m in parts),
                          seed=spec.seed, config_hash=spec.config_hash(),
                          max_weight_share=max(m.max_weight_share for m in parts))
