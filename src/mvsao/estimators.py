"""Monte Carlo estimators for the trace moments: the regular-noise kernel
estimator, the smooth (mollified) trace-moment estimator, the white-noise
trace-moment estimator driven by the singular jump process, and the
covariance experiment built on top of them.

Structure shared by the moment estimators: the starting point is integrated
by a midpoint rule over the (truncated) domain and summed exactly over
colors, while the path expectation at each starting tuple is a Monte Carlo
mean.  The color-endpoint conditioning of the jump walk is absorbed into an
indicator on free walks, which is what replaces the product of walk
transition kernels.  Every sample's weight is assembled from

  * the pairing sum over matchings of the realized jumps (smooth route) or
    the sampled matching weight (white route),
  * the exponential of -int V + self-intersection terms, and
  * per step, the exact wall factor E[exp(alpha L) | step endpoints] of
    the color held, whose Dirichlet limit is the survival probability.

The colored walk and the self-intersection sampler are those of
jump_process, and all three estimators read their wall factors from one
BoundaryWeights object per batch of paths.

Seed policy: every (starting tuple, grid node, chunk) triple owns the rng
stream SeedSequence(entropy=seed, spawn_key=(stream, node, chunk)), which
makes results bit-identical for a fixed configuration regardless of how
work is distributed over workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from functools import lru_cache

from .algebra import FieldElement, N_COMPONENTS, UNIT_NORMALIZATION, from_components, mul, one
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
from .noise_model import NoiseField, mollified_profiles, pair_index, rho
from .stochastic_paths import (
    interpolate_free,
    log_wall_factor,
    sample_bridge_ensemble,
    step_crossing_probs,
    transition_density,
)

_STREAM_FK = 0
_STREAM_SMOOTH = 1
_STREAM_WHITE = 2

_MAX_CHUNK_FLOATS = 3.0e7


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """The documented seed-splitting rule."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


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


def _wall_terms(folded, bounds, point, side, dt, weights) -> list[tuple]:
    """(colors holding the weight, per-step logs, per-segment sums) for each
    distinct nonzero weight of one wall.  Its own scope frees the temporaries
    before the next wall's, which keeps the peak memory of a batch down."""
    near = []  # per segment: rows, steps, distances at both step ends
    for f, lo in zip(folded, bounds):
        # a factor whose q is 1e-17 or less is 1 to double precision
        rows, cols = np.nonzero(step_crossing_probs(f, point, dt, side=side) > 1e-17)
        near.append((rows, lo + cols, np.abs(f[rows, cols] - point),
                     np.abs(f[rows, cols + 1] - point)))
    terms = []
    for alpha in np.unique(weights[weights != 0.0]):
        logs = np.zeros((folded[0].shape[0], bounds[-1]))
        for rows, steps, a, b in near:
            logs[rows, steps] = log_wall_factor(a, b, dt, alpha)
        segs = np.stack([logs[:, lo:hi].sum(axis=1) for lo, hi in zip(bounds, bounds[1:])], 1)
        terms.append((weights == alpha, logs, segs))
    return terms


class BoundaryWeights:
    """Log boundary weights of a batch of concatenated paths, the single
    implementation behind every estimator.

    folded holds the segments' paths, shape (n, steps_k + 1) each.  In each
    step a wall's weight alpha for the color held contributes the exact
    log_wall_factor of the step's distances to the wall (for a Dirichlet
    color, the log survival probability).  Each (wall, distinct nonzero
    weight) pair keeps its per-step logs, shape (n, steps), and their
    per-segment sums; a zero (Neumann) weight costs nothing.
    """

    def __init__(self, spec: ExperimentSpec, folded: list[np.ndarray], dt: float):
        self.n = folded[0].shape[0]
        bounds = np.cumsum([0] + [f.shape[1] - 1 for f in folded])
        self.terms = []  # (colors holding the weight, step logs, segment sums)
        walls = [(0.0, "lower", spec.alphas), (spec.domain.theta, "upper", spec.betas)]
        # case 1 has no wall, case 2 the lower one, case 3 both
        for point, side, weights in walls[:spec.domain.case - 1]:
            weights = np.asarray(weights, dtype=float)
            if weights.any():
                self.terms += _wall_terms(folded, bounds, point, side, dt, weights)

    def exponent_constant(self, colors: tuple[int, ...]) -> np.ndarray:
        """Every sample's log weight when segment k holds colors[k]
        throughout."""
        out = np.zeros(self.n)
        for held, _, segs in self.terms:
            for k, c in enumerate(colors):
                if held[c - 1]:
                    out += segs[:, k]
        return out

    def exponent_sample(self, s: int, step_colors: np.ndarray) -> float:
        """Sample s's log weight when step m holds color step_colors[m]."""
        out = 0.0
        for held, logs, _ in self.terms:
            mask = held[step_colors - 1]
            if mask.any():
                out += float(logs[s][mask].sum())
        return out


class _PathBatch:
    """One chunk of concatenated bridges from x_k to x_k, with everything
    the weight assembly needs precomputed and vectorized."""

    def __init__(self, spec: ExperimentSpec, xs: tuple[float, ...], n: int,
                 rng: np.random.Generator):
        self.spec = spec
        self.n = n
        self.dt = spec.resolved_dt()
        self.h = spec.resolved_h()
        # a common step width keeps the global step grid aligned
        self.seg_steps = spec.step_counts()
        self.total_steps = sum(self.seg_steps)
        self.seg_bounds = np.concatenate([[0], np.cumsum(self.seg_steps)])
        self.folded = []
        self.free = []
        for x, t, m in zip(xs, spec.ts, self.seg_steps):
            fold, free = sample_bridge_ensemble(spec.domain, x, x, t, self.dt, n,
                                                rng, return_free=True)
            self.folded.append(fold)
            self.free.append(free)
        # step values: left endpoints of every step, concatenated
        self.step_values = np.concatenate([f[:, :-1] for f in self.folded], axis=1)
        # bin range: realized values padded by the largest mollifier width,
        # clipped to the domain (the mu-norm integrates over I only)
        pad = 0
        for e in spec.eps_vector():
            if e > 0:
                pad = max(pad, int(np.ceil(e / self.h)) + 1)
        lo_bin = int(np.floor(self.step_values.min() / self.h)) - pad
        hi_bin = int(np.floor(self.step_values.max() / self.h)) + pad
        if spec.domain.case in (2, 3):
            lo_bin = max(lo_bin, 0)
        if spec.domain.case == 3:
            hi_bin = min(hi_bin, int(np.floor(spec.domain.theta / self.h)))
        self.bin_offset = lo_bin
        self.n_bins = hi_bin - lo_bin + 1
        idx = np.floor(self.step_values / self.h).astype(np.int64) - self.bin_offset
        self.step_bins = np.clip(idx, 0, self.n_bins - 1)
        # per-segment histograms of step counts
        self.seg_hist = np.zeros((n, len(xs), self.n_bins))
        for k in range(len(xs)):
            sl = slice(self.seg_bounds[k], self.seg_bounds[k + 1])
            flat = (np.arange(n)[:, None] * self.n_bins + idx[:, sl]).ravel()
            counts = np.bincount(flat, minlength=n * self.n_bins)
            self.seg_hist[:, k, :] = counts.reshape(n, self.n_bins)
        self.full_hist = self.seg_hist.sum(axis=1)
        self.boundary = BoundaryWeights(spec, self.folded, self.dt)
        self._prepare_potential()

    # -- potential ----------------------------------------------------------
    def _prepare_potential(self):
        spec = self.spec
        pot = spec.potential
        self.color_free_potential = pot.kind != "tabulated" or spec.color_symmetric()
        if self.color_free_potential:
            v = pot.values(1, self.step_values, spec.domain.r)
            self.v_int = v.sum(axis=1) * self.dt
        else:
            self.seg_v = [np.stack([pot.values(i + 1, f[:, :-1], spec.domain.r).sum(axis=1)
                                    * self.dt for i in range(spec.domain.r)])
                          for f in self.folded]

    def potential_integral_constant_colors(self, colors: tuple[int, ...]) -> np.ndarray:
        if self.color_free_potential:
            return self.v_int
        return sum(self.seg_v[k][c - 1] for k, c in enumerate(colors))

    def potential_integral_per_sample(self, s: int, step_colors: np.ndarray) -> float:
        if self.color_free_potential:
            return float(self.v_int[s])
        v = self.spec.potential.values(step_colors, self.step_values[s],
                                       self.spec.domain.r)
        return float(v.sum() * self.dt)

    # -- local-time norms ----------------------------------------------------
    def colored_norm2_constant(self, colors: tuple[int, ...]) -> np.ndarray:
        """sum_i ||L^(i)||_2^2 for constant segment colors, every sample."""
        r = self.spec.domain.r
        out = np.zeros(self.n)
        scale = (self.dt / self.h) ** 2 * self.h
        for i in range(1, r + 1):
            ks = [k for k, c in enumerate(colors) if c == i]
            if not ks:
                continue
            hist = self.seg_hist[:, ks, :].sum(axis=1)
            out += (hist**2).sum(axis=1) * scale
        return out

    def colored_hist(self, s: int, step_colors: np.ndarray) -> np.ndarray:
        """Step counts of sample s per color and bin, shape (r, n_bins)."""
        r = self.spec.domain.r
        flat = (step_colors - 1) * self.n_bins + self.step_bins[s]
        return np.bincount(flat, minlength=r * self.n_bins).reshape(r, self.n_bins)

    def colored_norm2_sample(self, s: int, step_colors: np.ndarray) -> float:
        counts = self.colored_hist(s, step_colors)
        return float((counts.astype(float) ** 2).sum() * (self.dt / self.h) ** 2 * self.h)

    def full_norm2(self) -> np.ndarray:
        scale = (self.dt / self.h) ** 2 * self.h
        return (self.full_hist**2).sum(axis=1) * scale

    def jump_values(self, s: int, times: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        """Z at the given global times for sample s, by exact conditional
        interpolation of the free path, then folding."""
        out = np.empty(len(times))
        starts = self.seg_bounds[:-1] * self.dt
        seg_of = np.minimum(np.searchsorted(starts, times, side="right") - 1,
                            len(self.spec.ts) - 1)
        for k in range(len(self.spec.ts)):
            mask = seg_of == k
            if not mask.any():
                continue
            local = times[mask] - starts[k]
            vals = interpolate_free(self.free[k][s], local, self.dt, rng)
            out[mask] = vals
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

    def add_batch(self, w: np.ndarray, scale: float):
        self.s += float(w.sum()) * scale
        self.s2 += float((w * scale) @ (w * scale))
        self.n += len(w)
        contrib = np.abs(w) * abs(scale)
        if len(w):
            self.max_abs = max(self.max_abs, float(contrib.max()))
            self.abs_sum += float(contrib.sum())

    def merge_counts(self, discarded: int):
        self.n_discarded += discarded


def _mollifier_kernel(eps: float, h: float) -> np.ndarray | None:
    """Discrete convolution kernel of the scaled bump on the bin grid."""
    if eps == 0.0:
        return None
    if eps < 2.0 * h:
        raise ValueError(f"mollification scale {eps} under-resolved by bin width {h}")
    from .noise_model import bump_scaled

    half = int(np.ceil(eps / h))
    kern = bump_scaled(np.arange(-half, half + 1) * h, eps) * h
    return kern / kern.sum()


def smooth_trace_moment(spec: ExperimentSpec, workers: int = 1) -> MomentEstimate:
    """Mixed trace moment of the mollified operator family.

    Every realized even jump count is expanded over all pairings; each
    pairing is weighted by the field constant and the product of twofold
    convolutions at the jump displacement.  Odd jump counts contribute
    zero; jump counts above n_max are discarded and reported.
    """
    zetas = spec.zeta_vector()
    if any(z <= 0 for z in zetas) and spec.upsilon2 > 0 and spec.domain.r > 1:
        raise ValueError("smooth route requires zeta > 0 for every factor")
    return _run_moment(spec, white=False, workers=workers)


def whitenoise_trace_moment(spec: ExperimentSpec, workers: int = 1) -> MomentEstimate:
    """Mixed trace moment of the white-noise operator via the singular
    jump process whose times sit on self-intersections of the frozen path."""
    if spec.eps is not None and any(e != 0 for e in spec.eps):
        raise ValueError("white-noise route has no mollification scales")
    if spec.zetas is not None and any(z != 0 for z in spec.zetas):
        raise ValueError("white-noise route has no mollification scales")
    return _run_moment(spec, white=True, workers=workers)


def _node_stats(args) -> tuple[int, float, float, int, int, float, float]:
    """Accumulated weight statistics for one starting-tuple node."""
    spec, white, node_idx, pat, xv, per_node = args
    stream = _STREAM_WHITE if white else _STREAM_SMOOTH
    acc = _Accumulator()
    chunk_size = max(64, min(per_node, int(_MAX_CHUNK_FLOATS
                                           // max(1, int(sum(spec.ts) / spec.resolved_dt())))))
    done = 0
    chunk_idx = 0
    while done < per_node:
        m = min(chunk_size, per_node - done)
        rng = derived_rng(spec.seed, stream, node_idx, chunk_idx)
        batch = _PathBatch(spec, tuple(xv), m, rng)
        if white:
            w, disc = _white_weights(spec, batch, pat, rng)
        else:
            w, disc = _smooth_weights(spec, batch, pat, rng)
        acc.add_batch(w, 1.0)
        acc.merge_counts(disc)
        done += m
        chunk_idx += 1
    return (node_idx, acc.s, acc.s2, acc.n, acc.n_discarded, acc.max_abs, acc.abs_sum)


def _run_moment(spec: ExperimentSpec, white: bool, workers: int = 1) -> MomentEstimate:
    xs, hq = start_quadrature(spec)
    patterns = color_patterns(spec)
    n = spec.n_factors
    nodes = [(pat, mult, xv) for pat, mult in patterns
             for xv in np.stack(np.meshgrid(*[xs] * n, indexing="ij"), -1).reshape(-1, n)]
    per_node = max(16, spec.n_paths // max(1, len(nodes)))

    tasks = [(spec, white, node_idx, pat, tuple(xv), per_node)
             for node_idx, (pat, _, xv) in enumerate(nodes)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_node_stats, tasks, chunksize=4))
        results.sort(key=lambda row: row[0])
    else:
        results = [_node_stats(t) for t in tasks]

    total = 0.0
    var = 0.0
    n_eff = 0
    n_disc = 0
    max_contrib = 0.0
    abs_contrib = 0.0
    warnings = []

    for (node_idx, s, s2, cnt, disc, max_abs, abs_sum), (pat, mult, xv) \
            in zip(results, nodes):
        pi_z = float(np.prod([transition_density(spec.domain, t, x, x)
                              for t, x in zip(spec.ts, xv)]))
        scale = mult * hq**n * pi_z
        node_n = max(cnt, 1)
        mean = s / node_n
        node_var = max(s2 / node_n - mean**2, 0.0)
        total += scale * mean
        var += scale**2 * node_var / node_n
        n_eff += cnt
        n_disc += disc
        max_contrib = max(max_contrib, max_abs * abs(scale) / node_n)
        abs_contrib += abs_sum * abs(scale) / node_n

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


def _smooth_weights(spec: ExperimentSpec, batch: _PathBatch,
                    colors: tuple[int, ...], rng: np.random.Generator):
    """Per-sample weights of the smooth estimator for one chunk."""
    r = spec.domain.r
    m = batch.n
    zetas = spec.zeta_vector()
    eps = spec.eps_vector()
    counts = walk_jump_counts(r, spec.ts, m, rng)
    totals = counts.sum(axis=1)
    prefactor = math.exp((r - 1) * sum(spec.ts))
    segments = tuple(zip(spec.ts, colors))

    kernels = [_mollifier_kernel(e, batch.h) for e in eps]
    weights = np.zeros(m)
    zero = totals == 0
    if zero.any():
        idx = np.flatnonzero(zero)
        expo = (-batch.potential_integral_constant_colors(colors)[idx]
                + spec.sigma2 / 2.0 * _smoothed_norm2_constant(batch, colors, kernels)[idx]
                + batch.boundary.exponent_constant(colors)[idx])
        weights[idx] = prefactor * np.exp(expo)
    discarded = 0
    for s in np.flatnonzero(~zero):
        n_jumps = int(totals[s])
        if n_jumps > spec.n_max:
            discarded += 1
            weights[s] = np.nan
            continue
        if n_jumps % 2 == 1:
            weights[s] = 0.0
            continue
        jp = draw_free_walk(segments, counts[s], r, rng)
        if jp.endpoint_colors() != list(colors):
            weights[s] = 0.0
            continue
        pair_sum = _matching_sum(spec, batch, s, jp, zetas, rng)
        if pair_sum == 0.0:
            weights[s] = 0.0
            continue
        step_colors = jp.color_at_steps(batch.dt, batch.total_steps)
        expo = (-batch.potential_integral_per_sample(s, step_colors)
                + spec.sigma2 / 2.0 * _smoothed_norm2_sample(batch, s, step_colors, kernels)
                + batch.boundary.exponent_sample(s, step_colors))
        weights[s] = prefactor * pair_sum * math.exp(expo)
    w = weights[~np.isnan(weights)]
    return w, discarded


def _matching_sum(spec: ExperimentSpec, batch: _PathBatch, s: int, jp: JumpPath,
                  zetas, rng: np.random.Generator) -> float:
    """Sum over pairings of the realized jumps, each weighted by the field
    constant and the product of convolution kernels at the displacements."""
    n_jumps = jp.n_jumps
    if n_jumps == 0:
        return 1.0
    if spec.upsilon2 == 0.0:
        return 0.0
    zvals = batch.jump_values(s, jp.times, rng)
    starts = np.concatenate([[0.0], np.cumsum(spec.ts)[:-1]])
    seg_of = np.minimum(np.searchsorted(starts, jp.times, side="right") - 1,
                        len(spec.ts) - 1)
    zeta_of = np.asarray(zetas)[seg_of]
    total = 0.0
    for p in _matchings(n_jumps, spec.n_max):
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


def _smoothed_norm2_constant(batch: _PathBatch, colors, kernels) -> np.ndarray:
    """||sum_k L_wk * bump_{eps_k}||_mu^2 for constant segment colors."""
    r = batch.spec.domain.r
    out = np.zeros(batch.n)
    mass = batch.dt / batch.h
    for i in range(1, r + 1):
        ks = [k for k, c in enumerate(colors) if c == i]
        if not ks:
            continue
        field = np.zeros((batch.n, batch.n_bins))
        for k in ks:
            part = batch.seg_hist[:, k, :] * mass
            if kernels[k] is not None:
                part = _convolve_rows(part, kernels[k])
            field += part
        out += (field**2).sum(axis=1) * batch.h
    return out


def _smoothed_norm2_sample(batch: _PathBatch, s: int, step_colors: np.ndarray,
                           kernels) -> float:
    r = batch.spec.domain.r
    mass = batch.dt / batch.h
    out = 0.0
    for i in range(1, r + 1):
        field = np.zeros(batch.n_bins)
        for k in range(len(batch.spec.ts)):
            sl = slice(batch.seg_bounds[k], batch.seg_bounds[k + 1])
            mask = step_colors[sl] == i
            if not mask.any():
                continue
            part = np.bincount(batch.step_bins[s, sl][mask],
                               minlength=batch.n_bins).astype(float) * mass
            if kernels[k] is not None:
                part = _convolve_rows(part[None, :], kernels[k])[0]
            field += part
        out += (field**2).sum() * batch.h
    return float(out)


def _convolve_rows(rows: np.ndarray, kern: np.ndarray) -> np.ndarray:
    from scipy.ndimage import convolve1d

    return convolve1d(rows, kern, axis=-1, mode="constant", cval=0.0)


@lru_cache(maxsize=None)
def _matchings(n: int, n_max: int):
    return tuple(enumerate_matchings(n, n_max=n_max))


def _white_weights(spec: ExperimentSpec, batch: _PathBatch,
                   colors: tuple[int, ...], rng: np.random.Generator):
    """Per-sample weights of the white-noise estimator for one chunk."""
    r = spec.domain.r
    m = batch.n
    l2 = batch.full_norm2()
    n_hats = singular_jump_counts(r, l2, rng)
    base = (r - 1) ** 2 / 2.0 * l2

    weights = np.zeros(m)
    zero = n_hats == 0
    if zero.any():
        idx = np.flatnonzero(zero)
        expo = (base[idx]
                + spec.sigma2 / 2.0 * batch.colored_norm2_constant(colors)[idx]
                - batch.potential_integral_constant_colors(colors)[idx]
                + batch.boundary.exponent_constant(colors)[idx])
        weights[idx] = np.exp(expo)
    discarded = 0
    segments = tuple((t, c) for t, c in zip(spec.ts, colors))
    for s in np.flatnonzero(~zero):
        n_hat = int(n_hats[s])
        if n_hat > spec.n_max:
            discarded += 1
            weights[s] = np.nan
            continue
        sampler = SelfIntersectionSampler(batch.step_bins[s], batch.full_hist[s], batch.dt)
        jp = sampler.sample(n_hat, segments, r, rng)
        if jp.endpoint_colors() != list(colors):
            weights[s] = 0.0
            continue
        c = constant_c(spec.kind, jp.jumps, jp.matching)
        if c == 0.0:
            weights[s] = 0.0
            continue
        moment_factor = spec.upsilon2 ** (n_hat / 2.0) * c
        step_colors = jp.color_at_steps(batch.dt, batch.total_steps)
        expo = (base[s]
                + spec.sigma2 / 2.0 * batch.colored_norm2_sample(s, step_colors)
                - batch.potential_integral_per_sample(s, step_colors)
                + batch.boundary.exponent_sample(s, step_colors))
        weights[s] = moment_factor * math.exp(expo)
    w = weights[~np.isnan(weights)]
    return w, discarded


# --------------------------------------------------------------------------
# regular-noise kernel estimator
# --------------------------------------------------------------------------

def fk_kernel_regular(spec: ExperimentSpec, t: float, a: tuple[int, float],
                      b: tuple[int, float], noise: NoiseField, eps: float,
                      n_paths: int | None = None) -> FieldEstimate:
    """Kernel of the mollified-noise semigroup at (a, b), estimated from
    conditioned paths against one frozen noise realization.

    The walk's endpoint conditioning is an indicator on free walks; the
    jump-product functional multiplies mollified off-diagonal noise values
    at the jump points with sign (-1)^N and the rate normalization.
    """
    if eps <= 0:
        raise ValueError("regular-noise kernel needs eps > 0")
    if t <= 0:
        raise ValueError("t must be positive")
    i0, x0 = int(a[0]), float(a[1])
    j0, y0 = int(b[0]), float(b[1])
    r = spec.domain.r
    n_paths = n_paths or spec.n_paths
    dt = spec.dt if spec.dt is not None else 1e-3 * t
    n_steps = max(1, int(round(t / dt)))
    dt = t / n_steps
    profiles = mollified_profiles(noise, eps) if noise is not None else None
    pidx = pair_index(r) if noise is not None else None
    prefactor = math.exp((r - 1) * t)

    comp_sum = np.zeros(4)
    comp_sq = np.zeros(4)
    chunk_size = max(64, int(_MAX_CHUNK_FLOATS // n_steps))
    done = 0
    chunk_idx = 0
    while done < n_paths:
        mchunk = min(chunk_size, n_paths - done)
        rng = derived_rng(spec.seed, _STREAM_FK, 0, chunk_idx)
        fold, free = sample_bridge_ensemble(spec.domain, x0, y0, t, dt, mchunk, rng,
                                            return_free=True)
        vals = fold[:, :-1]
        counts = walk_jump_counts(r, (t,), mchunk, rng)[:, 0]
        v_of_color = _diag_potential_table(spec, noise, profiles, pidx, vals, dt)
        boundary = BoundaryWeights(spec, [fold], dt)
        for s in range(mchunk):
            w = _fk_single(spec, noise, profiles, pidx, t, dt, i0, j0, free[s], vals[s],
                           int(counts[s]), v_of_color, s, boundary, rng)
            comps = np.array(w.components)
            comp_sum += comps
            comp_sq += comps**2
        done += mchunk
        chunk_idx += 1
    mean = prefactor * comp_sum / n_paths
    var = np.maximum(prefactor**2 * comp_sq / n_paths - mean**2, 0.0)
    se = float(np.sqrt(var.sum() / n_paths))
    pi_z = transition_density(spec.domain, t, x0, y0)
    value = from_components(spec.kind, pi_z * mean[:N_COMPONENTS[spec.kind]])
    return FieldEstimate(value=value, stderr=pi_z * se, n_paths=n_paths)


def _diag_potential_table(spec, noise, profiles, pidx, vals, dt):
    """int S per color: V plus the mollified diagonal noise, summed over
    step values; shape (r, n_samples)."""
    r = spec.domain.r
    out = np.empty((r, vals.shape[0]))
    for i in range(1, r + 1):
        v = spec.potential.values(i, vals, r)
        if noise is not None:
            centers = noise.cell_centers()
            prof = profiles[pidx[(i, i)], 0]
            v = v + np.sqrt(spec.sigma2) * np.interp(vals, centers, prof)
        out[i - 1] = v.sum(axis=1) * dt
    return out


def _fk_single(spec, noise, profiles, pidx, t, dt, i0, j0, free_row, vals_row,
               n_jumps, v_of_color, s, boundary, rng):
    from .stochastic_paths import fold_to_domain

    r = spec.domain.r
    jp = draw_free_walk(((t, i0),), (n_jumps,), r, rng)
    if jp.endpoint_colors() != [j0]:
        return FieldElement(spec.kind, 0.0)
    step_colors = jp.color_at_steps(dt, len(vals_row))
    if len(set(step_colors.tolist())) == 1:
        s_int = v_of_color[i0 - 1, s]
    else:
        vs = np.empty(len(vals_row))
        for i in np.unique(step_colors):
            mask = step_colors == i
            v = spec.potential.values(i, vals_row[mask], r)
            if noise is not None:
                centers = noise.cell_centers()
                prof = profiles[pidx[(int(i), int(i))], 0]
                v = v + np.sqrt(spec.sigma2) * np.interp(vals_row[mask], centers, prof)
            vs[mask] = v
        s_int = vs.sum() * dt
    expo = -s_int + boundary.exponent_sample(s, step_colors)
    weight = math.exp(expo) * (-1.0) ** n_jumps
    # ordered product of off-diagonal noise at the jump points
    prod = one(spec.kind)
    if n_jumps:
        zvals = fold_to_domain(interpolate_free(free_row, jp.times, dt, rng), spec.domain)
        centers = noise.cell_centers()
        norm = UNIT_NORMALIZATION[spec.kind] * np.sqrt(spec.upsilon2)
        for (frm, to), z in zip(jp.jumps, zvals):
            lo, hi = min(frm, to), max(frm, to)
            comps = np.array([np.interp(z, centers, profiles[pidx[(lo, hi)], c])
                              for c in range(4)]) * norm
            if frm > to:
                comps[1:] *= -1.0
            prod = mul(prod, from_components(spec.kind, comps))
    return prod.scale(weight)


# --------------------------------------------------------------------------
# covariance experiment and extrapolation helpers
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
    from dataclasses import replace

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


def richardson_extrapolate(values, stderrs) -> tuple[float, float]:
    """Zero-scale limit from three estimates at halving scales.

    The decay order is fitted from the two successive differences and
    clamped to [0.5, 3]; the error bar propagates the two finest values
    through the extrapolation weights at the fitted order.
    """
    v1, v2, v3 = values
    d1, d2 = v1 - v2, v2 - v3
    if d2 != 0 and d1 / d2 > 1.1:
        p = math.log2(d1 / d2)
    else:
        p = 1.0
    p = min(max(p, 0.5), 3.0)
    a = 1.0 / (2.0**p - 1.0)
    f0 = v3 - a * (v2 - v3)
    se = math.sqrt((a * stderrs[1]) ** 2 + ((1 + a) * stderrs[2]) ** 2)
    return f0, se
