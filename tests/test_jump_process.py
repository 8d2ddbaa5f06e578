import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from scipy.stats import chi2

from mvsao import jump_process
from mvsao.combinatorics import constant_c
from mvsao.estimators import (
    _PathBatch,
    smooth_trace_moment,
    whitenoise_trace_moment,
)
from mvsao.experiment import DIRICHLET, ExperimentSpec
from mvsao.jump_process import (
    JumpBatch,
    draw_jumps_along,
    free_walk_times,
    singular_jump_counts,
    singular_walk_times,
    walk_jump_counts,
)
from mvsao.stochastic_paths import DomainConfig, log_wall_factor, sample_bridge_ensemble
from walk_reference import JumpPath, SelfIntersectionSampler, draw_free_walk

HALF = DomainConfig(case=2)
UNIT = DomainConfig(case=3, theta=1.0)


def frozen_path(seed=0, t=1.0, dt=1e-3, dom=None, x=0.2, y=0.4):
    """One bridge of Z on the grid of step dt, as a 1-d array."""
    return sample_bridge_ensemble(dom or UNIT, x, y, t, dt, 1, np.random.default_rng(seed))[0]


def free_walks(segments, seg_counts, r, rng):
    """The uniform walks with the given per-segment jump counts."""
    return draw_jumps_along(segments, r, *free_walk_times(segments, seg_counts, rng), rng)


def walks(r, segments, n, rng):
    """n uniform walks, their jump counts drawn as the estimators draw them."""
    segments = tuple(segments)
    return free_walks(segments, walk_jump_counts(r, [t for t, _ in segments], n, rng), r, rng)


def as_path(jumps, i):
    """Row i of a JumpBatch as a reference JumpPath."""
    lo, hi = jumps.ptr[i], jumps.ptr[i + 1]
    return JumpPath(segments=jumps.segments, times=jumps.times[lo:hi],
                    jumps=list(zip(jumps.frm[lo:hi].tolist(), jumps.to[lo:hi].tolist())))


def walk(r, segments, rng):
    """One uniform walk, a batch of one, as a reference JumpPath."""
    return as_path(walks(r, segments, 1, rng), 0)


def poisson_product(jumps, values, n):
    """Per row of n walks, the product of values at the rows' jumps (one
    value per jump, all positive)."""
    row = np.repeat(np.arange(n), np.diff(jumps.ptr))
    return np.exp(np.bincount(row, weights=np.log(values), minlength=n))


def step_bins(path, h):
    """Bins of width h of a frozen path's steps (left ends), numbered from
    the lowest one visited, and the step count of each bin."""
    idx = np.floor(path[:-1] / h).astype(np.int64)
    idx -= idx.min()
    return idx, np.bincount(idx)


def bin_walks(path, h, counts, dt, segments, r, rng):
    """The singular walks with counts[i] jumps on row i, every row the same
    frozen path binned at width h."""
    bins, hist = step_bins(path, h)
    m = len(counts)
    bounds = np.concatenate([[0], np.cumsum([round(t / dt) for t, _ in segments])])
    drawn = singular_walk_times(np.tile(bins, (m, 1)), np.tile(hist, (m, 1)), np.asarray(counts),
                                dt, bounds, rng)
    return draw_jumps_along(tuple(segments), r, *drawn, rng)


def matched_pairs(jumps, i):
    """Row i's matching in sorted-time indexing, as reference sample() gives it."""
    return jump_process.JumpPath(jumps, i).matching


def exponent_at(batch, s, step_colors):
    """Sample s's exponent_steps when step m holds color step_colors[m]."""
    return batch.exponent_steps(np.array([s]), np.asarray(step_colors, dtype=np.uint8)[None])[0]


def norm2_at(batch, s, step_colors):
    """Sample s's norm2_steps when step m holds color step_colors[m]."""
    return batch.norm2_steps(np.array([s]), np.asarray(step_colors, dtype=np.uint8)[None])[0]


def local_time_norm2(path, dt, h):
    """||L||_2^2 of the binned occupation density of a frozen path."""
    masses = step_bins(path, h)[1] * (dt / h)
    return float(np.sum(masses**2) * h)


def path_sampler(path, dt, h):
    """The self-intersection sampler built from a frozen path's bins."""
    return SelfIntersectionSampler(*step_bins(path, h), dt)


def frozen_batch(spec, folded, diagonal=None):
    """spec's _PathBatch over the given folded paths, one (n, steps_k + 1)
    array per segment, which stand in for its bridge draws; spec's step
    counts must match them."""
    draws = iter(folded)
    with mock.patch("mvsao.estimators.sample_bridge_ensemble", lambda *a, **kw: next(draws)):
        return _PathBatch(spec, tuple(f[0, 0] for f in folded), len(folded[0]), None,
                          diagonal=diagonal)


def frozen_weights(path, dt, domain, alphas, betas=None, cuts=()):
    """The batch of one frozen path, split into segments at the given step
    indices; its potential is zero, so its exponent is the wall logs."""
    bounds = [0, *cuts, len(path) - 1]
    spec = ExperimentSpec(domain=domain, kind="R", sigma2=0.0, upsilon2=0.0,
                          ts=tuple((hi - lo) * dt for lo, hi in zip(bounds, bounds[1:])),
                          seed=0, alphas=alphas, betas=betas, dt=dt,
                          x_max=None if domain.case == 3 else 1.0)
    return frozen_batch(spec, [path[None, lo:hi + 1] for lo, hi in zip(bounds, bounds[1:])])


def colored_hist(batch, s, step_colors):
    """Sample s's step counts per color and bin of a batch, shape
    (r, n_bins), when step m holds color step_colors[m]."""
    r = batch.spec.domain.r
    flat = (np.asarray(step_colors, dtype=np.int64) - 1) * batch.n_bins + batch.step_bins[s]
    return np.bincount(flat, minlength=r * batch.n_bins).reshape(r, batch.n_bins)


def hist_norm2(batch, hist):
    """The white norm of step-count histograms: sum of squared counts times
    (dt/h)^2 h, in norm2_sample's order of operations."""
    return float((hist.astype(float) ** 2).sum() * (batch.dt / batch.h) ** 2 * batch.h)


def small_batch(r, ts, seed, n=3):
    spec = ExperimentSpec(domain=DomainConfig(case=3, theta=1.0, r=r), kind="R",
                          sigma2=0.5, upsilon2=0.5, ts=ts, seed=seed,
                          alphas=(0.0,) * r, betas=(0.0,) * r)
    return _PathBatch(spec, (0.3,) * len(ts), n, np.random.default_rng(seed))


class TestSampleU:
    def test_r1_never_jumps(self):
        rng = np.random.default_rng(0)
        assert not walk_jump_counts(1, (1.0,), 100, rng).any()
        assert walk(1, [(1.0, 1)], rng).n_jumps == 0
        assert len(walks(1, [(1.0, 1), (0.5, 1)], 50, rng).times) == 0

    def test_poisson_zero_probability(self):
        rng = np.random.default_rng(1)
        n = 100_000
        p = np.count_nonzero(walk_jump_counts(2, (1.0,), n, rng) == 0) / n
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p - np.exp(-1.0)) <= 3 * se

    def test_mean_jump_count(self):
        rng = np.random.default_rng(2)
        n = 40_000
        counts = walk_jump_counts(3, (2.0,), n, rng)[:, 0]
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - 4.0) <= 3 * se

    def test_jumps_chain_within_segment(self):
        rng = np.random.default_rng(3)
        batch = walks(4, [(3.0, 2), (2.0, 4)], 20, rng)
        for i in range(20):
            path = as_path(batch, i)
            starts = path.segment_starts
            prev_color = None
            assert np.all(np.diff(path.times) >= 0)
            for tau, (frm, to) in zip(path.times, path.jumps):
                assert frm != to
                seg = int(np.searchsorted(starts, tau, side="right")) - 1
                if prev_color is not None and prev_seg == seg:
                    assert frm == prev_color
                else:
                    assert frm == path.segments[seg][1]
                prev_color, prev_seg = to, seg

    def test_segment_counts_uncorrelated(self):
        rng = np.random.default_rng(4)
        n = 20_000
        counts = walk_jump_counts(2, (1.0, 1.0), n, rng)
        corr = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n)
        p = free_walks(((1.0, 1), (1.0, 2)), counts[:1], 2, rng)
        assert np.count_nonzero(p.times < 1.0) == counts[0, 0]


class TestEndpointIndicator:
    def test_zero_jump_path(self):
        path = JumpPath(segments=((1.0, 1),), times=np.zeros(0), jumps=[])
        assert path.endpoint_colors() == [1]
        batch = free_walks(((1.0, 1), (0.5, 2)), np.zeros((3, 2), dtype=np.int64), 2,
                           np.random.default_rng(5))
        assert batch.endpoint_colors().tolist() == [[1, 2]] * 3

    def test_two_color_parity(self):
        rng = np.random.default_rng(6)
        batch = walks(2, [(1.0, 1)], 200, rng)
        odd = np.diff(batch.ptr) % 2 == 1
        assert (batch.endpoint_colors()[:, 0] == np.where(odd, 2, 1)).all()

    def test_return_probability(self):
        rng = np.random.default_rng(7)
        n = 100_000
        p = np.mean(walks(2, [(1.0, 1)], n, rng).endpoint_colors()[:, 0] == 1)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p - (1 + np.exp(-2.0)) / 2) <= 3 * se


class TestStepColors:
    """step_colors, the color held over each step, agrees with the jump
    sequence, with endpoint_colors and with the reference color_at_steps."""

    @pytest.mark.parametrize("jumps,last", [([(1, 2), (2, 1)], 1), ([(1, 3), (3, 2)], 2),
                                            ([(1, 2), (2, 3)], 3)])
    def test_tied_jumps_apply_in_sequence_order(self, jumps, last):
        path = JumpPath(segments=((1.0, 1),), times=np.array([0.5, 0.5]), jumps=jumps)
        assert path.color_at_steps(0.1, 10).tolist() == [1] * 5 + [last] * 5
        assert path.endpoint_colors() == [last]
        (a, b), (c, d) = jumps
        batch = JumpBatch(segments=((1.0, 1),), ptr=np.array([0, 2]),
                          times=np.array([0.5, 0.5]), seg=np.zeros(2, dtype=np.int64),
                          frm=np.array([a, c]), to=np.array([b, d]), partner=None)
        got = batch.step_colors(np.array([0]), 0.1, np.array([0, 10]))
        assert got.dtype == np.uint8 and got.tolist() == [[1] * 5 + [last] * 5]
        assert batch.endpoint_colors().tolist() == [[last]]

    def test_singular_paths_end_in_endpoint_colors(self):
        """The white route's jump times sit on the step grid, so ties are
        common; each segment's last step holds its endpoint color, and the
        step colors are those of the reference."""
        dt = 1e-3
        path = frozen_path(seed=9, t=0.4, dt=dt)
        segments = ((0.2, 1), (0.2, 3))
        jumps = bin_walks(path, 0.02, np.full(300, 8), dt, segments, 3,
                          np.random.default_rng(10))
        steps = jumps.step_colors(np.arange(300), dt, np.array([0, 200, 400]))
        np.testing.assert_array_equal(steps[:, [199, 399]], jumps.endpoint_colors())
        ties = 0
        for i in range(300):
            ref = as_path(jumps, i)
            ties += len(np.unique(ref.times)) < ref.n_jumps
            assert steps[i].tolist() == ref.color_at_steps(dt, 400).tolist()
            assert jumps.endpoint_colors()[i].tolist() == ref.endpoint_colors()
        assert ties > 20

    @pytest.mark.parametrize("r, dtype", [(3, np.uint8), (127, np.uint8), (300, np.uint16)])
    def test_free_walks_match_reference_colors(self, r, dtype):
        """Free walks over three segments, with jumps near the segment ends;
        many colors widen the step colors."""
        dt = 0.01
        segments = ((0.3, 2), (0.2, 1), (0.5, 3))
        rng = np.random.default_rng(12)
        jumps = free_walks(segments, rng.poisson(3.0, (400, 3)), r, rng)
        steps = jumps.step_colors(np.arange(400), dt, np.array([0, 30, 50, 100]))
        assert steps.dtype == dtype
        for i in range(400):
            ref = as_path(jumps, i)
            assert steps[i].tolist() == ref.color_at_steps(dt, 100).tolist()
            assert jumps.endpoint_colors()[i].tolist() == ref.endpoint_colors()


class TestColoredLocalTime:
    """Per-color step histograms of a batch, built from its step bins, and
    the white norm that norm2_steps computes from them."""

    def test_r1_equals_total(self):
        batch = small_batch(1, (1.0,), 20)
        steps = np.ones(batch.total_steps, dtype=np.int64)
        hist = colored_hist(batch, 0, steps)
        # the batch's paths are the first draws of its rng
        path = sample_bridge_ensemble(UNIT, 0.3, 0.3, 1.0, batch.dt, batch.n,
                                      np.random.default_rng(20))[0]
        idx = np.floor(path[:-1] / batch.h).astype(np.int64) - batch.bin_offset
        np.testing.assert_array_equal(hist[0], np.bincount(idx, minlength=batch.n_bins))
        assert norm2_at(batch, 0, steps) == hist_norm2(batch, hist)
        assert batch.norm2_constant((1,))[0] == pytest.approx(hist_norm2(batch, hist),
                                                              rel=1e-15)

    def test_unvisited_color_zero(self):
        batch = small_batch(3, (1.0,), 21)
        steps = np.full(batch.total_steps, 2)
        hist = colored_hist(batch, 1, steps)
        assert hist[0].sum() == 0 and hist[2].sum() == 0
        # one color throughout: the colored norm is the color-blind one
        assert norm2_at(batch, 1, steps) == hist_norm2(batch, batch.full_hist[1])
        np.testing.assert_array_equal(batch.norm2_constant((2,)), batch.norm2_constant((1,)))

    def test_color_occupation_sums(self):
        rng = np.random.default_rng(8)
        batch = small_batch(3, (1.0, 1.0), 22)
        jumps = walks(3, [(1.0, 1), (1.0, 3)], 1, rng)
        colors = jumps.step_colors(np.array([0]), batch.dt, batch.seg_bounds)[0]
        hist = colored_hist(batch, 2, colors)
        assert hist.sum() * batch.dt == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(hist.sum(axis=0), batch.full_hist[2])
        assert norm2_at(batch, 2, colors) == hist_norm2(batch, hist)


class TestBoundaryTerm:
    """The wall logs of a batch's exponent on frozen paths."""

    def test_case1_zero(self):
        path = frozen_path(dom=DomainConfig(case=1), x=0.0, y=0.0)
        bw = frozen_weights(path, 1e-3, DomainConfig(case=1), (1.5,))
        assert bw.exponent_constant((1,))[0] == 0.0
        assert exponent_at(bw, 0, np.ones(len(path) - 1, dtype=np.int64)) == 0.0

    def test_zero_weights(self):
        path = frozen_path(dom=HALF, x=0.05, y=0.05)
        bw = frozen_weights(path, 1e-3, DomainConfig(case=2, r=2), (0.0, 0.0))
        assert bw.exponent_constant((2,))[0] == 0.0
        assert exponent_at(bw, 0, np.full(len(path) - 1, 2)) == 0.0

    def test_r1_matches_scalar(self):
        path = frozen_path(dom=HALF, x=0.02, y=0.05)
        want = log_wall_factor(path[:-1], path[1:], 1e-3, 0.7).sum()
        bw = frozen_weights(path, 1e-3, HALF, (0.7,))
        assert want > 0
        assert bw.exponent_constant((1,))[0] == pytest.approx(want, rel=1e-12)
        assert exponent_at(bw, 0, np.ones(len(path) - 1, dtype=np.int64)) == pytest.approx(
            want, rel=1e-12)

    def test_dirichlet_kill(self):
        # a Dirichlet color on a path that touches the wall gets weight 0
        path = frozen_path(dom=HALF, x=0.0, y=0.01, dt=1e-4)
        with np.errstate(divide="ignore"):
            bw = frozen_weights(path, 1e-4, DomainConfig(case=2, r=2), (0.7, DIRICHLET))
            assert np.exp(bw.exponent_constant((2,)))[0] == 0.0
            colors = np.ones(len(path) - 1, dtype=np.int64)
            colors[:10] = 2
            assert math.exp(exponent_at(bw, 0, colors)) == 0.0
        assert np.isfinite(bw.exponent_constant((1,))[0])

    def test_colored_split_sums_to_total(self):
        path = frozen_path(dom=UNIT, x=0.02, y=0.95, dt=1e-4)
        colors = 1 + (np.arange(len(path) - 1) // 7) % 2
        dom = DomainConfig(case=3, theta=1.0, r=2)
        split = [exponent_at(frozen_weights(path, 1e-4, dom, a, (0.0, 0.0)), 0, colors)
                 for a in ((1.0, 0.0), (0.0, 1.0))]
        total = frozen_weights(path, 1e-4, dom, (1.0, 1.0), (0.0, 0.0)).exponent_constant((1,))[0]
        assert total > 0
        assert sum(split) == pytest.approx(total, abs=1e-12)


class TestSelfIntersectionSampler:
    def test_constant_path_single_bin(self):
        jumps = bin_walks(np.full(101, 0.35), 0.1, [2], 0.01, ((1.0, 1),), 2,
                          np.random.default_rng(10))
        assert len(jumps.times) == 2
        assert ((0.0 <= jumps.times) & (jumps.times < 1.0)).all()

    def test_pairs_share_bin(self):
        path = frozen_path(dt=1e-3)
        h = np.sqrt(1e-3)
        jumps = bin_walks(path, h, [1000], 1e-3, ((1.0, 1),), 2, np.random.default_rng(11))
        steps = np.rint(jumps.times / 1e-3).astype(int)
        z1, z2 = path[steps], path[steps[jumps.partner]]
        assert (np.abs(z1 - z2) <= h).all()

    def test_bin_marginal_matches_mass_squared(self):
        path = frozen_path(dt=2e-3)
        h = 0.1
        n = 100_000
        jumps = bin_walks(path, h, [2 * n], 2e-3, ((1.0, 1),), 2, np.random.default_rng(12))
        bins_of, counts = step_bins(path, h)
        first = np.flatnonzero(np.arange(2 * n) < jumps.partner)
        bins = bins_of[np.rint(jumps.times[first] / 2e-3).astype(int)]
        probs = counts**2 / np.sum(counts**2)
        for b, p in enumerate(probs):
            if p == 0:
                continue
            emp = np.count_nonzero(bins == b) / n
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) <= 4 * se + 1e-12

    def test_bin_draws_equal_generator_choice(self):
        """The reference sampler's bin draw is rng.choice's."""
        sampler = path_sampler(frozen_path(dt=1e-3), 1e-3, h=0.02)
        p = sampler.bin_probs
        a, b = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(10_000):
            bin_a = sampler.sample_pair(a)[2]
            assert bin_a == b.choice(len(p), p=p)
            b.integers(0, 2, size=2)  # the two step picks of sample_pair
        assert a.random() == b.random()

    def test_si_times_indexing(self):
        path = frozen_path(dt=1e-3)
        jumps = bin_walks(path, 0.05, [4, 0, 2], 1e-3, ((1.0, 1),), 2, np.random.default_rng(13))
        assert jumps.ptr.tolist() == [0, 4, 4, 6]
        assert len(matched_pairs(jumps, 0)) == 2 and matched_pairs(jumps, 1) == ()


def chi2_pvalue(a, b):
    """p-value of the chi-square test that two equal-sized samples of
    hashable outcomes come from one law; outcomes seen fewer than 10 times
    in both samples together are pooled into one cell."""
    ca, cb = Counter(a), Counter(b)
    cells = [(ca[k], cb[k]) for k in set(ca) | set(cb)]
    rare = [c for c in cells if sum(c) < 10]
    cells = [c for c in cells if sum(c) >= 10] + [tuple(map(sum, zip(*rare)))] * bool(rare)
    stat = sum((x - y) ** 2 / (x + y) for x, y in cells)
    return chi2.sf(stat, len(cells) - 1) if len(cells) > 1 else 1.0


# frozen step bins of 8 steps of width 1/8 over two segments of 1/2: bins
# with two or three steps, so that both times of a pair often share a step
FROZEN_BINS = np.array([0, 1, 1, 2, 0, 1, 2, 2])
FROZEN_DT = 0.125


def outcomes(times, jumps, matching, segments):
    """What the law comparisons read off one drawn jump path."""
    ref = JumpPath(segments=segments, times=np.asarray(times), jumps=jumps)
    accepted = ref.endpoint_colors() == [c for _, c in segments]
    same_step = tuple(sorted(times[a] == times[b] for a, b in matching))
    weights = tuple(round(constant_c(kind, jumps, matching), 12) if accepted else None
                    for kind in ("R", "C", "H"))
    steps = tuple(int(round(t / FROZEN_DT)) for t in times)
    return dict(matching=(tuple(sorted(matching)), same_step), colors=(tuple(jumps), accepted),
                weights=weights, steps=steps)


class TestBatchedDrawsInLaw:
    """At fixed seeds, the batched draws and the per-sample reference draws
    (walk_reference) give the same joint frequencies, by chi-square: the
    matching in sorted-time order with the pairs whose two times share a
    step, the jump color sequence with endpoint acceptance, the pairing
    weights over R, C and H, and the steps."""

    N = 12_000

    @pytest.mark.parametrize("r", [2, 3])
    def test_singular_draws_match_reference(self, r):
        segments = ((0.5, 1), (0.5, r))
        hist = np.bincount(FROZEN_BINS)
        sampler = SelfIntersectionSampler(FROZEN_BINS, hist, FROZEN_DT)
        rng = np.random.default_rng(100 + r)
        ref = []
        for _ in range(self.N):
            hat = sampler.sample(4, segments, r, rng)
            ref.append(outcomes(hat.times.tolist(), hat.jumps, hat.matching, segments))
        rng = np.random.default_rng(200 + r)
        drawn = singular_walk_times(np.tile(FROZEN_BINS, (self.N, 1)), np.tile(hist, (self.N, 1)),
                                    np.full(self.N, 4), FROZEN_DT, np.array([0, 4, 8]), rng)
        jumps = draw_jumps_along(segments, r, *drawn, rng)
        got = []
        for i in range(self.N):
            path = as_path(jumps, i)
            got.append(outcomes(path.times.tolist(), path.jumps, matched_pairs(jumps, i),
                                segments))
        assert any(any(o["matching"][1]) for o in got)
        for key in ("matching", "colors", "weights", "steps"):
            p = chi2_pvalue([o[key] for o in ref], [o[key] for o in got])
            assert p > 1e-3, (key, p)

    @pytest.mark.parametrize("r", [2, 3])
    def test_free_walks_match_reference(self, r):
        segments = ((0.5, 1), (0.25, r))
        counts = walk_jump_counts(r, (0.5, 0.25), self.N, np.random.default_rng(300 + r))
        rng = np.random.default_rng(400 + r)
        ref = [draw_free_walk(segments, c, r, rng) for c in counts]
        jumps = free_walks(segments, counts, r, np.random.default_rng(500 + r))
        got = [as_path(jumps, i) for i in range(self.N)]

        def colors(path):
            return tuple(path.jumps), path.endpoint_colors() == [1, r]

        def quarter(path):
            """The quarter of its segment each time falls in."""
            return tuple(np.floor(4 * np.where(path.times < 0.5, path.times / 0.5,
                                               (path.times - 0.5) / 0.25)).astype(int))

        for key in (colors, quarter):
            p = chi2_pvalue([key(w) for w in ref], [key(w) for w in got])
            assert p > 1e-3, (key.__name__, p)


class TestSampleHatU:
    def test_r1_degenerate(self):
        rng = np.random.default_rng(14)
        path = frozen_path()
        norm2 = local_time_norm2(path, 1e-3, 0.05)
        assert not singular_jump_counts(1, np.full(100, norm2), rng).any()
        jumps = bin_walks(path, 0.05, [0], 1e-3, ((1.0, 1),), 1, rng)
        assert len(jumps.times) == 0 and matched_pairs(jumps, 0) == ()

    def test_mean_jump_count(self):
        rng = np.random.default_rng(15)
        path = frozen_path(dt=1e-3)
        lam2 = local_time_norm2(path, 1e-3, np.sqrt(1e-3))
        n = 30_000
        counts = singular_jump_counts(2, np.full(n, lam2), rng)  # (r-1)^2 ||L||^2, r = 2
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - lam2) <= 3 * se

    def test_matching_structure_and_bin_coincidence(self):
        rng = np.random.default_rng(16)
        path = frozen_path(dt=1e-3)
        h = np.sqrt(1e-3)
        norm2 = np.full(400, local_time_norm2(path, 1e-3, h))
        counts = singular_jump_counts(3, norm2, rng)
        counts[counts > 20] = 0
        jumps = bin_walks(path, h, counts, 1e-3, ((0.5, 1), (0.5, 2)), 3, rng)
        assert np.count_nonzero(counts) > 10
        for i in range(len(counts)):
            lo, hi = jumps.ptr[i], jumps.ptr[i + 1]
            times = jumps.times[lo:hi]
            assert np.all(np.diff(times) >= 0)
            flat = sorted(k for pair in matched_pairs(jumps, i) for k in pair)
            assert flat == list(range(hi - lo))
            # the matching pairs steps of one bin, in sorted-time indexing
            for l1, l2 in matched_pairs(jumps, i):
                z1 = path[int(round(times[l1] / 1e-3))]
                z2 = path[int(round(times[l2] / 1e-3))]
                assert abs(z1 - z2) <= h

    @pytest.mark.parametrize("estimate, zetas", [(whitenoise_trace_moment, None),
                                                 (smooth_trace_moment, (0.1,))],
                             ids=["white", "smooth"])
    def test_discard_flag(self, estimate, zetas):
        # jump counts above n_max are discarded and counted, never truncated
        spec = ExperimentSpec(domain=DomainConfig(case=3, theta=1.0, r=2), kind="R",
                              sigma2=0.5, upsilon2=0.5, ts=(0.5,), seed=17,
                              alphas=(0.0, 0.0), betas=(0.0, 0.0), zetas=zetas,
                              n_paths=200, n_quad=2, n_max=0)
        est = estimate(spec)
        assert est.n_discarded > 0
        assert est.n_paths + est.n_discarded == 200
