import copy
import math
from unittest import mock

import numpy as np
import pytest

from mvsao.combinatorics import random_matching
from mvsao.estimators import (
    _PathBatch,
    smooth_trace_moment,
    whitenoise_trace_moment,
)
from mvsao.experiment import DIRICHLET, ExperimentSpec
from mvsao.jump_process import (
    JumpPath,
    SelfIntersectionSampler,
    draw_free_walk,
    singular_jump_counts,
    walk_jump_counts,
)
from mvsao.stochastic_paths import DomainConfig, log_wall_factor, sample_bridge_ensemble

HALF = DomainConfig(case=2)
UNIT = DomainConfig(case=3, theta=1.0)


def frozen_path(seed=0, t=1.0, dt=1e-3, dom=None, x=0.2, y=0.4):
    """One bridge of Z on the grid of step dt, as a 1-d array."""
    return sample_bridge_ensemble(dom or UNIT, x, y, t, dt, 1, np.random.default_rng(seed))[0]


def walk(r, segments, rng):
    """One uniform walk, its jump counts drawn as the estimators draw them."""
    segments = tuple(segments)
    counts = walk_jump_counts(r, [t for t, _ in segments], 1, rng)[0]
    return draw_free_walk(segments, counts, r, rng)


def step_bins(path, h):
    """Bins of width h of a frozen path's steps (left ends), numbered from
    the lowest one visited, and the step count of each bin."""
    idx = np.floor(path[:-1] / h).astype(np.int64)
    idx -= idx.min()
    return idx, np.bincount(idx)


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
                          diagonal=diagonal, bins=False)


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
    flat = (step_colors - 1) * batch.n_bins + batch.step_bins[s].astype(np.int64)
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
        path = walk(4, [(3.0, 2), (2.0, 4)], rng)
        starts = path.segment_starts
        prev_color = None
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
        p = draw_free_walk(((1.0, 1), (1.0, 2)), counts[0], 2, rng)
        assert np.count_nonzero(p.times < 1.0) == counts[0, 0]


class TestEndpointIndicator:
    def test_zero_jump_path(self):
        path = JumpPath(segments=((1.0, 1),), times=np.zeros(0), jumps=[])
        assert path.endpoint_colors() == [1]

    def test_two_color_parity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            path = walk(2, [(1.0, 1)], rng)
            assert path.endpoint_colors() == [1 if path.n_jumps % 2 == 0 else 2]

    def test_return_probability(self):
        rng = np.random.default_rng(7)
        n = 100_000
        hits = sum(walk(2, [(1.0, 1)], rng).endpoint_colors() == [1] for _ in range(n))
        p = hits / n
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p - (1 + np.exp(-2.0)) / 2) <= 3 * se


class TestStepColors:
    """color_at_steps, the color held over each step, agrees with the jump
    sequence and with endpoint_colors."""

    @pytest.mark.parametrize("jumps,last", [([(1, 2), (2, 1)], 1), ([(1, 3), (3, 2)], 2),
                                            ([(1, 2), (2, 3)], 3)])
    def test_tied_jumps_apply_in_sequence_order(self, jumps, last):
        path = JumpPath(segments=((1.0, 1),), times=np.array([0.5, 0.5]), jumps=jumps)
        assert path.color_at_steps(0.1, 10).tolist() == [1] * 5 + [last] * 5
        assert path.endpoint_colors() == [last]

    def test_singular_paths_end_in_endpoint_colors(self):
        """The white route's jump times sit on the step grid, so ties are
        common; each segment's last step holds its endpoint color."""
        dt = 1e-3
        path = frozen_path(seed=9, t=0.4, dt=dt)
        sampler = path_sampler(path, dt, 0.02)
        segments = ((0.2, 1), (0.2, 3))
        rng = np.random.default_rng(10)
        ties = 0
        for _ in range(300):
            jp = sampler.sample(8, segments, 3, rng)
            ties += len(np.unique(jp.times)) < jp.n_jumps
            steps = jp.color_at_steps(dt, 400)
            assert [steps[199], steps[399]] == jp.endpoint_colors()
        assert ties > 20


class TestColoredLocalTime:
    """Per-color step histograms of a batch, built from its step bins, and
    the white norm that norm2_sample computes from them."""

    def test_r1_equals_total(self):
        batch = small_batch(1, (1.0,), 20)
        steps = np.ones(batch.total_steps, dtype=np.int64)
        hist = colored_hist(batch, 0, steps)
        # the batch's paths are the first draws of its rng
        path = sample_bridge_ensemble(UNIT, 0.3, 0.3, 1.0, batch.dt, batch.n,
                                      np.random.default_rng(20))[0]
        idx = np.floor(path[:-1] / batch.h).astype(np.int64) - batch.bin_offset
        np.testing.assert_array_equal(hist[0], np.bincount(idx, minlength=batch.n_bins))
        assert batch.norm2_sample(0, steps) == hist_norm2(batch, hist)
        assert batch.norm2_constant((1,))[0] == pytest.approx(hist_norm2(batch, hist),
                                                              rel=1e-15)

    def test_unvisited_color_zero(self):
        batch = small_batch(3, (1.0,), 21)
        steps = np.full(batch.total_steps, 2)
        hist = colored_hist(batch, 1, steps)
        assert hist[0].sum() == 0 and hist[2].sum() == 0
        # one color throughout: the colored norm is the color-blind one
        assert batch.norm2_sample(1, steps) == hist_norm2(batch, batch.full_hist[1])
        np.testing.assert_array_equal(batch.norm2_constant((2,)), batch.norm2_constant((1,)))

    def test_color_occupation_sums(self):
        rng = np.random.default_rng(8)
        batch = small_batch(3, (1.0, 1.0), 22)
        colors = walk(3, [(1.0, 1), (1.0, 3)], rng).color_at_steps(batch.dt, batch.total_steps)
        hist = colored_hist(batch, 2, colors)
        assert hist.sum() * batch.dt == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(hist.sum(axis=0), batch.full_hist[2])
        assert batch.norm2_sample(2, colors) == hist_norm2(batch, hist)


class TestBoundaryTerm:
    """The wall logs of a batch's exponent on frozen paths."""

    def test_case1_zero(self):
        path = frozen_path(dom=DomainConfig(case=1), x=0.0, y=0.0)
        bw = frozen_weights(path, 1e-3, DomainConfig(case=1), (1.5,))
        assert bw.exponent_constant((1,))[0] == 0.0
        assert bw.exponent_sample(0, np.ones(len(path) - 1, dtype=np.int64)) == 0.0

    def test_zero_weights(self):
        path = frozen_path(dom=HALF, x=0.05, y=0.05)
        bw = frozen_weights(path, 1e-3, DomainConfig(case=2, r=2), (0.0, 0.0))
        assert bw.exponent_constant((2,))[0] == 0.0
        assert bw.exponent_sample(0, np.full(len(path) - 1, 2)) == 0.0

    def test_r1_matches_scalar(self):
        path = frozen_path(dom=HALF, x=0.02, y=0.05)
        want = log_wall_factor(path[:-1], path[1:], 1e-3, 0.7).sum()
        bw = frozen_weights(path, 1e-3, HALF, (0.7,))
        assert want > 0
        assert bw.exponent_constant((1,))[0] == pytest.approx(want, rel=1e-12)
        assert bw.exponent_sample(0, np.ones(len(path) - 1, dtype=np.int64)) == pytest.approx(
            want, rel=1e-12)

    def test_dirichlet_kill(self):
        # a Dirichlet color on a path that touches the wall gets weight 0
        path = frozen_path(dom=HALF, x=0.0, y=0.01, dt=1e-4)
        with np.errstate(divide="ignore"):
            bw = frozen_weights(path, 1e-4, DomainConfig(case=2, r=2), (0.7, DIRICHLET))
            assert np.exp(bw.exponent_constant((2,)))[0] == 0.0
            colors = np.ones(len(path) - 1, dtype=np.int64)
            colors[:10] = 2
            assert math.exp(bw.exponent_sample(0, colors)) == 0.0
        assert np.isfinite(bw.exponent_constant((1,))[0])

    def test_colored_split_sums_to_total(self):
        path = frozen_path(dom=UNIT, x=0.02, y=0.95, dt=1e-4)
        colors = 1 + (np.arange(len(path) - 1) // 7) % 2
        dom = DomainConfig(case=3, theta=1.0, r=2)
        split = [frozen_weights(path, 1e-4, dom, a, (0.0, 0.0)).exponent_sample(0, colors)
                 for a in ((1.0, 0.0), (0.0, 1.0))]
        total = frozen_weights(path, 1e-4, dom, (1.0, 1.0), (0.0, 0.0)).exponent_constant((1,))[0]
        assert total > 0
        assert sum(split) == pytest.approx(total, abs=1e-12)


class TestSelfIntersectionSampler:
    def test_constant_path_single_bin(self):
        sampler = path_sampler(np.full(101, 0.35), 0.01, h=0.1)
        rng = np.random.default_rng(10)
        t1, t2, _ = sampler.sample_pair(rng)
        assert 0.0 <= t1 < 1.0 and 0.0 <= t2 < 1.0

    def test_pairs_share_bin(self):
        path = frozen_path(dt=1e-3)
        h = np.sqrt(1e-3)
        sampler = path_sampler(path, 1e-3, h)
        rng = np.random.default_rng(11)
        for _ in range(500):
            t1, t2, _ = sampler.sample_pair(rng)
            z1 = path[int(round(t1 / 1e-3))]
            z2 = path[int(round(t2 / 1e-3))]
            assert abs(z1 - z2) <= h

    def test_bin_marginal_matches_mass_squared(self):
        path = frozen_path(dt=2e-3)
        h = 0.1
        sampler = path_sampler(path, 2e-3, h)
        rng = np.random.default_rng(12)
        n = 100_000
        bins = np.array([sampler.sample_pair(rng)[2] for _ in range(n)])
        counts = step_bins(path, h)[1]
        probs = counts**2 / np.sum(counts**2)
        for b, p in enumerate(probs):
            if p == 0:
                continue
            emp = np.count_nonzero(bins == b) / n
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) <= 4 * se + 1e-12

    def test_bin_draws_equal_generator_choice(self):
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
        sampler = path_sampler(path, 1e-3, h=0.05)
        rng = np.random.default_rng(13)
        hat = sampler.sample(4, ((1.0, 1),), 2, rng)
        assert hat.times.shape == (4,) and len(hat.matching) == 2


class TestSampleHatU:
    def test_r1_degenerate(self):
        rng = np.random.default_rng(14)
        path = frozen_path()
        norm2 = local_time_norm2(path, 1e-3, 0.05)
        assert not singular_jump_counts(1, np.full(100, norm2), rng).any()
        hat = path_sampler(path, 1e-3, 0.05).sample(0, ((1.0, 1),), 1, rng)
        assert hat.n_jumps == 0 and hat.matching == ()

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
        sampler = path_sampler(path, 1e-3, h)
        norm2 = np.array([local_time_norm2(path, 1e-3, h)])
        got_positive = 0
        for _ in range(400):
            n = int(singular_jump_counts(3, norm2, rng)[0])
            if n == 0 or n > 20:
                continue
            replay = copy.deepcopy(rng)
            hat = sampler.sample(n, ((0.5, 1), (0.5, 2)), 3, rng)
            got_positive += 1
            flat = sorted(i for pair in hat.matching for i in pair)
            assert flat == list(range(n))
            # sorted times with the post-sort matching reproduce the pairs
            for l1, l2 in hat.matching:
                z1 = path[int(round(hat.times[l1] / 1e-3))]
                z2 = path[int(round(hat.times[l2] / 1e-3))]
                assert abs(z1 - z2) <= h
            # bijection with the pre-sort matching under the time-sorting
            # permutation, both replayed from the sampler's draws
            presort = random_matching(n, replay)
            times = np.empty(n)
            for l1, l2 in presort:
                times[l1], times[l2], _ = sampler.sample_pair(replay)
            rank = np.argsort(np.argsort(times, kind="stable"))
            assert np.array_equal(np.sort(times), hat.times)
            mapped = {tuple(sorted((rank[a], rank[b]))) for a, b in presort}
            assert mapped == set(hat.matching)
        assert got_positive > 10

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
