import math

import numpy as np
import pytest

from mvsao.estimators import BoundaryWeights, _PathBatch, whitenoise_trace_moment
from mvsao.experiment import DIRICHLET, ExperimentSpec
from mvsao.jump_process import (
    JumpPath,
    SelfIntersectionSampler,
    draw_free_walk,
    singular_jump_counts,
    walk_jump_counts,
)
from mvsao.stochastic_paths import (
    DomainConfig,
    PathSample,
    local_time,
    log_wall_factor,
    sample_bridge,
)

HALF = DomainConfig(case=2)
UNIT = DomainConfig(case=3, theta=1.0)


def frozen_path(seed=0, t=1.0, dt=1e-3, dom=None, x=0.2, y=0.4):
    dom = dom or UNIT
    rng = np.random.default_rng(seed)
    return sample_bridge(dom, x, y, t, dt, rng)


def walk(r, segments, rng):
    """One uniform walk, its jump counts drawn as the estimators draw them."""
    segments = tuple(segments)
    counts = walk_jump_counts(r, [t for t, _ in segments], 1, rng)[0]
    return draw_free_walk(segments, counts, r, rng)


def path_sampler(path, h):
    """The self-intersection sampler built from a frozen path's bins."""
    idx = np.floor(path.values[:-1] / h).astype(np.int64)
    idx -= idx.min()
    return SelfIntersectionSampler(idx, np.bincount(idx), path.dt)


def frozen_weights(path, domain, alphas, betas=None, cuts=()):
    """Boundary weights of one frozen path, split into segments at the
    given step indices."""
    spec = ExperimentSpec(domain=domain, kind="R", sigma2=0.0, upsilon2=0.0,
                          ts=(path.horizon,), seed=0, alphas=alphas, betas=betas,
                          x_max=None if domain.case == 3 else 1.0)
    bounds = [0, *cuts, path.n_steps]
    folded = [path.values[None, lo:hi + 1] for lo, hi in zip(bounds, bounds[1:])]
    return BoundaryWeights(spec, folded, path.dt)


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
        path = JumpPath(r=2, segments=((1.0, 1),), times=np.zeros(0), jumps=[])
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


class TestColoredLocalTime:
    """Per-color step histograms of a batch (colored_hist)."""

    def test_r1_equals_total(self):
        batch = small_batch(1, (1.0,), 20)
        hist = batch.colored_hist(0, np.ones(batch.total_steps, dtype=np.int64))
        total = local_time(PathSample(dt=batch.dt, values=batch.folded[0][0]),
                           (0.0, 1.0), batch.h)
        lo = total.offset - batch.bin_offset
        np.testing.assert_allclose(hist[0, lo:lo + len(total.masses)] * (batch.dt / batch.h),
                                   total.masses)
        assert hist[0].sum() == hist[0, lo:lo + len(total.masses)].sum()

    def test_unvisited_color_zero(self):
        batch = small_batch(3, (1.0,), 21)
        hist = batch.colored_hist(1, np.full(batch.total_steps, 2))
        assert hist[0].sum() == 0 and hist[2].sum() == 0

    def test_color_occupation_sums(self):
        rng = np.random.default_rng(8)
        batch = small_batch(3, (1.0, 1.0), 22)
        colors = walk(3, [(1.0, 1), (1.0, 3)], rng).color_at_steps(batch.dt, batch.total_steps)
        hist = batch.colored_hist(2, colors)
        assert hist.sum() * batch.dt == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(hist.sum(axis=0), batch.full_hist[2])


class TestBoundaryTerm:
    """BoundaryWeights on frozen paths."""

    def test_case1_zero(self):
        path = frozen_path(dom=DomainConfig(case=1), x=0.0, y=0.0)
        bw = frozen_weights(path, DomainConfig(case=1), (1.5,))
        assert bw.exponent_constant((1,))[0] == 0.0
        assert bw.exponent_sample(0, np.ones(path.n_steps, dtype=np.int64)) == 0.0

    def test_zero_weights(self):
        path = frozen_path(dom=HALF, x=0.05, y=0.05)
        bw = frozen_weights(path, DomainConfig(case=2, r=2), (0.0, 0.0))
        assert bw.exponent_constant((2,))[0] == 0.0
        assert bw.exponent_sample(0, np.full(path.n_steps, 2)) == 0.0

    def test_r1_matches_scalar(self):
        path = frozen_path(dom=HALF, x=0.02, y=0.05)
        want = log_wall_factor(path.values[:-1], path.values[1:], path.dt, 0.7).sum()
        bw = frozen_weights(path, HALF, (0.7,))
        assert want > 0
        assert bw.exponent_constant((1,))[0] == pytest.approx(want, rel=1e-12)
        assert bw.exponent_sample(0, np.ones(path.n_steps, dtype=np.int64)) == pytest.approx(
            want, rel=1e-12)

    def test_dirichlet_kill(self):
        # a Dirichlet color on a path that touches the wall gets weight 0
        path = frozen_path(dom=HALF, x=0.0, y=0.01, dt=1e-4)
        with np.errstate(divide="ignore"):
            bw = frozen_weights(path, DomainConfig(case=2, r=2), (0.7, DIRICHLET))
            assert np.exp(bw.exponent_constant((2,)))[0] == 0.0
            colors = np.ones(path.n_steps, dtype=np.int64)
            colors[:10] = 2
            assert math.exp(bw.exponent_sample(0, colors)) == 0.0
        assert np.isfinite(bw.exponent_constant((1,))[0])

    def test_colored_split_sums_to_total(self):
        path = frozen_path(dom=UNIT, x=0.02, y=0.95, dt=1e-4)
        colors = 1 + (np.arange(path.n_steps) // 7) % 2
        dom = DomainConfig(case=3, theta=1.0, r=2)
        split = [frozen_weights(path, dom, a, (0.0, 0.0)).exponent_sample(0, colors)
                 for a in ((1.0, 0.0), (0.0, 1.0))]
        total = frozen_weights(path, dom, (1.0, 1.0), (0.0, 0.0)).exponent_constant((1,))[0]
        assert total > 0
        assert sum(split) == pytest.approx(total, abs=1e-12)


class TestSelfIntersectionSampler:
    def test_constant_path_single_bin(self):
        path = PathSample(dt=0.01, values=np.full(101, 0.35), segment_times=(1.0,))
        sampler = path_sampler(path, h=0.1)
        rng = np.random.default_rng(10)
        t1, t2, _ = sampler.sample_pair(rng)
        assert 0.0 <= t1 < 1.0 and 0.0 <= t2 < 1.0

    def test_pairs_share_bin(self):
        path = frozen_path(dt=1e-3)
        h = np.sqrt(1e-3)
        sampler = path_sampler(path, h)
        rng = np.random.default_rng(11)
        vals = path.values
        for _ in range(500):
            t1, t2, _ = sampler.sample_pair(rng)
            z1 = vals[int(round(t1 / path.dt))]
            z2 = vals[int(round(t2 / path.dt))]
            assert abs(z1 - z2) <= h

    def test_bin_marginal_matches_mass_squared(self):
        path = frozen_path(dt=2e-3)
        h = 0.1
        sampler = path_sampler(path, h)
        rng = np.random.default_rng(12)
        n = 100_000
        bins = np.array([sampler.sample_pair(rng)[2] for _ in range(n)])
        field = local_time(path, (0.0, 1.0), h)
        probs = field.masses**2 * h / field.norm2_squared()
        for b, p in enumerate(probs):
            if p == 0:
                continue
            emp = np.count_nonzero(bins == b) / n
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) <= 4 * se + 1e-12

    def test_si_times_indexing(self):
        path = frozen_path(dt=1e-3)
        sampler = path_sampler(path, h=0.05)
        rng = np.random.default_rng(13)
        hat = sampler.sample(4, ((1.0, 1),), 2, rng)
        assert hat.times.shape == (4,) and len(hat.matching) == 2


class TestSampleHatU:
    def test_r1_degenerate(self):
        rng = np.random.default_rng(14)
        path = frozen_path()
        norm2 = local_time(path, (0.0, 1.0), 0.05).norm2_squared()
        assert not singular_jump_counts(1, np.full(100, norm2), rng).any()
        hat = path_sampler(path, 0.05).sample(0, ((1.0, 1),), 1, rng)
        assert hat.n_jumps == 0 and hat.matching == ()

    def test_mean_jump_count(self):
        rng = np.random.default_rng(15)
        path = frozen_path(dt=1e-3)
        lam2 = local_time(path, (0.0, 1.0), np.sqrt(1e-3)).norm2_squared()
        n = 30_000
        counts = singular_jump_counts(2, np.full(n, lam2), rng)  # (r-1)^2 ||L||^2, r = 2
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - lam2) <= 3 * se

    def test_matching_structure_and_bin_coincidence(self):
        rng = np.random.default_rng(16)
        path = frozen_path(dt=1e-3)
        h = np.sqrt(1e-3)
        sampler = path_sampler(path, h)
        norm2 = np.array([local_time(path, (0.0, 1.0), h).norm2_squared()])
        got_positive = 0
        for _ in range(400):
            n = int(singular_jump_counts(3, norm2, rng)[0])
            if n == 0 or n > 20:
                continue
            hat = sampler.sample(n, ((0.5, 1), (0.5, 2)), 3, rng)
            got_positive += 1
            flat = sorted(i for pair in hat.matching for i in pair)
            assert flat == list(range(n))
            # sorted times with the post-sort matching reproduce the pairs
            for l1, l2 in hat.matching:
                z1 = path.values[int(round(hat.times[l1] / path.dt))]
                z2 = path.values[int(round(hat.times[l2] / path.dt))]
                assert abs(z1 - z2) <= h
            # bijection with the pre-sort matching under the permutation
            mapped = {tuple(sorted((hat.sort_permutation[a], hat.sort_permutation[b])))
                      for a, b in hat.presort_matching}
            assert mapped == set(hat.matching)
        assert got_positive > 10

    def test_discard_flag(self):
        # jump counts above n_max are discarded and counted, never truncated
        spec = ExperimentSpec(domain=DomainConfig(case=3, theta=1.0, r=2), kind="R",
                              sigma2=0.5, upsilon2=0.5, ts=(0.5,), seed=17,
                              alphas=(0.0, 0.0), betas=(0.0, 0.0), n_paths=200,
                              n_quad=2, n_max=0)
        est = whitenoise_trace_moment(spec)
        assert est.n_discarded > 0
        assert est.n_paths + est.n_discarded == 200
