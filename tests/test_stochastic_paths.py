import numpy as np
import pytest
from scipy.integrate import quad

from mvsao.estimators import BoundaryWeights
from mvsao.experiment import ExperimentSpec
from mvsao.stochastic_paths import (
    DomainConfig,
    PathSample,
    inner_product,
    local_time,
    sample_bridge,
    sample_bridge_ensemble,
    step_crossing_probs,
    transition_density,
)
from test_jump_process import frozen_weights

LINE = DomainConfig(case=1)
HALF = DomainConfig(case=2)
UNIT = DomainConfig(case=3, theta=1.0)


def constant_path(x0, t=1.0, dt=0.01):
    n = int(round(t / dt))
    return PathSample(dt=dt, values=np.full(n + 1, x0), segment_times=(t,))


class TestBridges:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        for dom, x, y in [(LINE, 0.0, 0.0), (LINE, -1.0, 2.0),
                          (HALF, 0.5, 1.5), (HALF, 0.0, 0.3),
                          (UNIT, 0.2, 0.9), (UNIT, 0.0, 1.0)]:
            paths = sample_bridge_ensemble(dom, x, y, 1.0, 0.01, 64, rng)
            np.testing.assert_allclose(paths[:, 0], x, atol=1e-12)
            np.testing.assert_allclose(paths[:, -1], y, atol=1e-12)

    def test_case1_midpoint_variance(self):
        rng = np.random.default_rng(1)
        t = 1.0
        paths = sample_bridge_ensemble(LINE, 0.0, 0.0, t, 1e-2, 100_000, rng)
        mid = paths[:, paths.shape[1] // 2]
        v = mid.var(ddof=1)
        se = v * np.sqrt(2.0 / (len(mid) - 1))
        assert abs(v - t / 4.0) <= 3 * se

    def test_case3_range(self):
        rng = np.random.default_rng(2)
        paths = sample_bridge_ensemble(UNIT, 0.3, 0.8, 2.0, 1e-3, 200, rng)
        assert paths.min() >= 0.0 and paths.max() <= 1.0

    def test_case2_nonnegative(self):
        rng = np.random.default_rng(3)
        paths = sample_bridge_ensemble(HALF, 0.1, 0.1, 1.0, 1e-3, 200, rng)
        assert paths.min() >= 0.0

    def test_invalid_endpoint_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_bridge(HALF, -0.5, 1.0, 1.0, 0.01, rng)
        with pytest.raises(ValueError):
            sample_bridge(UNIT, 0.5, 1.2, 1.0, 0.01, rng)

    def test_case2_bridge_marginal_matches_kernel(self):
        # one-point marginal of the reflected bridge versus the exact
        # conditional density pi(s;x,z) pi(t-s;z,y) / pi(t;x,y)
        rng = np.random.default_rng(5)
        x, y, t, s = 0.4, 0.8, 1.0, 0.5
        paths = sample_bridge_ensemble(HALF, x, y, t, 1e-2, 200_000, rng)
        mid = paths[:, int(s / 1e-2)]
        grid = np.linspace(0.0, 4.0, 33)
        hist, _ = np.histogram(mid, bins=grid, density=True)
        centers = 0.5 * (grid[:-1] + grid[1:])
        dens = (transition_density(HALF, s, x, centers)
                * transition_density(HALF, t - s, centers, y)
                / transition_density(HALF, t, x, y))
        # bin-averaged comparison, MC + binning tolerance
        np.testing.assert_allclose(hist, dens, atol=4e-2)


class TestTransitionDensity:
    def test_case1_at_origin(self):
        assert transition_density(LINE, 1.0, 0.0, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_case2_boundary_doubling(self):
        base = transition_density(LINE, 1.0, 0.0, 0.0)
        assert transition_density(HALF, 1.0, 1e-12, 1e-12) == pytest.approx(2 * base, rel=1e-9)

    def test_case3_mass_conservation(self):
        for t in (0.05, 0.5, 2.0):
            for x in (0.1, 0.5, 0.9):
                total, _ = quad(lambda y: transition_density(UNIT, t, x, y), 0.0, 1.0)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for dom, lo, hi in [(LINE, -3, 3), (HALF, 0, 3), (UNIT, 0, 1)]:
            for _ in range(20):
                x, y = rng.uniform(lo, hi, 2)
                t = rng.uniform(0.05, 2.0)
                assert transition_density(dom, t, x, y) == pytest.approx(
                    transition_density(dom, t, y, x), rel=1e-12)

    def test_chapman_kolmogorov(self):
        s, t = 0.3, 0.5
        x, y = 0.2, 0.7
        val, _ = quad(lambda z: transition_density(UNIT, s, x, z)
                      * transition_density(UNIT, t, z, y), 0.0, 1.0)
        assert val == pytest.approx(transition_density(UNIT, s + t, x, y), abs=1e-6)
        val1, _ = quad(lambda z: transition_density(LINE, s, x, z)
                       * transition_density(LINE, t, z, y), -12.0, 12.0)
        assert val1 == pytest.approx(transition_density(LINE, s + t, x, y), abs=1e-6)

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            transition_density(LINE, 0.0, 0.0, 0.0)


class TestLocalTime:
    def test_constant_path_single_bin(self):
        field = local_time(constant_path(0.55), (0.0, 1.0), h=0.1)
        assert np.count_nonzero(field.masses) == 1
        assert field.masses.max() == pytest.approx(10.0)

    def test_occupation_identity_exact(self):
        rng = np.random.default_rng(7)
        path = sample_bridge(LINE, 0.0, 1.0, 1.0, 1e-3, rng)
        for window in [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)]:
            field = local_time(path, window, h=0.05)
            assert field.total_mass() == pytest.approx(window[1] - window[0], abs=1e-12)

    def test_norm_scaling_exponent(self):
        # ||L_t||_2 should scale like t^(3/4); compare means at t and t/4
        rng = np.random.default_rng(8)
        t = 1.0
        means = []
        for tk in (t, t / 4):
            dt = 1e-3 * tk
            h = np.sqrt(dt)
            vals = []
            paths = sample_bridge_ensemble(LINE, 0.0, 0.0, tk, dt, 10_000, rng)
            for row in paths:
                p = PathSample(dt=dt, values=row, segment_times=(tk,))
                vals.append(np.sqrt(local_time(p, (0.0, tk), h).norm2_squared()))
            means.append(np.mean(vals))
        ratio = means[1] / means[0]
        assert ratio == pytest.approx(0.25**0.75, rel=0.05)

    def test_empty_window(self):
        field = local_time(constant_path(0.0), (0.5, 0.5), h=0.1)
        assert field.total_mass() == 0.0


class TestBoundaryLocalTime:
    """Robin local times of the shared boundary weights."""

    def test_far_path_zero(self):
        assert frozen_weights(constant_path(0.5), HALF, (1.0,)).seg_lt[0][0, 0] == 0.0

    def test_reflected_expectation(self):
        # E[boundary local time at 0 by time 1] = sqrt(2/pi) for reflected BM
        rng = np.random.default_rng(9)
        t, dt, n = 1.0, 2.5e-4, 60_000
        spec = ExperimentSpec(domain=HALF, kind="R", sigma2=0.0, upsilon2=0.0, ts=(t,),
                              seed=0, alphas=(1.0,), x_max=1.0)
        acc = []
        for start in range(0, n, 10_000):
            m = min(10_000, n - start)
            incs = rng.standard_normal((m, int(t / dt))) * np.sqrt(dt)
            paths = np.abs(np.cumsum(np.pad(incs, ((0, 0), (1, 0))), axis=1))
            acc.append(BoundaryWeights(spec, [paths], paths[:, :-1], dt).seg_lt[0][:, 0])
        est = np.concatenate(acc)
        assert est.mean() == pytest.approx(np.sqrt(2 / np.pi), rel=0.03)

    def test_window_additivity(self):
        rng = np.random.default_rng(10)
        path = sample_bridge(HALF, 0.1, 0.2, 1.0, 1e-3, rng)
        full = frozen_weights(path, HALF, (1.0,)).seg_lt[0]
        split = frozen_weights(path, HALF, (1.0,), cuts=(400,)).seg_lt[0]
        assert full[0, 0] > 0 and split.shape == (1, 2)
        assert full[0, 0] == pytest.approx(split.sum(), abs=1e-12)


class TestInnerProduct:
    def test_disjoint_supports(self):
        f1 = local_time(constant_path(0.0), (0.0, 1.0), h=0.1)
        f2 = local_time(constant_path(5.0), (0.0, 1.0), h=0.1)
        assert inner_product(f1, f2) == 0.0

    def test_norm_nonnegative(self):
        rng = np.random.default_rng(11)
        path = sample_bridge(LINE, 0.0, 0.0, 1.0, 1e-3, rng)
        f = local_time(path, (0.0, 1.0), h=0.05)
        assert inner_product(f, f) >= 0.0
        assert inner_product(f, f) == pytest.approx(f.norm2_squared())

    def test_bilinearity_over_window_splits(self):
        rng = np.random.default_rng(12)
        path = sample_bridge(LINE, 0.0, 0.0, 1.0, 1e-3, rng)
        h = 0.05
        total = local_time(path, (0.0, 1.0), h)
        cuts = [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)]
        parts = [local_time(path, w, h) for w in cuts]
        acc = sum(inner_product(a, b) for a in parts for b in parts)
        assert acc == pytest.approx(total.norm2_squared(), rel=1e-9)

    def test_mismatched_bins_rejected(self):
        f1 = local_time(constant_path(0.0), (0.0, 1.0), h=0.1)
        f2 = local_time(constant_path(0.0), (0.0, 1.0), h=0.2)
        with pytest.raises(ValueError):
            inner_product(f1, f2)


def test_crossing_probs_basic():
    vals = np.array([0.5, 0.4, -0.1, 0.3])
    p = step_crossing_probs(vals, 0.0, 0.01, side="lower")
    assert p[1] == 1.0 and p[2] == 1.0
    assert 0.0 < p[0] < 1e-8
    up = step_crossing_probs(np.array([0.95, 1.0]), 1.0, 0.01, side="upper")
    assert up[0] == 1.0
