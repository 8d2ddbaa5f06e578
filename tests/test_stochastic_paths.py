import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import chi2

from mvsao.estimators import _PathBatch
from mvsao.experiment import ExperimentSpec
from mvsao.stochastic_paths import (
    DomainConfig,
    _images,
    block_rows,
    fold_to_domain,
    gaussian_kernel,
    interpolate_free,
    log_wall_factor,
    sample_bridge_ensemble,
    step_crossing_probs,
    transition_density,
)
from test_jump_process import frozen_batch, frozen_weights

LINE = DomainConfig(case=1)
HALF = DomainConfig(case=2)
UNIT = DomainConfig(case=3, theta=1.0)


def path_batch(dom, ts, x, n, seed, **kw):
    """A batch of n bridges from x to x per factor time, Neumann walls."""
    spec = ExperimentSpec(domain=dom, kind="R", sigma2=0.0, upsilon2=0.0, ts=ts, seed=seed,
                          alphas=(0.0,), betas=(0.0,), x_max=1.0, **kw)
    return _PathBatch(spec, (x,) * len(ts), n, np.random.default_rng(seed))


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
            sample_bridge_ensemble(HALF, -0.5, 1.0, 1.0, 0.01, 1, rng)
        with pytest.raises(ValueError):
            sample_bridge_ensemble(UNIT, 0.5, 1.2, 1.0, 0.01, 1, rng)
        # per-row endpoints: the message names the first row outside and its (x, y)
        for dom, bad in ((HALF, {3: (0.5, -1e-9)}), (UNIT, {2: (0.5, 1.0 + 1e-12), 4: (1.5, 0.5)}),
                         (UNIT, {4: (-0.25, 0.5)})):
            x, y = np.linspace(0.0, 1.0, 6), np.linspace(1.0, 0.0, 6)
            for row, (x_bad, y_bad) in bad.items():
                x[row], y[row] = x_bad, y_bad
            row = min(bad)
            with pytest.raises(ValueError, match=re.escape(f"row {row}: endpoints {bad[row]}")):
                sample_bridge_ensemble(dom, x, y, 1.0, 0.01, 6, rng)

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

    @pytest.mark.parametrize("dom,t", [(LINE, 0.3), (HALF, 0.3), (HALF, 1e-4), (UNIT, 0.5),
                                       (UNIT, 1e-4), (DomainConfig(case=3, theta=0.1), 1.0)])
    def test_matches_the_image_loop(self, dom, t):
        # the image table's sum against the loop over image pairs it replaced;
        # theta = 0.1 at t = 1 takes 85 pairs
        rng = np.random.default_rng(13)
        hi = 2.0 if dom.theta is None else dom.theta
        x = np.concatenate([[0.0, hi], rng.uniform(0.0, hi, 200)])
        y = np.concatenate([[0.0, hi], x[2:] + rng.normal(0.0, 2.0 * math.sqrt(t), 200)])
        x, y = fold_to_domain(x, dom), fold_to_domain(y, dom)
        want = looped_density(dom, t, x, y)
        assert want.min() > 0.0
        np.testing.assert_allclose(transition_density(dom, t, x, y), want, rtol=1e-14, atol=0.0)
        if dom.theta == 0.1:
            assert _images(dom, t, x, y)[0].shape == (202, 170)


def looped_density(domain, t, x, y):
    """The method-of-images sum as a loop over the image pairs, the
    reference for transition_density."""
    if domain.case == 1:
        return gaussian_kernel(t, x - y)
    if domain.case == 2:
        return gaussian_kernel(t, x - y) + gaussian_kernel(t, x + y)
    th = domain.theta
    nmax = int(np.ceil((8.0 * np.sqrt(t) + 4.0 * th) / (2.0 * th)))
    out = np.zeros(np.broadcast(x, y).shape)
    for n in range(-nmax, nmax + 1):
        out += gaussian_kernel(t, x - y + 2.0 * n * th)
        out += gaussian_kernel(t, x + y + 2.0 * n * th)
    return out


@pytest.mark.parametrize("dom,t", [(HALF, 0.1), (UNIT, 0.2)])
def test_bridges_draw_each_rows_image(dom, t):
    """Rows with distinct (x, y) near the walls draw their image endpoint
    from their own normalised kernels: a chi-square test of the drawn image
    index, with the exact covariance of independent per-row draws (images
    expected fewer than 5 times pooled, the pool joined to the likeliest
    image if it is expected fewer than 5 times itself)."""
    n = 20_000
    rng = np.random.default_rng(17)
    x, y = rng.uniform(0.0, 0.3, (2, n))
    if dom.case == 3:  # each end near either wall
        x, y = (np.where(rng.random(n) < 0.5, v, dom.theta - v) for v in (x, y))
    _, free = sample_bridge_ensemble(dom, x, y, t, t, n, rng, return_free=True)
    e, kernels = _images(dom, t, x, y)
    p = kernels / kernels.sum(axis=1, keepdims=True)
    drawn = np.abs(free[:, -1:] - x[:, None] - e).argmin(axis=1)
    expected = p.sum(axis=0)
    label = np.where(expected >= 5.0, np.arange(len(expected)), -1)
    if expected[label < 0].sum() < 5.0:
        label[label < 0] = expected.argmax()
    _, label = np.unique(label, return_inverse=True)
    onehot = np.eye(label.max() + 1)[label]
    probs = p @ onehot
    dev = np.bincount(label[drawn], minlength=onehot.shape[1]) - probs.sum(axis=0)
    cov = np.diag(probs.sum(axis=0)) - probs.T @ probs
    # the categories' counts sum to n: the last one is left out
    stat = dev[:-1] @ np.linalg.solve(cov[:-1, :-1], dev[:-1])
    assert onehot.shape[1] >= (2 if dom.case == 2 else 3)
    assert chi2.sf(stat, onehot.shape[1] - 1) > 1e-3


@pytest.mark.parametrize("dom", [LINE, HALF, UNIT])
def test_one_start_draws_the_bits_of_per_row_starts(dom):
    """Scalars or a stride-0 row view share one image table; the draws are
    bit for bit those of rows that each hold the same (x, y)."""
    x, y, n = 0.05, 0.9, 300
    rows = [sample_bridge_ensemble(dom, xs, ys, 0.5, 0.01, n, np.random.default_rng(5),
                                   return_free=True)
            for xs, ys in ((x, y), (np.broadcast_to(x, n), np.broadcast_to(y, n)),
                           (np.full(n, x), np.full(n, y)))]
    for paths, free in rows[:2]:
        assert np.array_equal(paths, rows[2][0]) and np.array_equal(free, rows[2][1])


class TestLocalTime:
    """The step histograms of a batch (_PathBatch) and their norm, the one
    local time."""

    def test_constant_path_single_bin(self):
        # a bridge this short stays inside the bin [0.5, 0.6)
        batch = path_batch(UNIT, (1e-4,), 0.55, 4, 7, dt=1e-6, h=0.1)
        assert np.all(np.count_nonzero(batch.full_hist, axis=1) == 1)
        assert np.all(batch.full_hist.max(axis=1) == 100)
        np.testing.assert_allclose(batch.norm2_constant((1,)), 1e-4**2 / 0.1, rtol=1e-12)

    def test_occupation_identity_exact(self):
        ts = (0.25, 0.5, 0.25)
        batch = path_batch(UNIT, ts, 0.5, 16, 7, dt=1e-3, h=0.05)
        for k, t in enumerate(ts):
            np.testing.assert_allclose(batch.seg_hist[:, k].sum(axis=1) * batch.dt, t,
                                       rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(batch.full_hist.sum(axis=1) * batch.dt, 1.0,
                                   rtol=0.0, atol=1e-12)

    def test_norm_scaling_exponent(self):
        # ||L_t||_2 should scale like t^(3/4); compare means at t and t/4,
        # with h = sqrt(dt) as the white route bins
        means = []
        for tk in (1.0, 0.25):
            batch = path_batch(LINE, (tk,), 0.0, 10_000, 8, dt=1e-3 * tk)
            means.append(np.sqrt(batch.norm2_constant((1,))).mean())
        ratio = means[1] / means[0]
        assert ratio == pytest.approx(0.25**0.75, rel=0.05)


def wall_factor_quad(a, b, dt, alpha):
    """E[exp(alpha L) | Z(0) = a, Z(dt) = b] for Brownian motion reflected
    at 0, by quadrature of the joint law of (Z(dt), L): an atom
    g(a - b) - g(a + b) at L = 0 and, for L = l > 0, the first-passage
    density 2u exp(-u^2 / 2dt) / sqrt(2 pi dt^3) at u = a + b + l."""
    def dens(l):
        u = a + b + l
        return math.exp(alpha * l) * 2.0 * u * math.exp(-u * u / (2.0 * dt)) / math.sqrt(
            2.0 * math.pi * dt**3)
    tail, _ = quad(dens, 0.0, abs(alpha) * dt + 40.0 * math.sqrt(dt),
                   epsabs=0.0, epsrel=1e-13, limit=200)
    direct, image = gaussian_kernel(dt, a - b), gaussian_kernel(dt, a + b)
    return (direct - image + tail) / (direct + image)


class TestLogWallFactor:
    STEPS = [(0.0, 0.0, 1e-3), (0.01, 0.02, 1e-3), (0.03, 0.0, 5e-4),
             (0.05, 0.04, 2e-3), (0.1, 0.1, 1e-3)]

    def test_neumann_is_one(self):
        a, b, _ = np.array(self.STEPS).T
        assert np.all(log_wall_factor(a, b, 1e-3, 0.0) == 0.0)

    def test_dirichlet_limit(self):
        a, b, _ = np.array(self.STEPS).T
        q = np.exp(-2.0 * a * b / 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.exp(log_wall_factor(a, b, 1e-3, -np.inf))
        np.testing.assert_allclose(got, (1.0 - q) / (1.0 + q), rtol=1e-14, atol=0.0)
        assert got[0] == 0.0 and got[2] == 0.0

    @pytest.mark.parametrize("alpha", [1.0, -1.0, 50.0, -50.0])
    def test_matches_joint_density(self, alpha):
        for a, b, dt in self.STEPS:
            want = wall_factor_quad(a, b, dt, alpha)
            assert math.exp(log_wall_factor(a, b, dt, alpha)) == pytest.approx(want, rel=1e-12)


class TestBoundaryLocalTime:
    """Robin wall factors of a batch's exponent."""

    def test_far_path_zero(self):
        weights = frozen_weights(np.full(101, 0.5), 0.01, HALF, (1.0,))
        assert weights.exponent_constant((1,))[0] == 0.0

    def test_reflected_expectation(self):
        # E_a[exp(alpha L_t)] for Brownian motion reflected at 0: P(no hit) plus
        # the integral of exp(alpha l) against the density 2 g_t(a + l) of
        # L_t > 0.  The product of the wall factors along a reflected Gaussian
        # random walk is an unbiased estimate of it.
        a, t, dt, alpha, n = 0.05, 0.2, 2e-3, -1.0, 200_000
        tail, _ = quad(lambda l: math.exp(alpha * l) * 2.0 * gaussian_kernel(t, a + l),
                       0.0, np.inf)
        want = erf(a / math.sqrt(2.0 * t)) + tail
        rng = np.random.default_rng(9)
        spec = ExperimentSpec(domain=HALF, kind="R", sigma2=0.0, upsilon2=0.0, ts=(t,),
                              seed=0, alphas=(alpha,), x_max=1.0, dt=dt)
        acc = []
        for _ in range(n // 50_000):
            incs = rng.standard_normal((50_000, int(round(t / dt)))) * np.sqrt(dt)
            paths = np.abs(a + np.cumsum(np.pad(incs, ((0, 0), (1, 0))), axis=1))
            acc.append(np.exp(frozen_batch(spec, [paths]).exponent_constant((1,))))
        est = np.concatenate(acc)
        se = est.std(ddof=1) / np.sqrt(n)
        assert abs(est.mean() - want) <= 3 * se

    def test_window_additivity(self):
        rng = np.random.default_rng(10)
        path = sample_bridge_ensemble(HALF, 0.1, 0.2, 1.0, 1e-3, 1, rng)[0]
        full = frozen_weights(path, 1e-3, HALF, (1.0,)).exponent_constant((1,))
        split = frozen_weights(path, 1e-3, HALF, (1.0,), cuts=(400,))
        assert full[0] > 0 and split.seg_steps == [400, 600]
        assert full[0] == pytest.approx(split.exponent_constant((1, 1))[0], abs=1e-12)
        ones = np.ones((1, 1000), dtype=np.uint8)
        assert full[0] == pytest.approx(split.exponent_steps(np.array([0]), ones)[0], abs=1e-12)


class TestInterpolateFree:
    """Values of a gridded free path at jump times."""

    def test_two_times_in_one_step_follow_the_bridge(self):
        # Z1, Z2 at u1 = 0.4 and u2 = 0.45 of one step: the Brownian bridge
        # between the grid values gives Var(Z2 - Z1) = delta (1 - delta / dt)
        # and keeps each marginal's mean u dZ and variance dt u (1 - u)
        dt, n, rise = 1e-3, 20_000, 0.01
        times = np.array([0.40e-3, 0.45e-3])
        free = np.array([0.0, rise, -0.02])
        rng = np.random.default_rng(12)
        z = np.array([interpolate_free(free, times, dt, rng) for _ in range(n)])
        delta = times[1] - times[0]
        want = delta * (1.0 - delta / dt)
        diff = z[:, 1] - z[:, 0]
        assert abs(diff.var(ddof=1) - want) <= 4 * want * math.sqrt(2.0 / (n - 1))
        for u, col in zip(times / dt, z.T):
            var = dt * u * (1.0 - u)
            assert abs(col.mean() - u * rise) <= 4 * math.sqrt(var / n)
            assert abs(col.var(ddof=1) - var) <= 4 * var * math.sqrt(2.0 / (n - 1))

    def test_tied_times_and_the_last_grid_point(self):
        # a time equal to the previous one takes its value, and so does a
        # second time at the last grid point
        free = np.array([0.0, 0.01, -0.02])
        times = np.array([0.4e-3, 0.4e-3, 2.0e-3, 2.0e-3])
        z = interpolate_free(free, times, 1e-3, np.random.default_rng(5))
        assert z[0] == z[1] and z[2] == z[3] == pytest.approx(-0.02, abs=1e-15)

    def test_times_in_distinct_steps_are_independent_draws(self):
        # one time per step: each value is drawn around the linear
        # interpolation of its step, with one normal per time in order
        dt = 1e-3
        free = np.cumsum(np.random.default_rng(3).normal(0.0, math.sqrt(dt), 11))
        times = np.array([0.2e-3, 1.7e-3, 2.0e-3, 5.99e-3, 9.5e-3])
        got = interpolate_free(free, times, dt, np.random.default_rng(4))
        pos = times / dt
        m = pos.astype(np.int64)
        u = pos - m
        want = (free[m] + u * (free[m + 1] - free[m])
                + np.sqrt(dt * u * (1.0 - u)) * np.random.default_rng(4).standard_normal(5))
        assert got.tobytes() == want.tobytes()


def test_crossing_probs_basic():
    """q = exp(-2ab/dt) of each step's wall distances a and b: 1-D in gives
    the same shape out, and an end on the wall gives exactly 1."""
    a = np.array([0.0, 0.1, 0.0, 5e-324, 0.02, 0.4, 0.05])
    b = np.array([0.4, 0.0, 0.0, 0.1, 0.05, 0.3, 0.07])
    q = step_crossing_probs(a, b, 0.01)
    assert q.shape == a.shape
    assert (q[:4] == 1.0).all()
    assert q.tobytes() == np.exp(-2.0 * a * b / 0.01).tobytes()
    assert 0.0 < q[5] < 1e-8 < q[4] < 1.0


def mod_fold(values, theta):
    """The fold as the formula theta - |np.mod(v, 2 theta) - theta|."""
    with np.errstate(invalid="ignore"):
        return theta - np.abs(np.mod(values, 2.0 * theta) - theta)


@pytest.mark.parametrize("theta", [1.0, np.pi, 0.3])
def test_fold_matches_mod_formula_bit_for_bit(theta):
    p = 2.0 * theta
    # tiny negatives: -1e-17 + p rounds to p, which np.mod returns as well
    edges = [0.0, -0.0, p, -p, 2 * p, -2 * p, theta, -theta, 3 * theta, -3 * theta,
             -1e-17, -1e-300, -np.finfo(float).eps * theta]
    vals = np.array(edges + [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)]
                    + [5e-324, -5e-324, 1e300, -1e300, 1e17 + 0.5, -7.25e12, np.inf, np.nan]
                    + list(np.random.default_rng(3).normal(0.0, 3.0 * theta, 501)))
    want = mod_fold(vals, theta)
    for v in (vals, vals.reshape(-1, 2)):
        with np.errstate(invalid="ignore"):
            got = fold_to_domain(v, DomainConfig(case=3, theta=theta))
        assert got.tobytes() == want.reshape(v.shape).tobytes()
        assert got is not v


def reference_bridges(domain, x, y, t, dt, n, rng, return_free=False):
    """sample_bridge_ensemble as one draw of the whole (n, steps) array,
    out of place: the reference for its row blocks."""
    e, wts = _images(domain, t, x, y)
    ends = e[rng.choice(len(e), size=n, p=wts / wts.sum())]
    n_steps = max(1, int(round(t / dt)))
    incs = rng.standard_normal((n, n_steps)) * np.sqrt(t / n_steps)
    w = np.concatenate([np.zeros((n, 1)), np.cumsum(incs, axis=1)], axis=1)
    w -= np.linspace(0.0, 1.0, n_steps + 1)[None, :] * (w[:, -1] - ends)[:, None]
    free = w + x
    folded = {1: free, 2: np.abs(free)}.get(domain.case)
    if folded is None:
        folded = mod_fold(free, domain.theta)
    return (folded, free) if return_free else folded


def test_free_bridges_match_out_of_place_formula():
    """Row-block bridges equal the whole-array formula bit for bit: one row,
    fewer rows than a block, whole blocks and a part block, every case, with
    and without the free paths."""
    t, dt = 0.5, 2e-4
    rows = block_rows(round(t / dt) + 1)
    assert 1 < rows < 100
    for dom, x in ((LINE, -0.3), (HALF, 0.05), (UNIT, 0.05), (DomainConfig(3, 0.3), 0.29)):
        for n in (1, rows - 1, 2 * rows, 2 * rows + 3):
            for return_free in (False, True):
                got = sample_bridge_ensemble(dom, x, x, t, dt, n, np.random.default_rng(n),
                                             return_free=return_free)
                want = reference_bridges(dom, x, x, t, dt, n, np.random.default_rng(n),
                                         return_free=return_free)
                for g, w in zip(got, want) if return_free else ((got, want),):
                    assert g.shape == (n, 2501)
                    assert g.tobytes() == w.tobytes(), (dom, n, return_free)
