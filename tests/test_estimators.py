import concurrent.futures
import itertools
import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from mvsao import estimators
from mvsao.estimators import (
    _Accumulator,
    _PathBatch,
    child_seed,
    color_patterns,
    derived_rng,
    fk_kernel_regular,
    rigidity_covariance,
    smooth_trace_moment,
    whitenoise_trace_moment,
)
from mvsao.experiment import DIRICHLET, ExperimentSpec, PotentialSpec
from mvsao.noise_model import (
    N_COMPONENTS,
    UNIT_NORMALIZATION,
    bump_scaled,
    mollified_profiles,
    pair_index,
    quaternion_block,
    sample_noise,
)
from mvsao.jump_process import singular_walk_times
from mvsao.stochastic_paths import (
    DomainConfig,
    log_wall_factor,
    sample_bridge_ensemble,
    step_crossing_probs,
    transition_density,
)
from test_acceptance import richardson_extrapolate
from test_jump_process import (
    colored_hist,
    frozen_batch,
    hist_norm2,
    norm2_at,
    poisson_product,
    walks,
)
from test_stochastic_paths import reference_bridges

PI = np.pi
SERIES = sum(np.exp(-(k**2) / 2.0) for k in range(1, 60))


def dirichlet_interval_spec(**kw):
    args = dict(domain=DomainConfig(case=3, theta=PI, r=1), kind="R", sigma2=0.0,
                upsilon2=0.0, ts=(1.0,), seed=1, alphas=(DIRICHLET,),
                betas=(DIRICHLET,), zetas=(0.1,), n_paths=10_000, n_quad=24)
    args.update(kw)
    return ExperimentSpec(**args)


def two_color_spec(**kw):
    r = kw.pop("r", 2)
    args = dict(domain=DomainConfig(case=3, theta=1.0, r=r), kind="R", sigma2=0.5,
                upsilon2=0.5, ts=(0.5,), seed=2, alphas=(DIRICHLET,) * r,
                betas=(DIRICHLET,) * r, n_paths=10_000, n_quad=16)
    args.update(kw)
    return ExperimentSpec(**args)


class TestColorPatterns:
    def test_symmetric_orbits(self):
        spec = two_color_spec(ts=(0.5, 0.5))
        pats = dict(color_patterns(spec))
        assert pats == {(1, 1): 2, (1, 2): 2}

    def test_symmetric_single_factor(self):
        assert color_patterns(two_color_spec()) == [((1,), 2)]

    def test_asymmetric_enumerates_all(self):
        spec = two_color_spec(alphas=(0.5, DIRICHLET))
        pats = color_patterns(spec)
        assert sorted(p for p, _ in pats) == [(1,), (2,)]
        assert all(m == 1 for _, m in pats)


class TestFkKernel:
    def test_heat_kernel_anchor_exact(self):
        spec = ExperimentSpec(domain=DomainConfig(case=1, r=1), kind="R",
                              sigma2=0.0, upsilon2=0.0, ts=(1.0,), seed=3,
                              x_max=8.0)
        est = fk_kernel_regular(spec, 1.0, (1, 0.0), (1, 0.0), None, eps=0.1,
                                n_paths=5000)
        assert est.value[0] == pytest.approx(1 / np.sqrt(2 * PI), rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_r1_reduction_matches_scalar_reference(self):
        # r = 1 with frozen noise: the kernel estimate must match a plain
        # scalar Feynman-Kac average (no jump factor, no color walk)
        rng = np.random.default_rng(11)
        noise = sample_noise("R", 1, 1.0, 0.0, (-6.0, 6.0, 4096), rng)
        spec = ExperimentSpec(domain=DomainConfig(case=1, r=1), kind="R",
                              sigma2=1.0, upsilon2=0.0, ts=(1.0,), seed=12,
                              x_max=6.0, dt=2e-3)
        t, x, y = 1.0, 0.1, -0.2
        est = fk_kernel_regular(spec, t, (1, x), (1, y), noise, eps=0.2,
                                n_paths=20_000)
        # independent scalar route on fresh paths
        from mvsao.stochastic_paths import sample_bridge_ensemble, transition_density
        prof = mollified_profiles(noise, 0.2)[0, 0]
        centers = noise.cell_centers()
        rng2 = np.random.default_rng(999)
        paths = sample_bridge_ensemble(DomainConfig(case=1), x, y, t, 2e-3,
                                       20_000, rng2)
        xi = np.interp(paths[:, :-1], centers, prof)
        w = np.exp(-(xi.sum(axis=1) * 2e-3))
        ref = transition_density(DomainConfig(case=1), t, x, y) * w.mean()
        se_ref = transition_density(DomainConfig(case=1), t, x, y) \
            * w.std(ddof=1) / np.sqrt(len(w))
        comb = np.hypot(est.stderr, se_ref)
        assert abs(est.value[0] - ref) <= 3 * comb

    @staticmethod
    def conjugate_setting():
        noise = sample_noise("C", 2, 0.5, 0.5, (-5.0, 5.0, 2048), np.random.default_rng(13))
        spec = ExperimentSpec(domain=DomainConfig(case=1, r=2), kind="C",
                              sigma2=0.5, upsilon2=0.5, ts=(1.0,),
                              potential=PotentialSpec(kind="linear", kappa=1.0),
                              seed=14, x_max=4.0, dt=2e-3)
        return spec, noise

    def test_kernel_conjugate_symmetry(self):
        spec, noise = self.conjugate_setting()
        ab = fk_kernel_regular(spec, 0.6, (1, 0.2), (2, -0.1), noise, eps=0.2,
                               n_paths=8000)
        ba = fk_kernel_regular(spec, 0.6, (2, -0.1), (1, 0.2), noise, eps=0.2,
                               n_paths=8000)
        # K(a, b) is the conjugate of K(b, a): (a, b, c, d) -> (a, -b, -c, -d)
        diff = ab.value - ba.value * np.array([1.0, -1.0, -1.0, -1.0])
        assert np.linalg.norm(diff) <= 3 * np.hypot(ab.stderr, ba.stderr)
        # a C run has no j or k part
        for est in (ab, ba):
            assert np.all(est.value[N_COMPONENTS["C"]:] == 0.0)

    @pytest.mark.parametrize("kind", ["C", "H"])
    def test_noise_entry_is_the_block_of_the_scaled_profile(self, kind):
        # the stored entry (1, 2) is the block of its interpolated, scaled
        # components; entry (2, 1), which a reversed jump reads, is its
        # conjugate transpose
        noise = sample_noise(kind, 2, 0.5, 0.5, (-5.0, 5.0, 2048), np.random.default_rng(13))
        spec = ExperimentSpec(domain=DomainConfig(case=1, r=2), kind=kind, sigma2=0.5,
                              upsilon2=0.5, ts=(1.0,), seed=14, x_max=4.0)
        field = estimators._MollifiedNoise(spec, noise, 0.2)
        profile = mollified_profiles(noise, 0.2)[pair_index(2)[1, 2]]
        for z in (-0.73, 0.0, 1.31):
            comps = (np.array([np.interp(z, noise.cell_centers(), p) for p in profile])
                     * UNIT_NORMALIZATION[kind] * np.sqrt(0.5))
            assert np.all(comps[N_COMPONENTS[kind]:] == 0.0)
            upper = field.entry(1, 2, z)
            np.testing.assert_allclose(upper, quaternion_block(*comps), rtol=1e-14, atol=0)
            np.testing.assert_array_equal(field.entry(2, 1, z), upper.conj().T)

    @pytest.mark.parametrize("noise_kind, noise_r, run_kind",
                             [("C", 2, "H"), ("C", 1, "C")], ids=["C-field-H-run", "r1-field-r2-run"])
    def test_rejects_noise_of_another_kind_or_r(self, noise_kind, noise_r, run_kind):
        # a C field in an H run used to return c = d = 0, and an r = 1 field
        # in an r = 2 run to raise IndexError
        noise = sample_noise(noise_kind, noise_r, 0.5, 0.5, (-5.0, 5.0, 2048),
                             np.random.default_rng(13))
        spec = ExperimentSpec(domain=DomainConfig(case=1, r=2), kind=run_kind, sigma2=0.5,
                              upsilon2=0.5, ts=(1.0,), seed=14, x_max=4.0, dt=2e-3)
        want = (f"noise field 0 is {noise_kind} with r = {noise_r}, "
                f"the run {run_kind} with r = 2")
        with pytest.raises(ValueError, match=want):
            fk_kernel_regular(spec, 0.6, (1, 0.2), (2, -0.1), noise, eps=0.2, n_paths=64)

    def test_rejects_bad_scales(self):
        spec = dirichlet_interval_spec()
        with pytest.raises(ValueError):
            fk_kernel_regular(spec, 1.0, (1, 0.1), (1, 0.1), None, eps=0.0)
        with pytest.raises(ValueError):
            fk_kernel_regular(spec, -1.0, (1, 0.1), (1, 0.1), None, eps=0.1)

    @pytest.mark.parametrize("a, b, n_paths", [((0, 0.5), (1, 0.5), 64), ((1, 0.5), (3, 0.5), 64),
                                                ((1, 0.5), (1, 0.5), 0), ((1, 0.5), (1, 0.5), -4)],
                             ids=["color-0", "color-3", "no-paths", "negative-paths"])
    def test_rejects_bad_colors_and_path_counts(self, a, b, n_paths):
        spec = two_color_spec(alphas=(0.0, 0.0), betas=(0.0, 0.0))
        with pytest.raises(ValueError):
            fk_kernel_regular(spec, 0.5, a, b, None, eps=0.1, n_paths=n_paths)

    def test_noise_free_kernel_is_diagonal_heat_kernel(self):
        # without noise the semigroup acts on each color alone: a path that
        # jumps weighs 0, so the diagonal kernel is p_t and the other is 0
        spec = two_color_spec(alphas=(0.0, 0.0), betas=(0.0, 0.0))
        same = fk_kernel_regular(spec, 0.5, (1, 0.3), (1, 0.6), None, eps=0.1, n_paths=2000)
        want = transition_density(spec.domain, 0.5, 0.3, 0.6)
        assert same.stderr > 0
        assert abs(same.value[0] - want) <= 3 * same.stderr
        assert np.all(same.value[1:] == 0.0)
        other = fk_kernel_regular(spec, 0.5, (1, 0.3), (2, 0.6), None, eps=0.1, n_paths=2000)
        assert np.all(other.value == 0.0) and other.stderr == 0.0

    def test_chunk_memory(self):
        """The conjugate-symmetry test's ab call, one chunk of 8000 paths x
        300 steps (19 MB of paths), peaks under 60 MB (tracemalloc)."""
        spec, noise = self.conjugate_setting()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fk_kernel_regular(spec, 0.6, (1, 0.2), (2, -0.1), noise, eps=0.2, n_paths=8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 60e6

    def test_non_dividing_dt_rejected(self):
        # the moment estimators' dt rule: no silent rescaling to t / round(t / dt)
        spec = dirichlet_interval_spec(dt=3e-3)
        with pytest.raises(ValueError, match="does not divide"):
            fk_kernel_regular(spec, 1.0, (1, 0.1), (1, 0.1), None, eps=0.1, n_paths=64)


class TestSmoothMoment:
    def test_dirichlet_series_anchor(self):
        est = smooth_trace_moment(dirichlet_interval_spec(n_paths=20_000))
        assert est.value == pytest.approx(SERIES, rel=0.03)
        assert abs(est.value - SERIES) <= 4 * est.stderr + 0.02 * SERIES

    def test_two_identical_colors_double_scalar(self):
        scalar = smooth_trace_moment(dirichlet_interval_spec(seed=21))
        doubled = smooth_trace_moment(ExperimentSpec(
            domain=DomainConfig(case=3, theta=PI, r=2), kind="R", sigma2=0.0,
            upsilon2=0.0, ts=(1.0,), seed=22, alphas=(DIRICHLET,) * 2,
            betas=(DIRICHLET,) * 2, zetas=(0.1,), n_paths=10_000, n_quad=24))
        comb = np.hypot(2 * scalar.stderr, doubled.stderr)
        assert abs(doubled.value - 2 * scalar.value) <= 3 * comb

    def test_zeta_invariance_without_offdiag_noise(self):
        base = two_color_spec(upsilon2=0.0, sigma2=0.3, eps=(0.1,), zetas=(0.1,))
        a = smooth_trace_moment(base)
        b = smooth_trace_moment(replace(base, zetas=(0.05,)))
        assert a.value == b.value and a.stderr == b.stderr

    def test_requires_zeta_for_offdiagonal_noise(self):
        spec = two_color_spec(zetas=(0.0,))
        with pytest.raises(ValueError):
            smooth_trace_moment(spec)

    def test_determinism_and_workers(self):
        spec = two_color_spec(zetas=(0.1,), eps=(0.1,), n_paths=2000, n_quad=8)
        a = smooth_trace_moment(spec)
        b = smooth_trace_moment(spec)
        c = smooth_trace_moment(spec, workers=2)
        assert a.value == b.value == c.value
        assert a.stderr == b.stderr == c.stderr

    def test_discards_reported_and_warned(self):
        spec = two_color_spec(zetas=(0.1,), n_paths=800, n_max=0, n_quad=8)
        est = smooth_trace_moment(spec)
        assert est.n_discarded > 0
        assert est.discard_rate > 0.01
        assert any("discard" in w for w in est.warnings)

    def test_max_weight_share_bounds(self):
        est = smooth_trace_moment(two_color_spec(zetas=(0.1,), n_paths=3000,
                                                 n_quad=8))
        assert 0.0 < est.max_weight_share < 1.0


class TestWhiteMoment:
    def test_small_sigma_recovers_deterministic_series(self):
        spec = dirichlet_interval_spec(sigma2=1e-6, zetas=None, n_paths=20_000)
        est = whitenoise_trace_moment(spec)
        assert abs(est.value - SERIES) <= 4 * est.stderr + 0.02 * SERIES

    def test_r1_reduces_to_scalar_white_noise(self):
        # scalar white-noise trace at sigma > 0 must exceed the noiseless one
        spec = dirichlet_interval_spec(sigma2=1.0, zetas=None, n_paths=20_000)
        est = whitenoise_trace_moment(spec)
        assert est.value > SERIES
        assert est.n_discarded == 0  # r = 1 never jumps

    def test_rejects_mollified_scales(self):
        with pytest.raises(ValueError):
            whitenoise_trace_moment(two_color_spec(zetas=(0.1,)))

    def test_determinism(self):
        spec = two_color_spec(n_paths=2000, n_quad=8)
        a = whitenoise_trace_moment(spec)
        b = whitenoise_trace_moment(spec, workers=2)
        assert a.value == b.value

    @pytest.mark.parametrize("cores, started", [(1, None), (3, 3), (64, 4)])
    def test_pool_capped_by_tasks_and_cores(self, monkeypatch, cores, started):
        # the fake pool records its size and maps in-process: no count that
        # reaches it starts a process.  Four nodes of 200 paths each fill a
        # row block of their 1000 steps (130 rows), so none packs: four tasks
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        spec = two_color_spec(n_paths=800, n_quad=4)  # one color pattern, 4 nodes
        est = whitenoise_trace_moment(spec, workers=4096)
        assert sizes == ([] if started is None else [started])
        assert est == whitenoise_trace_moment(spec)
        # the same four nodes at 16 paths each pack into one chunk: one task
        sizes.clear()
        whitenoise_trace_moment(replace(spec, n_paths=64), workers=4096)
        assert sizes == []

    @pytest.mark.parametrize("spec, tasks, per_node, chunk", [
        (two_color_spec(ts=(0.5, 0.5), n_paths=1152, n_quad=6, dt=5e-4), [9] * 8, 16, 2097),
        (two_color_spec(ts=(0.5,), n_paths=300, n_quad=2, dt=5e-6), [1, 1], 150, 64)],
        ids=["packed", "split"])
    def test_workers_byte_identical(self, spec, tasks, per_node, chunk):
        """Nodes of 16 paths that pack 9 to a chunk (a row block of 1000
        steps is 130 rows; two patterns of 36 nodes), and nodes of 150 paths
        that split into chunks of 64, 64 and 22 (100000 steps), give the same
        output for 1 and 2 workers."""
        seen = []

        def spy(task):
            seen.append((len(task[3]), task[5]))
            return run_task(task)

        run_task = estimators._chunk_stats
        with mock.patch("mvsao.estimators._chunk_stats", spy):
            one = whitenoise_trace_moment(spec)
        assert seen == [(nodes, per_node) for nodes in tasks]
        assert estimators._chunk_rows(spec) == chunk
        two = whitenoise_trace_moment(spec, workers=2)
        assert repr(one) == repr(two)
        assert one.n_paths + one.n_discarded == sum(tasks) * per_node


class TestPoissonConditioningIdentity:
    def test_frozen_path_product_identity(self):
        # E over the walk of prod eta(Z(tau_k)) = exp((r-1)(int eta - t))
        rng = np.random.default_rng(31)
        dom = DomainConfig(case=3, theta=1.0, r=3)
        t, dt = 1.0, 1e-3
        path = sample_bridge_ensemble(dom, 0.4, 0.7, t, dt, 1, rng)[0]

        def eta(x):
            return 0.6 + 0.3 * np.cos(2.0 * x)

        n = 40_000
        r = 3
        jumps = walks(r, [(t, 1)], n, rng)
        idx = np.minimum((jumps.times / dt).astype(int), len(path) - 2)
        prods = poisson_product(jumps, eta(path[idx]), n)
        want = np.exp((r - 1) * (eta(path[:-1]).sum() * dt - t))
        se = prods.std(ddof=1) / np.sqrt(n)
        assert abs(prods.mean() - want) <= 4 * se


def every_row(batch, steps):
    """Every row of a batch, each holding the step colors steps."""
    return np.arange(batch.n), np.tile(np.asarray(steps, dtype=np.uint8), (batch.n, 1))


class TestConstantColorFastPaths:
    """A batch's constant-color weights agree with its per-step weights fed
    the same constant step colors."""

    @pytest.mark.parametrize("alphas,betas", [
        ((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 1.0)), ((-1.0, -1.0), (-1.0, -1.0)),
        ((DIRICHLET,) * 2, (DIRICHLET,) * 2), ((0.7, DIRICHLET), (DIRICHLET, -1.0))])
    def test_constant_colors_match_per_step(self, alphas, betas):
        spec = two_color_spec(alphas=alphas, betas=betas, ts=(0.25, 0.25), dt=5e-4)
        batch = _PathBatch(spec, (0.02, 0.97), 6, np.random.default_rng(3))
        for colors in ((1, 1), (1, 2), (2, 1)):
            steps = np.repeat(colors, batch.seg_steps)
            rows, per_row = every_row(batch, steps)
            np.testing.assert_allclose(batch.exponent_steps(rows, per_row),
                                       batch.exponent_constant(colors), rtol=1e-12, atol=1e-12)
            norms = batch.norm2_steps(rows, per_row)
            np.testing.assert_allclose(norms, batch.norm2_constant(colors), rtol=1e-12)
            for s in range(batch.n):
                hist = colored_hist(batch, s, steps)
                np.testing.assert_array_equal(hist.sum(axis=0), batch.full_hist[s])
                for i in (1, 2):
                    ks = [k for k, c in enumerate(colors) if c == i]
                    np.testing.assert_array_equal(hist[i - 1], batch.seg_hist[s, ks].sum(axis=0))
                assert norms[s] == hist_norm2(batch, hist)


def smoothed_norm2_reference(batch, colors, step_colors):
    """The mollified local-time norm in mass units, the reference for
    norm2_constant and norm2_steps: per color, the segments' histograms
    times dt/h, each convolved with its segment's bump kernel, summed,
    squared and integrated against h.  For every sample, segment k holding
    colors[k], and for sample 0 with per-step colors step_colors."""
    from scipy.ndimage import convolve1d

    mass, h = batch.dt / batch.h, batch.h
    bounds = batch.seg_bounds
    kernels = []
    for e in batch.spec.eps_vector():
        half = int(np.ceil(e / h))
        kern = bump_scaled(np.arange(-half, half + 1) * h, e) * h if e > 0 else None
        kernels.append(None if kern is None else kern / kern.sum())

    def field(parts):
        out = 0.0
        for k, part in parts:
            kern = kernels[k]
            out = out + (part if kern is None else convolve1d(part, kern, axis=-1,
                                                              mode="constant", cval=0.0))
        return out

    constant = 0.0
    for i in set(colors):
        parts = [(k, batch.seg_hist[:, k, :] * mass) for k, c in enumerate(colors) if c == i]
        constant = constant + (field(parts) ** 2).sum(axis=1) * h
    sample = 0.0
    for i in range(1, batch.spec.domain.r + 1):
        parts = []
        for k in range(len(bounds) - 1):
            mask = step_colors[bounds[k]:bounds[k + 1]] == i
            bins = batch.step_bins[0, bounds[k]:bounds[k + 1]][mask]
            parts.append((k, np.bincount(bins, minlength=batch.n_bins) * mass))
        sample += float((field(parts) ** 2).sum() * h)
    return constant, sample


class TestSmoothedNorm:
    """norm2_constant and norm2_steps with mollifier kernels: the smooth
    route's ||sum_k L_k * bump_{eps_k}||^2."""

    @pytest.mark.parametrize("eps", [(0.0, 0.1), (0.1, 0.05)])
    def test_matches_mass_unit_formula(self, eps):
        spec = two_color_spec(ts=(0.25, 0.25), dt=5e-4, eps=eps, zetas=(0.1, 0.1),
                              alphas=(0.0, 0.0), betas=(0.0, 0.0))
        batch = _PathBatch(spec, (0.3, 0.6), 5, np.random.default_rng(9))
        assert [k is None for k in batch.kernels] == [e == 0.0 for e in eps]
        for colors in ((1, 1), (1, 2), (2, 1)):
            steps = np.repeat(colors, batch.seg_steps)
            constant = batch.norm2_constant(colors)
            np.testing.assert_allclose(batch.norm2_steps(*every_row(batch, steps)),
                                       constant, rtol=1e-12)
            want_constant, _ = smoothed_norm2_reference(batch, colors, steps)
            np.testing.assert_allclose(constant, want_constant, rtol=1e-12)
        # per-step colors that change inside the segments
        steps = np.random.default_rng(10).integers(1, 3, batch.total_steps)
        _, want_sample = smoothed_norm2_reference(batch, (1, 2), steps)
        assert norm2_at(batch, 0, steps) == pytest.approx(want_sample, rel=1e-12)


def dense_wall_terms(spec, folded, dt):
    """(colors holding the weight, its log factor at every step) for each
    distinct nonzero weight of each wall, from q over every step of every
    path: the reference for the near-wall cut."""
    bounds = np.cumsum([0] + [f.shape[1] - 1 for f in folded])
    terms = []
    walls = [(0.0, spec.alphas), (spec.domain.theta, spec.betas)]
    for point, weights in walls[:spec.domain.case - 1]:
        weights = np.asarray(weights, dtype=float)
        near = []
        for f, lo in zip(folded, bounds):
            a, b = np.abs(f[:, :-1] - point), np.abs(f[:, 1:] - point)
            rows, cols = np.nonzero(step_crossing_probs(a, b, dt) > 1e-17)
            near.append((rows, lo + cols, a[rows, cols], b[rows, cols]))
        for alpha in np.unique(weights[weights != 0.0]):
            logs = np.zeros((folded[0].shape[0], bounds[-1]))
            for rows, steps, a, b in near:
                logs[rows, steps] = log_wall_factor(a, b, dt, alpha)
            terms.append((weights == alpha, logs))
    return terms


def dense_exponent(spec, folded, step_colors, diagonal=None):
    """Every path's -int diagonal + wall logs when step m holds color
    step_colors[m], from the whole arrays: the potential (default diagonal)
    over the concatenated step values and the dense wall logs."""
    dt, r, pot = spec.resolved_dt(), spec.domain.r, spec.potential
    diagonal = diagonal or (lambda colors, x: pot.values(colors, x, r))
    values = np.concatenate([f[:, :-1] for f in folded], axis=1)
    out = -diagonal(step_colors, values).sum(axis=1) * dt
    for held, logs in dense_wall_terms(spec, folded, dt):
        out += np.where(held[step_colors - 1], logs, 0.0).sum(axis=1)
    return out


def assert_exponent_matches_dense(batch, folded, diagonal=None):
    """exponent_constant and exponent_steps of a batch over the folded
    paths against dense_exponent: every constant color tuple, and per-step
    colors that change inside the segments."""
    r = batch.spec.domain.r
    rng = np.random.default_rng(7)
    for colors in itertools.product(range(1, r + 1), repeat=len(folded)):
        steps = np.repeat(colors, batch.seg_steps)
        want = dense_exponent(batch.spec, folded, steps, diagonal)
        np.testing.assert_allclose(batch.exponent_constant(colors), want, rtol=1e-12)
        np.testing.assert_allclose(batch.exponent_steps(*every_row(batch, steps)),
                                   want, rtol=1e-12)
    for _ in range(2):
        steps = rng.integers(1, r + 1, batch.total_steps)
        np.testing.assert_allclose(batch.exponent_steps(*every_row(batch, steps)),
                                   dense_exponent(batch.spec, folded, steps, diagonal),
                                   rtol=1e-12)
    # rows in any order, each with its own step colors
    rows = rng.permutation(batch.n)[:4]
    steps = rng.integers(1, r + 1, (len(rows), batch.total_steps))
    want = [dense_exponent(batch.spec, folded, row_steps, diagonal)[s]
            for s, row_steps in zip(rows, steps)]
    np.testing.assert_allclose(batch.exponent_steps(rows, steps.astype(np.uint8)), want,
                               rtol=1e-12)


def near_wall_paths(domain, dt, n_rows, n_steps, rng):
    """Frozen paths whose steps touch a wall, step beyond it and have ends
    on both sides of, and just inside and outside, the near-wall reach
    sqrt(20 dt); the last two of them keep sqrt(10 dt) or more from the
    walls, so each of their factors is within 1e-8 of 1; also two rows of
    folded bridges started at the wall."""
    reach = np.sqrt(20.0 * dt)
    dists = np.concatenate([[0.0, 5e-324, 1e-12, -1e-3, -0.05],
                            reach * np.array([0.5, 0.9, 0.999, 1.0 - 1e-15, 1.0,
                                              1.0 + 1e-15, 1.001, 1.1, 2.0]),
                            np.sqrt(dt * np.array([10.0, 12.0, 15.0, 19.9])),
                            rng.uniform(0.0, 2.0 * reach, 40)])
    walls = [0.0] if domain.case == 2 else [0.0, domain.theta]
    d = rng.choice(dists, size=(n_rows, n_steps + 1))
    d[-2:] = rng.choice(dists[dists >= np.sqrt(10.0 * dt)], size=(2, n_steps + 1))
    wall = rng.choice(len(walls), size=d.shape)
    rows = np.where(wall == 0, d, domain.theta - d if domain.case == 3 else d)
    bridges = sample_bridge_ensemble(domain, 0.0, 0.0, n_steps * dt, dt, 2, rng)
    return np.concatenate([rows, bridges])


class TestNearWallCut:
    """A batch evaluates wall factors only on steps with an end within
    sqrt(20 dt) of the wall; every other step's factor is exactly 1, so its
    exponent equals that of the dense computation."""

    @pytest.mark.parametrize("case,alphas,betas", [
        (3, (1.0, 1.0), (1.0, 1.0)), (3, (-1.0, -1.0), (-1.0, -1.0)),
        (3, (DIRICHLET,) * 2, (DIRICHLET,) * 2), (3, (0.7, DIRICHLET), (DIRICHLET, -1.0)),
        (3, (0.0, 1.0), (-1.0, 0.0)),
        (2, (1.0, 1.0), None), (2, (-1.0, -1.0), None), (2, (DIRICHLET,) * 2, None),
        (2, (DIRICHLET, -1.0), None)])
    def test_matches_dense_terms(self, case, alphas, betas):
        dt = 1e-3
        domain = DomainConfig(case=case, theta=1.0 if case == 3 else None, r=2)
        spec = ExperimentSpec(domain=domain, kind="R", sigma2=0.0, upsilon2=0.0,
                              ts=(0.3, 0.2), seed=1, alphas=alphas, betas=betas,
                              x_max=4.0, dt=dt)
        rng = np.random.default_rng(41)
        folded = [near_wall_paths(domain, dt, 30, m, rng) for m in spec.step_counts()]
        assert_exponent_matches_dense(frozen_batch(spec, folded), folded)
        # the cut is not vacuous: some steps beyond it carry no factor, and
        # some steps just inside sqrt(20 dt) carry one
        terms = dense_wall_terms(spec, folded, dt)
        assert terms and all((logs == 0.0).any() and (logs != 0.0).any() for _, logs in terms)


def parent_rule_walls(spec, folded, dt):
    """Per wall, as _PathBatch.walls holds them: the rows, global steps and
    per-weight logs of the steps whose q exceeds 1e-17, and the exponents
    per segment and color, from the rule applied to every step of the whole
    arrays: the signed distances d1, d2 of a step's ends to the wall,
    q = exp(-2 d1 d2 / dt) where both are positive and 1 where either is
    not, and the log factor of |d1|, |d2|."""
    bounds = np.cumsum([0] + [f.shape[1] - 1 for f in folded])
    exponent = np.zeros((len(folded[0]), len(folded), spec.domain.r))
    walls = []
    sides = [(0.0, 1.0, spec.alphas), (spec.domain.theta, -1.0, spec.betas)]
    for point, sign, weights in sides[:spec.domain.case - 1]:
        weights = np.asarray(weights, dtype=float)
        if not weights.any():
            continue
        alphas = np.unique(weights[weights != 0.0])
        found = []
        for k, f in enumerate(folded):
            d1, d2 = sign * (f[:, :-1] - point), sign * (f[:, 1:] - point)
            inside = (d1 > 0.0) & (d2 > 0.0)
            with np.errstate(over="ignore"):
                q = np.where(inside, np.exp(-2.0 * d1 * d2 / dt), 1.0)
            rows, cols = np.nonzero(q > 1e-17)
            a, b = np.abs(f[rows, cols] - point), np.abs(f[rows, cols + 1] - point)
            logs = [log_wall_factor(a, b, dt, alpha) for alpha in alphas]
            for alpha, w in zip(alphas, logs):
                exponent[:, k, weights == alpha] += np.bincount(
                    rows, weights=w, minlength=len(f))[:, None]
            found.append((rows, cols + bounds[k], logs))
        walls.append((np.concatenate([piece[0] for piece in found]),
                      np.concatenate([piece[1] for piece in found]),
                      [(weights == alpha, np.concatenate([piece[2][j] for piece in found]))
                       for j, alpha in enumerate(alphas)]))
    return walls, exponent


def cut_paths(domain, dt, n_rows, n_steps, rng):
    """Frozen paths in the closed domain whose ends lie on a wall, a hair
    off it, on both sides of the 1e-17 cut (2 a b / dt = -log 1e-17 for
    a = b) and anywhere within twice the near-wall reach of a wall."""
    cut = np.sqrt(-np.log(1e-17) * dt / 2.0)
    dists = np.concatenate([[0.0, 5e-324, 1e-12],
                            cut * (1.0 + np.array([-1e-9, -1e-12, 1e-12, 1e-9])),
                            rng.uniform(0.0, 2.0 * np.sqrt(20.0 * dt), 30)])
    d = rng.choice(dists, size=(n_rows, n_steps + 1))
    # rows held on either side of the cut, whose every step is on that side
    d[:2] = cut * (1.0 + np.array([[-1e-9], [1e-9]]))
    if domain.case == 2:
        return d
    return np.where(rng.random(d.shape) < 0.5, d, domain.theta - d)


class TestNearWallPassBitExact:
    """The near-wall pass keeps exactly the steps whose q exceeds 1e-17, in
    (segment, row, step) order, with the logs and the exponents of the rule
    applied to every step of the whole arrays, bit for bit, in row blocks
    whose height does not divide the row count."""

    @pytest.mark.parametrize("case,alphas,betas", [
        (3, (1.0, 1.0), (-1.0, -1.0)), (3, (DIRICHLET,) * 2, (DIRICHLET,) * 2),
        (3, (0.7, DIRICHLET), (DIRICHLET, -1.0)), (3, (0.0, 0.0), (1.0, 0.0)),
        (2, (-1.0, 1.0), None), (2, (DIRICHLET, DIRICHLET), None)])
    def test_walls_and_exponents_equal_the_rule(self, case, alphas, betas):
        dt = 1e-3
        domain = DomainConfig(case=case, theta=1.0 if case == 3 else None, r=2)
        spec = ExperimentSpec(domain=domain, kind="R", sigma2=0.0, upsilon2=0.0,
                              ts=(0.03, 0.02), seed=1, alphas=alphas, betas=betas,
                              x_max=4.0, dt=dt)
        rng = np.random.default_rng(43)
        folded = [cut_paths(domain, dt, 33, m, rng) for m in spec.step_counts()]
        # blocks of 7 rows: 33 rows leave a last block of 5
        with mock.patch("mvsao.estimators.block_rows", lambda width: 7):
            batch = frozen_batch(spec, folded)
        walls, exponent = parent_rule_walls(spec, folded, dt)
        assert np.array_equal(batch.seg_exponent, exponent)
        assert len(batch.walls) == len(walls)
        for (rows, steps, terms), (want_rows, want_steps, want_terms) in zip(batch.walls, walls):
            assert np.array_equal(rows, want_rows) and np.array_equal(steps, want_steps)
            assert len(terms) == len(want_terms)
            for (held, logs), (want_held, want_logs) in zip(terms, want_terms):
                assert np.array_equal(held, want_held)
                assert logs.tobytes() == want_logs.tobytes()
            # the cut is not vacuous: the rows held beside it, every step on
            # the wall (Dirichlet: a log of -inf) and the last block all count
            assert 0 in rows and 1 not in rows and 32 in rows
        if DIRICHLET in alphas:
            assert any(np.isneginf(logs).any() for _, logs in batch.walls[0][2])


class TestNarrowStepBins:
    """_PathBatch stores step bins in the narrowest unsigned type; bin
    counts, the colored local-time norm and the singular walks' draws equal
    those from int64 bins."""

    @pytest.mark.parametrize("h,dtype", [(0.05, np.uint8), (2e-3, np.uint16),
                                         (1e-5, np.uint32)])
    def test_same_as_int64_bins(self, h, dtype):
        spec = two_color_spec(ts=(0.25, 0.25), dt=5e-4, h=h)
        batch = _PathBatch(spec, (0.3, 0.6), 4, np.random.default_rng(5))
        assert batch.step_bins.dtype == dtype
        wide = batch.step_bins.astype(np.int64)
        steps = np.repeat((1, 2), batch.seg_steps)
        for s in range(batch.n):
            np.testing.assert_array_equal(np.argsort(batch.step_bins[s], kind="stable"),
                                          np.argsort(wide[s], kind="stable"))
            flat = (steps - 1) * batch.n_bins + wide[s]
            hist = np.bincount(flat, minlength=2 * batch.n_bins).reshape(2, batch.n_bins)
            np.testing.assert_array_equal(hist.sum(axis=0), batch.full_hist[s])
            assert norm2_at(batch, s, steps) == hist_norm2(batch, hist)
        draws = []
        for bins in (batch.step_bins, wide):
            drawn = singular_walk_times(bins, batch.full_hist, np.full(batch.n, 200), batch.dt,
                                        batch.seg_bounds, np.random.default_rng(5))
            draws.append(b"".join(np.asarray(a).tobytes() for a in drawn))
        assert draws[0] == draws[1]


def reference_batch(spec, xs, n, rng, ys=None):
    """A batch's arrays built the whole-array way: all segments' bridges,
    their concatenated step values, float bins over the whole array and one
    bincount per segment."""
    dt, h = spec.resolved_dt(), spec.resolved_h()
    folded, free = zip(*[reference_bridges(spec.domain, x, y, t, dt, n, rng, return_free=True)
                         for x, y, t in zip(xs, ys or xs, spec.ts)])
    values = np.concatenate([f[:, :-1] for f in folded], axis=1)
    pad = max([int(np.ceil(e / h)) + 1 for e in spec.eps_vector() if e > 0], default=0)
    lo = max(int(np.floor(values.min() / h)) - pad, 0)
    hi = min(int(np.floor(values.max() / h)) + pad, int(np.floor(spec.domain.theta / h)))
    n_bins = hi - lo + 1
    bins = np.clip(np.floor(values / h) - lo, 0, n_bins - 1).astype(np.min_scalar_type(n_bins - 1))
    bounds = np.cumsum([0] + [f.shape[1] - 1 for f in folded])
    seg_hist = np.stack([np.bincount((np.arange(n)[:, None] * n_bins + bins[:, a:b]).ravel(),
                                     minlength=n * n_bins).reshape(n, n_bins)
                         for a, b in zip(bounds, bounds[1:])], axis=1).astype(float)
    return dict(folded=folded, free=free, step_values=values, step_bins=bins,
                seg_hist=seg_hist, full_hist=seg_hist.sum(axis=1))


class TestLeanBatch:
    """_PathBatch builds its arrays in row blocks and keeps only what the
    weights read; the arrays equal a whole-array build bit for bit."""

    TABLE = PotentialSpec(kind="tabulated", table_x=(0.0, 0.4, 1.0),
                          table_v=((0.0, 1.5, 0.5), (2.0, 0.1, 0.3)))

    @pytest.mark.parametrize("potential", [PotentialSpec(), PotentialSpec(kind="sao"), TABLE],
                             ids=["zero", "sao", "tabulated"])
    @pytest.mark.parametrize("keep_free", [False, True], ids=["white", "smooth"])
    def test_arrays_match_whole_array_build(self, potential, keep_free):
        # the smooth route's batch pads the bins by its mollifier width
        eps = (0.1, 0.1) if keep_free else None
        spec = two_color_spec(ts=(0.3, 0.2), dt=2e-4, potential=potential, eps=eps, zetas=eps,
                              alphas=(0.7, DIRICHLET), betas=(DIRICHLET, -1.0))
        n = 150  # two row blocks or more per segment
        batch = _PathBatch(spec, (0.05, 0.6), n, np.random.default_rng(4), keep_free=keep_free)
        want = reference_batch(spec, (0.05, 0.6), n, np.random.default_rng(4))
        for name in ("step_bins", "seg_hist", "full_hist"):
            got = getattr(batch, name)
            assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), name
        assert len(batch.free) == (2 if keep_free else 0)
        for got, ref in zip(batch.free, want["free"]):
            assert got.tobytes() == ref.tobytes()
        assert not hasattr(batch, "folded")
        if potential is self.TABLE:
            assert batch.step_values.tobytes() == want["step_values"].tobytes()
        else:
            assert batch.step_values is None
        assert_exponent_matches_dense(batch, want["folded"])

    @pytest.mark.parametrize("segments", [1, 2])
    def test_kernel_inputs(self, segments):
        """The kernel's inputs: bridges to the endpoints ys, a color-dependent
        diagonal function (with a zero potential) and no bins."""
        ts, xs, ys = (0.3, 0.2)[:segments], (0.05, 0.6)[:segments], (0.9, 0.3)[:segments]
        spec = two_color_spec(ts=ts, dt=2e-4, alphas=(0.7, DIRICHLET), betas=(DIRICHLET, -1.0))

        def diagonal(colors, x):
            return np.cos(np.asarray(colors) * x)

        n = 150
        batch = _PathBatch(spec, xs, n, np.random.default_rng(4), keep_free=True, ys=ys,
                           diagonal=diagonal, bins=False)
        want = reference_batch(spec, xs, n, np.random.default_rng(4), ys=ys)
        assert not any(hasattr(batch, name) for name in ("step_bins", "seg_hist", "full_hist"))
        for got, ref in zip(batch.free, want["free"]):
            assert got.tobytes() == ref.tobytes()
        for f, y in zip(want["folded"], ys):
            assert np.allclose(f[:, -1], y, rtol=0, atol=1e-12)
        assert batch.step_values.tobytes() == want["step_values"].tobytes()
        assert_exponent_matches_dense(batch, want["folded"], diagonal)

    def test_neumann_white_chunk_memory(self):
        """A Neumann white chunk of 500 paths x 2500 steps (a 10 MB path
        array) peaks under 20 MB while it is built and keeps under 3 MB."""
        spec = two_color_spec(alphas=(0.0, 0.0), betas=(0.0, 0.0), dt=2e-4)
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            batch = _PathBatch(spec, (0.5,), 500, rng)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.total_steps == 2500
        assert peak - start < 20e6
        assert kept - start < 3e6

    def test_dirichlet_smooth_chunk_memory(self):
        """A Dirichlet smooth chunk of 1250 paths x 1000 steps started near a
        wall keeps under 20 MB, 10 MB of it the unfolded paths: each wall
        keeps its logs at the near-wall steps alone.  It peaks under 50 MB,
        20 MB of it the folded and unfolded paths: the near-wall search runs
        one row block at a time."""
        spec = two_color_spec(dt=5e-4, eps=(0.1,), zetas=(0.1,))
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            batch = _PathBatch(spec, (0.05,), 1250, rng, keep_free=True)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.total_steps == 1000
        assert kept - start < 20e6
        assert peak - start < 50e6


class TestUnbiasedStderr:
    """Both routes divide a node's (the kernel's) sum of squared deviations
    by n - 1, as the oracle does: with known weights w at one node, the
    error bar relative to the estimate is std(w, ddof=1) / (mean(w) sqrt(n))."""

    W = np.array([1.0, 2.0, 3.0, 6.0])
    WANT = W.std(ddof=1) / (W.mean() * np.sqrt(len(W)))

    def test_moment_route(self):
        spec = dirichlet_interval_spec(zetas=None, n_quad=1)
        acc = _Accumulator(1)
        acc.add_batch(np.zeros(len(self.W), dtype=np.int64), self.W, 0)
        with mock.patch("mvsao.estimators._chunk_stats", lambda task: acc):
            est = whitenoise_trace_moment(spec)
        assert est.stderr / est.value == pytest.approx(self.WANT, rel=1e-12)


    def test_kernel(self):
        # r = 1: no walk jumps, so every weight is exp(exponent_constant)
        logs = np.log(self.W)
        with mock.patch.object(_PathBatch, "exponent_constant", lambda batch, colors: logs):
            est = fk_kernel_regular(dirichlet_interval_spec(), 1.0, (1, 0.5), (1, 0.5), None,
                                    eps=0.1, n_paths=len(logs))
        assert est.stderr / est.value[0] == pytest.approx(self.WANT, rel=1e-12)


class TestAccumulator:
    """Per-node statistics merged chunk by chunk (Chan-Golub-LeVeque)."""

    def test_large_offset_variance(self):
        # weights 1e8 + O(1): the sum of squares minus n mean^2 cancels to
        # about 1e-16 * 1e16 = 1, the merged M2 keeps the variance
        rng = np.random.default_rng(8)
        w = 1e8 + rng.standard_normal(4000)
        node = np.repeat([0, 1], 2000)
        acc = _Accumulator(2)
        for lo in range(0, 4000, 300):
            acc.add_batch(node[lo:lo + 300], w[lo:lo + 300], 0)
        for k in (0, 1):
            mine = w[node == k]
            want = np.var(mine - 1e8, ddof=1)
            assert acc.m2[k] / (acc.n[k] - 1) == pytest.approx(want, rel=1e-6)
            assert acc.mean[k] == pytest.approx(mine.mean(), rel=1e-15)
            cancelled = (mine @ mine / len(mine) - mine.mean() ** 2) * len(mine) / (len(mine) - 1)
            assert abs(cancelled - want) > 1e-3 * want
        assert acc.n.tolist() == [2000, 2000]

    def test_merge_matches_two_pass(self):
        rng = np.random.default_rng(9)
        w = rng.exponential(size=500)
        node = rng.integers(0, 5, 500)
        acc = _Accumulator(6)  # node 5 gets no sample
        for lo in (0, 7, 100, 101, 350):
            acc.add_batch(node[lo:lo + 93], w[lo:lo + 93], 1)
        rows = np.concatenate([np.arange(lo, min(lo + 93, 500)) for lo in (0, 7, 100, 101, 350)])
        for k in range(6):
            mine = w[rows][node[rows] == k]
            assert acc.n[k] == len(mine)
            if len(mine):
                assert acc.mean[k] == pytest.approx(mine.mean(), rel=1e-13)
                assert acc.m2[k] == pytest.approx(((mine - mine.mean()) ** 2).sum(), rel=1e-12)
                assert acc.max_abs[k] == mine.max()
        assert acc.n_discarded == 5

class TestRigidityCovariance:
    def test_zero_noise_vanishes(self):
        spec = two_color_spec(sigma2=0.0, upsilon2=0.0, alphas=(0.0, 0.0),
                              betas=(0.0, 0.0), n_paths=6000, dt=1e-3)
        est = rigidity_covariance(spec, 0.5, 0.25)
        assert abs(est.value) <= 3 * est.stderr + 1e-6

    def test_t_range_validated(self):
        with pytest.raises(ValueError):
            rigidity_covariance(two_color_spec(), 0.5, 1.5)


class TestRichardson:
    def test_exact_power_law_recovery(self):
        for p in (0.7, 1.0, 2.0):
            vals = [1.0 + 0.5 * z**p for z in (0.1, 0.05, 0.025)]
            f0, se = richardson_extrapolate(vals, [1e-6, 1e-6, 1e-6])
            assert f0 == pytest.approx(1.0, abs=1e-4)
            assert se > 0

    def test_noise_floor_falls_back_to_linear(self):
        f0, _ = richardson_extrapolate([1.0, 1.0, 1.0], [1e-3] * 3)
        assert f0 == pytest.approx(1.0)


def test_child_seed_and_rng_streams_distinct():
    assert child_seed(1, 0) != child_seed(1, 1)
    a = derived_rng(5, 0, 0, 0).standard_normal(4)
    b = derived_rng(5, 0, 0, 1).standard_normal(4)
    assert not np.allclose(a, b)
