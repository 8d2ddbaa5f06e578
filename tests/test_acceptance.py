"""Acceptance suite: one test per criterion, at the stated scales and
tolerances, each printing a PASS line with the measured numbers."""

import numpy as np
import pytest

from mvsao.combinatorics import constant_c, random_matching
from mvsao.estimators import (
    fk_kernel_regular,
    richardson_extrapolate,
    rigidity_covariance,
    smooth_trace_moment,
    whitenoise_trace_moment,
)
from mvsao.experiment import DIRICHLET, ExperimentSpec
from mvsao.matrix_oracle import discretize, eigenvalues, oracle_moment, trace_semigroup
from mvsao.noise_model import covariance_table, load_noise, sample_noise, save_noise
from mvsao.stochastic_paths import DomainConfig, sample_bridge
from noise_probe import conj_components, embed_entries, mean_with_se, two_point_components
from test_combinatorics import WALK_1_AND_4, WALK_2, random_jumps
from test_jump_process import walk
from wick_oracle import pairing_moment_mc

pytestmark = pytest.mark.acceptance

PI = np.pi
DIRICHLET_SERIES = sum(np.exp(-(k**2) / 2.0) for k in range(1, 60))

CROSS_SETTING = dict(
    domain=DomainConfig(case=3, theta=1.0, r=2), kind="R",
    sigma2=0.5, upsilon2=0.5, alphas=(DIRICHLET, DIRICHLET),
    betas=(DIRICHLET, DIRICHLET))


def report(name, detail):
    print(f"PASS {name}: {detail}")


class TestCriterion1DeterministicAnchor:
    def test_smooth_and_oracle_reproduce_series(self):
        spec = ExperimentSpec(
            domain=DomainConfig(case=3, theta=PI, r=1), kind="R", sigma2=0.0,
            upsilon2=0.0, ts=(1.0,), seed=101, alphas=(DIRICHLET,),
            betas=(DIRICHLET,), zetas=(0.1,), n_paths=100_000, n_quad=32)
        est = smooth_trace_moment(spec)
        assert est.value == pytest.approx(DIRICHLET_SERIES, rel=0.02)
        eigs = eigenvalues(discretize(spec, None, 2000))
        tr = trace_semigroup(eigs, 1.0)
        assert tr == pytest.approx(DIRICHLET_SERIES, rel=0.02)
        report("criterion 1 (deterministic anchor)",
               f"series {DIRICHLET_SERIES:.5f}, smooth {est.value:.5f} "
               f"+- {est.stderr:.5f}, oracle {tr:.5f}")


def pooled(estimates):
    """Mean and standard error of equal-size estimates pooled over seeds."""
    value = float(np.mean([e.value for e in estimates]))
    return value, float(np.sqrt(sum(e.stderr**2 for e in estimates))) / len(estimates)


class TestBoundaryAnchors:
    """Noise-free anchors for the exact wall factor, four seeds pooled."""

    SEEDS = (1101, 1102, 1103, 1104)

    def test_dirichlet_series(self):
        ests = [smooth_trace_moment(ExperimentSpec(
            domain=DomainConfig(case=3, theta=PI, r=1), kind="R", sigma2=0.0,
            upsilon2=0.0, ts=(1.0,), seed=seed, alphas=(DIRICHLET,),
            betas=(DIRICHLET,), zetas=(0.1,), n_paths=100_000, n_quad=32))
            for seed in self.SEEDS]
        value, se = pooled(ests)
        assert abs(value - DIRICHLET_SERIES) <= 3 * se
        report("boundary anchor (Dirichlet)",
               f"series {DIRICHLET_SERIES:.5f}, pooled {value:.5f} +- {se:.5f} "
               f"({(value - DIRICHLET_SERIES) / se:+.2f} se)")

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_robin_oracle(self, alpha):
        def spec(seed):
            return ExperimentSpec(
                domain=DomainConfig(case=3, theta=1.0, r=1), kind="R", sigma2=0.0,
                upsilon2=0.0, ts=(0.5,), seed=seed, alphas=(alpha,), betas=(alpha,),
                n_paths=50_000, n_quad=32, dt=5e-4)

        coarse, fine = (trace_semigroup(eigenvalues(discretize(spec(0), None, grid)), 0.5)
                        for grid in (1000, 2000))
        assert coarse == pytest.approx(fine, rel=1e-5)
        value, se = pooled([smooth_trace_moment(spec(seed)) for seed in self.SEEDS])
        assert abs(value - fine) <= 3 * se
        report(f"boundary anchor (Robin {alpha:+g})",
               f"oracle {fine:.6f} (grid 1000: {coarse:.6f}), pooled {value:.5f} "
               f"+- {se:.5f} ({(value - fine) / se:+.2f} se)")


class TestCriterion2KernelAnchor:
    def test_heat_kernel_value(self):
        spec = ExperimentSpec(domain=DomainConfig(case=1, r=1), kind="R",
                              sigma2=0.0, upsilon2=0.0, ts=(1.0,), seed=102,
                              x_max=8.0)
        est = fk_kernel_regular(spec, 1.0, (1, 0.0), (1, 0.0), None, eps=0.1,
                                n_paths=100_000)
        want = 1.0 / np.sqrt(2 * PI)
        assert abs(est.value.a - want) <= 3 * est.stderr + 1e-12
        report("criterion 2 (kernel anchor)",
               f"K(1;0,0) = {est.value.a:.6f} vs {want:.6f} "
               f"(se {est.stderr:.2e}, 1e5 bridges)")


class TestCriterion3IsserlisTables:
    N = 100_000
    DISPLACEMENTS = (0.0, 0.02, 0.06)
    SCALES = (0.1, 0.08)
    U2 = 0.5

    def _two_point(self, kind, d, seed):
        zeta, eta = self.SCALES
        return two_point_components(kind, zeta, eta, d, self.N, seed,
                                    upsilon2=self.U2)

    def test_real_and_complex_tables(self):
        zeta, eta = self.SCALES
        checks = 0
        for kind in ("R", "C"):
            for d_idx, d in enumerate(self.DISPLACEMENTS):
                c1, c2 = self._two_point(kind, d, seed=300 + d_idx)
                for relation, other in (("same", c2), ("reversed", conj_components(c2))):
                    z1 = c1[:, 0] + 1j * c1[:, 1]
                    z2 = other[:, 0] + 1j * other[:, 1]
                    prod = z1 * z2
                    want = covariance_table(kind, relation, None, zeta, eta, d,
                                            upsilon2=self.U2)
                    m_re, se_re = mean_with_se(prod.real)
                    m_im, se_im = mean_with_se(prod.imag)
                    assert abs(m_re - want) <= 4 * se_re
                    assert abs(m_im) <= 4 * se_im
                    checks += 1
        report("criterion 3 (Isserlis, R and C)",
               f"{checks} orientation x displacement checks at 1e5 samples")

    def test_quaternion_step_pair_table(self):
        zeta, eta = self.SCALES
        steps = [(h, l) for h in (0, 1) for l in (0, 1)]
        pairs = [(s1, s2) for s1 in steps for s2 in steps]
        checks = 0
        for d_idx, d in enumerate(self.DISPLACEMENTS):
            c1, c2 = self._two_point("H", d, seed=400 + d_idx)
            for relation, other in (("same", c2), ("reversed", conj_components(c2))):
                e1 = embed_entries(c1)
                e2 = embed_entries(other)
                for s1, s2 in pairs:
                    want = covariance_table("H", relation, (s1, s2), zeta, eta,
                                            d, upsilon2=self.U2)
                    prod = e1[s1] * e2[s2]
                    m_re, se_re = mean_with_se(prod.real)
                    assert abs(m_re - want) <= 4 * se_re
                    checks += 1
        report("criterion 3 (Isserlis, quaternion table)",
               f"{checks} step-pair checks across {len(self.DISPLACEMENTS)} "
               f"displacements at 1e5 samples")


class TestCriterion4Combinatorics:
    def test_appendix_figures(self):
        jumps, p = WALK_1_AND_4
        assert constant_c("C", jumps, p) == 0.0
        assert constant_c("R", jumps, p) == 1.0
        assert constant_c("H", jumps, p) == pytest.approx(-0.5)
        jumps2, p2 = WALK_2
        assert constant_c("R", jumps2, p2) == 1.0
        assert constant_c("C", jumps2, p2) == 1.0
        assert constant_c("H", jumps2, p2) == pytest.approx(1.0)
        report("criterion 4 (figures)", "walk fixtures match in all three kinds")

    def test_bound_10k_random(self):
        rng = np.random.default_rng(401)
        worst = 0.0
        for _ in range(10_000):
            n = 2 * int(rng.integers(1, 6))
            jumps = random_jumps(n, 3, rng)
            p = random_matching(n, rng)
            for kind in ("R", "C", "H"):
                worst = max(worst, abs(constant_c(kind, jumps, p)))
                assert worst <= 1.0 + 1e-12
        report("criterion 4 (bound)", f"|C| <= 1 over 1e4 draws, max {worst:.3f}")

    def test_tensorization_1k_random(self):
        rng = np.random.default_rng(402)
        for _ in range(1000):
            n1 = 2 * int(rng.integers(1, 4))
            n2 = 2 * int(rng.integers(1, 4))
            j1, j2 = random_jumps(n1, 3, rng), random_jumps(n2, 3, rng)
            p1, p2 = random_matching(n1, rng), random_matching(n2, rng)
            combined = tuple(p1) + tuple((a + n1, b + n1) for a, b in p2)
            for kind in ("R", "C", "H"):
                assert constant_c(kind, j1 + j2, combined) == pytest.approx(
                    constant_c(kind, j1, p1) * constant_c(kind, j2, p2), abs=1e-12)
        report("criterion 4 (tensorization)", "1e3 random block instances")

    def test_quaternion_monte_carlo_oracle(self):
        rng = np.random.default_rng(403)
        configs = [WALK_1_AND_4, WALK_2,
                   ([(1, 2), (1, 2)], ((0, 1),)),
                   ([(1, 2), (2, 1)], ((0, 1),))]
        for _ in range(4):
            n = 2 * int(rng.integers(1, 4))
            configs.append((random_jumps(n, 3, rng), random_matching(n, rng)))
        for jumps, p in configs:
            want = constant_c("H", jumps, p)
            got, se = pairing_moment_mc("H", jumps, p, 300_000, rng)
            assert abs(got - want) <= 4 * se + 1e-12
        report("criterion 4 (MC oracle)",
               f"{len(configs)} quaternion configs at 3e5 samples, 4 se")


class TestCriterion5SmoothCrossValidation:
    def test_smooth_vs_matrix_oracle_on_archived_draws(self, tmp_path):
        spec = ExperimentSpec(ts=(0.5,), seed=105, eps=(0.1,), zetas=(0.1,),
                              n_paths=100_000, n_quad=32, **CROSS_SETTING)
        est = smooth_trace_moment(spec)
        rng = np.random.default_rng(1055)
        grid = (-0.2, 1.2, 2240)  # dx = eps/16 with the mollifier margin
        fields = [sample_noise("R", 2, 0.5, 0.5, grid, rng) for _ in range(200)]
        archive = tmp_path / "draws.mvsao"
        save_noise(archive, fields)
        oracle = oracle_moment(spec, 0, 400, rng, noise_fields=load_noise(archive),
                               eps=0.1, zeta=0.1)
        comb = float(np.hypot(est.stderr, oracle.stderr))
        assert abs(est.value - oracle.value) <= 3 * comb
        report("criterion 5 (smooth cross-validation)",
               f"smooth {est.value:.5f} +- {est.stderr:.5f} vs oracle "
               f"{oracle.value:.5f} +- {oracle.stderr:.5f} over 200 shared draws "
               f"({abs(est.value - oracle.value) / comb:.2f} comb. se)")


@pytest.fixture(scope="module")
def white_oracle_fields():
    rng = np.random.default_rng(1066)
    return [sample_noise("R", 2, 0.5, 0.5, (0.0, 1.0, 4096), rng)
            for _ in range(200)]


class TestCriterion6WhiteCrossValidation:
    def test_first_and_second_moments_vs_oracle(self, white_oracle_fields):
        rng = np.random.default_rng(0)
        lines = []
        for ts in [(0.5,), (0.5, 0.5)]:
            spec = ExperimentSpec(ts=ts, seed=107, n_paths=100_000, n_quad=20,
                                  dt=2.5e-4, **CROSS_SETTING)
            est = whitenoise_trace_moment(spec)
            oracle = oracle_moment(spec, 0, 500, rng,
                                   noise_fields=white_oracle_fields)
            comb = float(np.hypot(est.stderr, oracle.stderr))
            assert abs(est.value - oracle.value) <= 3 * comb
            lines.append(f"n={len(ts)}: {est.value:.5f} vs {oracle.value:.5f} "
                         f"({abs(est.value - oracle.value) / comb:.2f} comb. se)")
        report("criterion 6 (white vs lattice oracle)", "; ".join(lines))

    def test_zeta_extrapolation_limit(self):
        vals, ses = [], []
        for idx, zeta in enumerate((0.1, 0.05, 0.025)):
            spec = ExperimentSpec(ts=(0.5,), seed=200 + idx, eps=(0.0,),
                                  zetas=(zeta,), n_paths=60_000, n_quad=24,
                                  **CROSS_SETTING)
            est = smooth_trace_moment(spec)
            vals.append(est.value)
            ses.append(est.stderr)
        f0, se0 = richardson_extrapolate(vals, ses)
        spec_w = ExperimentSpec(ts=(0.5,), seed=210, n_paths=100_000, n_quad=24,
                                **CROSS_SETTING)
        white = whitenoise_trace_moment(spec_w)
        comb = float(np.hypot(se0, white.stderr))
        assert abs(f0 - white.value) <= 3 * comb
        report("criterion 6 (zeta sweep)",
               f"sweep {[f'{v:.4f}' for v in vals]} -> {f0:.5f} +- {se0:.5f}; "
               f"white {white.value:.5f} +- {white.stderr:.5f} "
               f"({abs(f0 - white.value) / comb:.2f} comb. se)")


class TestCriterion7RigidityDecay:
    def test_covariance_decays_with_consistent_exponent(self):
        spec = ExperimentSpec(domain=DomainConfig(case=3, theta=1.0, r=2),
                              kind="R", sigma2=0.5, upsilon2=0.5, ts=(0.5,),
                              seed=2026, alphas=(0.0, 0.0), betas=(0.0, 0.0),
                              n_paths=100_000, n_quad=20, dt=2e-4)
        t2s = (0.4, 0.2, 0.1, 0.05)
        covs = []
        for t2 in t2s:
            est = rigidity_covariance(spec, 0.5, t2)
            covs.append(abs(est.value))
        assert all(a > b for a, b in zip(covs, covs[1:]))
        # |Cov| shrinks with t2, so log|Cov| grows with log t2: the fitted
        # slope is positive and plays the role of the decay exponent
        slope = np.polyfit(np.log(t2s), np.log(covs), 1)[0]
        assert slope >= 0.15
        report("criterion 7 (rigidity decay)",
               f"|Cov(0.5, t2)| = {[f'{c:.4f}' for c in covs]} over t2 = {t2s}, "
               f"log-log slope {slope:.2f} >= 0.15")


class TestCriterion8EigenvalueConvergence:
    def test_cauchy_in_eps_and_sandwich(self):
        spec = ExperimentSpec(ts=(1.0,), seed=108, **CROSS_SETTING)
        rng = np.random.default_rng(42)
        noise = sample_noise("R", 2, 0.5, 0.5, (-0.6, 1.6, 2**14), rng)
        ladder = (0.1, 0.05, 0.025, 0.0125)
        spectra = [eigenvalues(discretize(spec, noise, 400, eps=e, zeta=0.1))[:20]
                   for e in ladder]
        gaps = [float(np.abs(b - a).sum()) for a, b in zip(spectra, spectra[1:])]
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        assert all(rt >= 2.0 for rt in ratios)

        clean = eigenvalues(discretize(spec, None, 400))[:20]
        combos = [(e, z) for e in (0.0, 0.05, 0.1) for z in (0.0, 0.05, 0.1)]
        noisy = [eigenvalues(discretize(spec, noise, 400, eps=e, zeta=z))[:20]
                 for e, z in combos]
        kappa, nu = _fit_sandwich(clean[:10], [s[:10] for s in noisy])
        assert kappa < 1.0 and np.isfinite(nu)
        for eigs in noisy:
            assert np.all(eigs >= (1 - kappa) * clean - nu - 1e-9)
            assert np.all(eigs <= (1 + kappa) * clean + nu + 1e-9)
        report("criterion 8 (eigenvalue convergence)",
               f"gap ratios {[f'{r:.2f}' for r in ratios]} (all >= 2); "
               f"sandwich kappa={kappa:.2f}, nu={nu:.3f} fits k<=10 and "
               f"holds for k<=20 over 9 (eps, zeta) combos")


def _fit_sandwich(clean, noisy_list):
    best = None
    for kappa in np.linspace(0.05, 0.95, 37):
        nu = 0.0
        for eigs in noisy_list:
            nu = max(nu, float(((1 - kappa) * clean - eigs).max()),
                     float((eigs - (1 + kappa) * clean).max()), 0.0)
        if best is None or nu < best[1]:
            best = (float(kappa), nu)
    return best


class TestCriterion9PoissonConditioning:
    def test_product_identity_on_frozen_path(self):
        rng = np.random.default_rng(109)
        dom = DomainConfig(case=3, theta=1.0, r=3)
        t, dt = 1.0, 1e-3
        path = sample_bridge(dom, 0.3, 0.6, t, dt, rng)

        def eta(x):
            return 0.7 + 0.25 * np.sin(3.0 * x)

        n = 50_000
        prods = np.empty(n)
        for s in range(n):
            u = walk(3, [(t, 1)], rng)
            if u.n_jumps == 0:
                prods[s] = 1.0
            else:
                idx = np.minimum((u.times / dt).astype(int), path.n_steps - 1)
                prods[s] = np.prod(eta(path.values[idx]))
        want = float(np.exp(2.0 * (eta(path.values[:-1]).sum() * dt - t)))
        mean, se = mean_with_se(prods)
        assert abs(mean - want) <= 4 * se
        report("criterion 9 (Poisson conditioning)",
               f"E prod eta(Z(tau)) = {mean:.5f} +- {se:.5f} vs "
               f"exp identity {want:.5f} ({abs(mean - want) / se:.2f} se)")
