import numpy as np
import pytest
from scipy.integrate import quad

from mvsao.noise_model import (
    bump,
    lattice_white_values,
    load_noise,
    mollified_profiles,
    pair_index,
    rho,
    sample_noise,
    sao_variances,
    save_noise,
)
from noise_probe import (
    conj_components,
    covariance_table,
    embed_entries,
    mollified_point_ensemble,
    sample_noise_ensemble,
    two_point_components,
)

GRID = (-0.5, 1.5, 400)


class TestMollifier:
    def test_bump_is_density(self):
        total, _ = quad(bump, -1, 1)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert bump(0.3) == bump(-0.3)

    def test_rho_integrates_to_one(self):
        xs = np.linspace(-0.35, 0.35, 20_001)
        val = np.trapezoid(rho(0.2, 0.1, xs), xs)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_rho_support_and_symmetry(self):
        assert rho(0.2, 0.1, 0.31) == 0.0
        assert rho(0.2, 0.1, -0.31) == 0.0
        xs = np.linspace(-0.25, 0.25, 11)
        np.testing.assert_allclose(rho(0.2, 0.1, xs), rho(0.1, 0.2, xs), atol=1e-10)
        np.testing.assert_allclose(rho(0.2, 0.1, xs), rho(0.2, 0.1, -xs), atol=1e-10)
        assert np.all(np.asarray(rho(0.2, 0.1, xs)) >= 0.0)

    def test_rho_zero_value_scaling(self):
        # rho_{z,z}(0) = (bump * bump)(0) / z, and (bump * bump)(0) = 5/7
        for z in (0.2, 0.1):
            assert rho(z, z, 0.0) == pytest.approx((5.0 / 7.0) / z, rel=1e-4)
        assert rho(0.05, 0.05, 0.0) == pytest.approx(2 * rho(0.1, 0.1, 0.0), rel=1e-4)

    def test_bad_scales(self):
        with pytest.raises(ValueError):
            rho(0.0, 0.1, 0.0)


class TestSampling:
    def test_sao_presets(self):
        assert sao_variances("R") == (1.0, 0.5)
        assert sao_variances("H") == (0.25, 0.5)
        assert sao_variances("C") == (0.5, 0.5)

    def test_diagonal_real(self):
        rng = np.random.default_rng(1)
        f = sample_noise("C", 2, 1.0, 0.5, GRID, rng)
        profiles = mollified_profiles(f, 0.1)
        for i in (1, 2):
            assert not profiles[pair_index(2)[(i, i)], 1:].any()
        assert profiles[pair_index(2)[(1, 2)], 1].any()

    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_ensemble_draw_is_sample_noise(self, kind):
        # criterion 3's batched sampler draws the production noise law
        grid = (0.0, 1.0, 64)
        f = sample_noise(kind, 3, 1.0, 0.5, grid, np.random.default_rng(5))
        ens = sample_noise_ensemble(kind, 3, 1.0, 0.5, grid, 1, np.random.default_rng(5))
        assert ens.dx == f.dx and ens.x_lo == f.x_lo
        assert np.array_equal(ens.increments[0], f.increments)

    def test_brownian_variance_growth(self):
        # Var W_{1,2;1}(x) = x: cumulative sums of raw increments
        rng = np.random.default_rng(2)
        ens = sample_noise_ensemble("R", 2, 1.0, 1.0, (0.0, 1.0, 50), 10_000, rng)
        p12 = 1  # pairs for r=2: (1,1), (1,2), (2,2)
        w = ens.increments[:, p12, 0, :].cumsum(axis=1)
        for frac in (0.3, 0.7, 1.0):
            col = int(round(frac * 50)) - 1
            x = (col + 1) * ens.dx
            v = w[:, col].var(ddof=1)
            se = v * np.sqrt(2.0 / (len(w) - 1))
            assert abs(v - x) <= 4 * se

    def test_eps_under_resolved_rejected(self):
        rng = np.random.default_rng(4)
        f = sample_noise("R", 2, 1.0, 0.5, (0.0, 1.0, 100), rng)
        with pytest.raises(ValueError):
            mollified_profiles(f, 0.01)


def pair_covariance(kind, zeta, eta, d, relation, steps=None, n=60_000, seed=5,
                    upsilon2=0.5):
    """Empirical E[entry1(x) entry2(y)] for entry (1,2) vs (1,2) or (2,1)."""
    c1, c2 = two_point_components(kind, zeta, eta, d, n, seed, upsilon2=upsilon2)
    if relation != "same":
        c2 = conj_components(c2)  # entry (2,1) is the conjugate of (1,2)
    if kind == "H":
        prod = embed_entries(c1)[tuple(steps[0])] * embed_entries(c2)[tuple(steps[1])]
    else:
        prod = (c1[:, 0] + 1j * c1[:, 1]) * (c2[:, 0] + 1j * c2[:, 1])
    vals = np.stack([prod.real, prod.imag], axis=1)  # the tables state the real part
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
    return mean, se


class TestCovarianceTables:
    def test_real_same_and_reversed(self):
        for relation in ("same", "reversed"):
            mean, se = pair_covariance("R", 0.1, 0.05, 0.03, relation)
            want = covariance_table("R", relation, None, 0.1, 0.05, 0.03, upsilon2=0.5)
            assert abs(mean[0] - want) <= 4 * se[0]

    def test_complex_same_vanishes(self):
        mean, se = pair_covariance("C", 0.1, 0.1, 0.0, "same")
        assert abs(mean[0]) <= 4 * se[0]
        assert abs(mean[1]) <= 4 * se[1]
        assert covariance_table("C", "same", None, 0.1, 0.1, 0.0) == 0.0

    def test_complex_reversed(self):
        mean, se = pair_covariance("C", 0.1, 0.05, 0.02, "reversed")
        want = covariance_table("C", "reversed", None, 0.1, 0.05, 0.02, upsilon2=0.5)
        assert abs(mean[0] - want) <= 4 * se[0]
        assert abs(mean[1]) <= 4 * se[1]

    @pytest.mark.parametrize("steps,sign", [
        (((0, 0), (1, 1)), 0.5), (((1, 1), (0, 0)), 0.5),
        (((0, 1), (1, 0)), -0.5), (((1, 0), (0, 1)), -0.5),
        (((0, 0), (0, 0)), 0.0), (((0, 1), (0, 1)), 0.0),
    ])
    def test_quaternion_same_jump_table(self, steps, sign):
        zeta, eta, d = 0.1, 0.08, 0.02
        want = covariance_table("H", "same", steps, zeta, eta, d, upsilon2=0.5)
        assert want == pytest.approx(sign * 0.5 * rho(zeta, eta, d))
        mean, se = pair_covariance("H", zeta, eta, d, "same", steps)
        assert abs(mean[0] - want) <= 4 * se[0]

    @pytest.mark.parametrize("steps,hit", [
        (((0, 0), (0, 0)), True), (((1, 1), (1, 1)), True),
        (((0, 1), (1, 0)), True), (((1, 0), (0, 1)), True),
        (((0, 0), (1, 1)), False), (((1, 0), (1, 0)), False),
    ])
    def test_quaternion_reversed_jump_table(self, steps, hit):
        zeta, eta, d = 0.1, 0.08, 0.02
        want = covariance_table("H", "reversed", steps, zeta, eta, d, upsilon2=0.5)
        assert want == pytest.approx((0.5 if hit else 0.0) * 0.5 * rho(zeta, eta, d))
        mean, se = pair_covariance("H", zeta, eta, d, "reversed", steps)
        assert abs(mean[0] - want) <= 4 * se[0]

    def test_unrelated_zero(self):
        for kind in ("R", "C", "H"):
            assert covariance_table(kind, "unrelated", None, 0.1, 0.1, 0.0) == 0.0

    def test_gaussian_fourth_moment(self):
        rng = np.random.default_rng(7)
        ens = sample_noise_ensemble("R", 2, 1.0, 1.0, (0.0, 1.0, 200), 50_000, rng)
        v = mollified_point_ensemble(ens, 0.1, 1, 2, 0.5)[:, 0]
        z = v / v.std(ddof=1)
        m4 = (z**4).mean()
        se = (z**4).std(ddof=1) / np.sqrt(len(z))
        assert abs(m4 - 3.0) <= 4 * se


class TestLatticeAndIO:
    def test_lattice_aggregation_conserves_increments(self):
        rng = np.random.default_rng(8)
        f = sample_noise("R", 2, 1.0, 0.5, (0.0, 1.0, 64), rng)
        edges = np.linspace(0.0, 1.0, 9)
        agg = lattice_white_values(f, edges)
        np.testing.assert_allclose(agg.sum(axis=2), f.increments.sum(axis=2), atol=1e-12)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        fields = [sample_noise("C", 2, 1.0, 0.5, (0.0, 1.0, 32), rng) for _ in range(3)]
        path = tmp_path / "draws.mvsao"
        save_noise(path, fields)
        back = load_noise(path)
        assert len(back) == 3
        for a, b in zip(fields, back):
            assert a.kind == b.kind and a.dx == b.dx
            np.testing.assert_array_equal(a.increments, b.increments)
        assert path.read_bytes()[:6] == b"MVSAO1"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_noise(p)
