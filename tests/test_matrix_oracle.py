import contextlib
import hashlib
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from mvsao import matrix_oracle
from mvsao.experiment import DIRICHLET, ExperimentSpec, PotentialSpec
from mvsao.matrix_oracle import (
    DiscreteOperator,
    default_noise_grid,
    discretize,
    eigenvalues,
    ground_bracket,
    load_spectra,
    oracle_moment,
    save_spectra,
    trace_semigroup,
)
from mvsao.noise_model import sample_noise
from mvsao.stochastic_paths import DomainConfig

PI = np.pi


def make_spec(case=3, theta=PI, r=1, kind="R", alphas=None, betas=None,
              sigma2=0.0, upsilon2=0.0, ts=(1.0,), x_max=None, seed=0, **kw):
    dom = DomainConfig(case=case, theta=theta if case == 3 else None, r=r)
    if case in (2, 3) and alphas is None:
        alphas = (DIRICHLET,) * r
    if case == 3 and betas is None:
        betas = (DIRICHLET,) * r
    return ExperimentSpec(domain=dom, kind=kind, sigma2=sigma2, upsilon2=upsilon2,
                          ts=ts, seed=seed, alphas=alphas, betas=betas,
                          x_max=x_max, **kw)


DIRICHLET_PI = make_spec()


class TestDeterministicSpectra:
    def test_dirichlet_ground_state(self):
        op = discretize(DIRICHLET_PI, None, 2000)
        eigs = eigenvalues(op)
        assert abs(eigs[0] - 0.5) < 1e-4

    def test_dirichlet_low_spectrum(self):
        op = discretize(DIRICHLET_PI, None, 2000)
        eigs = eigenvalues(op)
        ks = np.arange(1, 11)
        np.testing.assert_allclose(eigs[:10], ks**2 / 2.0, rtol=1e-3)

    def test_neumann_ground_state(self):
        spec = make_spec(alphas=(0.0,), betas=(0.0,))
        eigs = eigenvalues(discretize(spec, None, 500))
        assert abs(eigs[0]) < 1e-6

    def test_robin_shifts_spectrum(self):
        # attractive Robin weight lowers the bottom eigenvalue below Neumann
        neu = eigenvalues(discretize(make_spec(alphas=(0.0,), betas=(0.0,)), None, 400))
        rob = eigenvalues(discretize(make_spec(alphas=(1.0,), betas=(0.0,)), None, 400))
        assert rob[0] < neu[0] - 1e-3

    def test_dimension_count(self):
        op = discretize(make_spec(r=3), None, 100)
        assert op.dim == 3 * 98  # both Dirichlet boundary rows eliminated
        opn = discretize(make_spec(r=2, alphas=(0.0, 0.0), betas=(0.0, 0.0)), None, 100)
        assert opn.dim == 2 * 100

    def test_eigenvalue_count_matches_dim(self):
        op = discretize(make_spec(r=2), None, 64)
        assert len(eigenvalues(op)) == op.dim

    def test_case2_truncated_sao_potential(self):
        # half line with V = x/2 and Dirichlet wall: spectrum near Airy zeros
        spec = make_spec(case=2, r=1, alphas=(DIRICHLET,), x_max=40.0,
                         potential=PotentialSpec(kind="sao"))
        eigs = eigenvalues(discretize(spec, None, 4000))
        # -(1/2) f'' + (x/2) f maps to -g'' + x g = 2 lambda g, so the
        # spectrum is half the negated Airy zeros
        airy_zeros = np.array([2.33810741, 4.08794944, 5.52055983])
        np.testing.assert_allclose(eigs[:3], airy_zeros / 2.0, rtol=2e-3)


def _dense(op):
    """The full Hermitian matrix held in the operator's upper band storage."""
    u = op.band.shape[0] - 1
    m = np.zeros((op.dim, op.dim), dtype=op.band.dtype)
    for k in range(u + 1):
        cols = np.arange(k, op.dim)
        m[cols - k, cols] = op.band[u - k, k:]
    return m + np.triu(m, 1).conj().T


class TestEigenvalues:
    def test_plain_diagonal(self):
        op = DiscreteOperator(kind="R", band=np.array([[3.0, 1.0, 2.0]]))
        np.testing.assert_array_equal(_dense(op), np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eigenvalues(op), [1.0, 2.0, 3.0])

    def test_self_adjointness(self):
        # the banded solve sees the same Hermitian matrix as a dense one
        for kind in ("C", "H"):
            rng = np.random.default_rng(0)
            spec = make_spec(r=2, kind=kind, sigma2=1.0, upsilon2=0.5, theta=1.0)
            field = sample_noise(kind, 2, 1.0, 0.5, (-0.5, 1.5, 2048), rng)
            op = discretize(spec, field, 200, eps=0.1, zeta=0.1)
            dense = np.linalg.eigvalsh(_dense(op))
            if kind == "H":
                dense = dense.reshape(-1, 2).mean(axis=1)
            np.testing.assert_allclose(eigenvalues(op), dense, rtol=1e-10, atol=1e-10)

    def test_quaternion_doubling_and_dedup(self):
        spec = make_spec(r=2, kind="H", theta=1.0)
        op = discretize(spec, None, 64)
        raw = np.linalg.eigvalsh(_dense(op))
        assert op.dim == 2 * 2 * 62
        gaps = raw.reshape(-1, 2)
        assert np.abs(gaps[:, 0] - gaps[:, 1]).max() < 1e-8 * abs(raw).max()
        eigs = eigenvalues(op)
        assert len(eigs) == 2 * 62

    def test_quaternion_trace_convention(self):
        # complex-embedded trace = 2 x reported quaternionic trace
        spec = make_spec(r=2, kind="H", theta=1.0, sigma2=0.5, upsilon2=0.5)
        rng = np.random.default_rng(1)
        field = sample_noise("H", 2, 0.5, 0.5, (-0.5, 1.5, 2048), rng)
        op = discretize(spec, field, 128, eps=0.1, zeta=0.1)
        embedded = np.linalg.eigvalsh(_dense(op))
        t = 0.7
        reported = trace_semigroup(eigenvalues(op), t)
        assert np.exp(-t * embedded).sum() == pytest.approx(2 * reported, rel=1e-10)
        # and the real 4x4 representation would double once more
        assert 2 * np.exp(-t * embedded).sum() == pytest.approx(4 * reported, rel=1e-10)


NOISY = {"sigma2": 0.5, "upsilon2": 0.5, "theta": 1.0}


def _pinned_cases():
    """Operators whose low spectra are pinned: (spec, noise seed, grid, eps =
    zeta).  Where the case has walls, Robin and Dirichlet colors are mixed."""
    d = DIRICHLET
    table = PotentialSpec(kind="tabulated", table_x=(-2.0, 0.0, 2.0),
                          table_v=((1.0, 0.0, 1.0), (0.5, 2.0, -0.5)))
    cases = {f"white_{kind}": (make_spec(r=2, kind=kind, alphas=(d, 0.7), betas=(-1.0, d),
                                         **NOISY), 11 + k, 48, 0.0)
             for k, kind in enumerate("RCH")}
    cases["mollified_H3"] = (make_spec(r=3, kind="H", alphas=(d, 0.7, 0.0),
                                       betas=(-1.0, d, 0.3), **NOISY), 14, 64, 0.1)
    cases["sao_case2_C"] = (make_spec(case=2, r=2, kind="C", alphas=(d, 0.7), x_max=3.0,
                                      potential=PotentialSpec(kind="sao"), **NOISY), 15, 56, 0.0)
    cases["tabulated_case1_R"] = (make_spec(case=1, r=2, x_max=2.0, potential=table, **NOISY),
                                  16, 40, 0.0)
    return cases


# (dimension, lowest eight eigenvalues) of each pinned operator as the dense
# color-major assembly computed them; a node-major build that mixed up
# colors, rows or embedding components would move them
PINNED_SPECTRA = {
    "white_R": (94, [
        0.54343324592493, 1.6484602189365767, 12.317490564544743,
        12.641863259008828, 31.38145372376009, 31.84132137298057,
        60.82967264512356, 61.24874504584479]),
    "white_C": (94, [
        0.11362506968771707, 2.1330648050517587, 11.347816407251429,
        11.794227049663574, 30.904393343877285, 31.696889424572735,
        59.71579245285181, 61.8072457703135]),
    "white_H": (188, [
        0.7899373935282783, 1.8273729978187063, 9.311938918082067,
        11.871747327043103, 29.585344412075035, 30.98904651361309,
        59.98627260527075, 61.28988311151333]),
    "mollified_H3": (380, [
        -1.493502493364688, -0.047749076405223405, 1.4343956626596897,
        4.392897214861321, 9.855339872423288, 10.774060773622951,
        19.445673087899415, 29.538983027998967]),
    "sao_case2_C": (109, [
        0.11430117205341461, 1.6309442156094998, 2.879724377825213,
        4.164344101807042, 5.089692624488699, 7.146814140993846,
        8.323053103784481, 10.615518474797021]),
    "tabulated_case1_R": (76, [
        -0.11727387373070523, 0.6499333406724404, 1.095048160914893,
        2.1601276530956603, 2.39110282680636, 3.386785507844225,
        5.07224661917458, 5.43525014389426]),
}


def _pinned_operator(name):
    spec, seed, n, scale = _pinned_cases()[name]
    lo, hi = spec.spatial_bounds()
    field = sample_noise(spec.kind, spec.domain.r, 0.5, 0.5, (lo - 0.5, hi + 0.5, 2048),
                         np.random.default_rng(seed))
    return discretize(spec, field, n, eps=scale, zeta=scale)


@pytest.mark.parametrize("name", sorted(PINNED_SPECTRA))
def test_spectra_pinned(name):
    """On the full spectrum and on the partial one of a trace at t >= 0.5."""
    op = _pinned_operator(name)
    dim, want = PINNED_SPECTRA[name]
    assert op.dim == dim
    for t_min in (None, 0.5):
        eigs = eigenvalues(op, t_min)
        assert len(eigs) >= 8
        np.testing.assert_allclose(eigs[:8], want, rtol=1e-9,
                                   atol=1e-9 * np.abs(want).max())


# sha256 of the band bytes of the pinned C and H operators, which write their
# off-diagonal noise through noise_model.quaternion_block: a change to the
# block's expressions that moves a single bit changes these
PINNED_BAND_SHA256 = {
    "white_C": "44ac1b2fb8bb5e2b3f1a9de1cfe9a90f7b8b963cbb64407d8ed40c306cb2e0b8",
    "white_H": "9763672bf800420b1878530f16fedf2c189ed88b7e538750ad74e75bd393a31b",
    "mollified_H3": "06f81073266b413bf858546b0a26c169347406d9b0ca97d95ba0982e683e49a6",
    "sao_case2_C": "e31da06f96197284c96ca97d8c34ddeb3c9e30766866f205d46a7a9306da419a",
}


@pytest.mark.parametrize("name", sorted(PINNED_BAND_SHA256))
def test_band_bits_pinned(name):
    band = _pinned_operator(name).band
    assert hashlib.sha256(band.tobytes()).hexdigest() == PINNED_BAND_SHA256[name]


def _lattice_operator(kind, seed, n=500):
    """An operator of the benchmark's oracle setting: r = 2 on [0, 1] with
    Dirichlet walls, both variances 1/2, lattice white noise, grid n."""
    spec = make_spec(r=2, kind=kind, theta=1.0, sigma2=0.5, upsilon2=0.5, ts=(0.5,))
    field = sample_noise(kind, 2, 0.5, 0.5, (0.0, 1.0, 4096), np.random.default_rng(seed))
    return discretize(spec, field, n)


@contextlib.contextmanager
def _lanczos_only():
    """Within it the partial spectrum can only come from _low_spectrum,
    whatever the route's cost estimate says."""
    with mock.patch.object(matrix_oracle, "_LANCZOS_BUDGET", np.inf), \
            mock.patch("scipy.linalg.eig_banded", side_effect=AssertionError("band reduction")):
        yield


class TestPartialSpectrum:
    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_returns_every_eigenvalue_the_trace_sees(self, kind):
        for seed, t in ((21, 0.5), (22, 0.5), (22, 0.1)):
            op = _lattice_operator(kind, seed)
            full = eigenvalues(op)
            sigma, _, bound = ground_bracket(op)
            assert sigma < full[0] <= bound < full[0] + 1.0
            with _lanczos_only():
                part = eigenvalues(op, t)
            assert len(part) == np.count_nonzero(full <= bound + 50.0 / t)
            np.testing.assert_allclose(part, full[:len(part)], rtol=1e-9)

    def test_cut_between_quaternion_pairs(self):
        """A cutoff between two Kramers pairs keeps every pair below it,
        one copy each: the Kramers-restricted basis holds one copy per pair."""
        op = _lattice_operator("H", 23, n=128)
        full = eigenvalues(op)
        bound = ground_bracket(op)[2]
        for k in range(10):
            t_min = 50.0 / (0.5 * (full[k] + full[k + 1]) - bound)
            with _lanczos_only():
                part = eigenvalues(op, t_min)
            np.testing.assert_allclose(part, full[:k + 1], rtol=1e-9,
                                       atol=1e-9 * np.abs(full[:k + 1]).max())

    def test_cutoff_inside_a_quaternion_pair(self):
        """When the route takes the band reduction, a cutoff between the two
        embedding copies of one eigenvalue keeps the pairs below it: the
        lone copy below the cutoff is dropped."""
        op = _lattice_operator("H", 23, n=128)
        embedded = scipy.linalg.eig_banded(op.band, eigvals_only=True)
        full = eigenvalues(op)
        bound = ground_bracket(op)[2]
        split = 0
        for k in range(1, 30):
            lo, hi = embedded[2 * k], embedded[2 * k + 1]
            if lo == hi:
                continue
            cut = 0.5 * (lo + hi)
            t_min = 50.0 / (cut - bound)
            # the partial route's own rounding decides on which side of the
            # cutoff each copy falls: at most one pair more than below it
            kept = scipy.linalg.eig_banded(op.band, eigvals_only=True, select="v",
                                           select_range=(-np.inf, bound + 50.0 / t_min))
            split += len(kept) % 2
            with mock.patch.object(matrix_oracle, "_LANCZOS_BUDGET", 0.0):
                part = eigenvalues(op, t_min)
            assert len(part) == len(kept) // 2 and len(part) in (k, k + 1)
            np.testing.assert_allclose(part, full[:len(part)], rtol=1e-9)
        assert split > 0

    def test_many_eigenvalues_take_the_band_reduction(self):
        """The sao potential on a long half line keeps over a hundred
        eigenvalues: the route goes to one band reduction without a
        Lanczos attempt."""
        spec = make_spec(case=2, r=1, kind="C", alphas=(DIRICHLET,), x_max=30.0,
                         potential=PotentialSpec(kind="sao"))
        op = discretize(spec, None, 600)
        want = _below_cut(op, 0.5)
        assert len(want) > 100
        with mock.patch.object(matrix_oracle, "_low_spectrum",
                               side_effect=AssertionError("Lanczos attempt")):
            got = eigenvalues(op, 0.5)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_weyl_count(self, kind):
        """The route's estimate of the eigenvalues below a cut, embedding
        copies counted, on a noisy short interval and on a long half line."""
        sao = make_spec(case=2, r=2, kind=kind, alphas=(DIRICHLET,) * 2, x_max=20.0,
                        potential=PotentialSpec(kind="sao"))
        for op in (_lattice_operator(kind, 26), discretize(sao, None, 400)):
            embedded = scipy.linalg.eig_banded(op.band, eigvals_only=True)
            for cut in embedded[0] + np.array([10.0, 100.0, 500.0]):
                count = np.count_nonzero(embedded <= cut)
                assert abs(matrix_oracle._count_below(op, cut) - count) <= 0.05 * count + 3

    def test_unconverged_run_raises(self):
        op = _lattice_operator("R", 27)
        sigma, factor, bound = ground_bracket(op)
        with pytest.raises(RuntimeError, match="did not converge within 8 basis rows"):
            matrix_oracle._low_spectrum(op, sigma, factor, bound, bound + 100.0, 8)

    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_start_block_reaches_every_copy(self, kind):
        """(A - sigma I)^-1 acts on an eigenspace as a scalar, so the block
        Krylov space holds as many copies of an eigenvalue as the start
        block's projection onto its eigenspace has rank: rounding aside, a
        block narrower than r would miss copies.  A color-symmetric r = 3
        operator has 3 copies of each eigenvalue (6 in the H embedding)."""
        op = discretize(make_spec(r=3, kind=kind, theta=1.0), None, 120)
        solved = []
        get = scipy.linalg.get_lapack_funcs

        def spy(names, arrays):
            funcs = get(names, arrays)
            if names != ("pbtrs",):
                return funcs

            def pbtrs(factor, rhs):
                solved.append(np.array(rhs))
                return funcs[0](factor, rhs)
            return (pbtrs,)

        with _lanczos_only(), mock.patch.object(scipy.linalg, "get_lapack_funcs", spy):
            eigs = eigenvalues(op, 0.5)
        start = solved[0].T
        if kind == "H":
            start = np.vstack([start, matrix_oracle._kramers(start)])
        copies = 6 if kind == "H" else 3
        embedded, vectors = np.linalg.eigh(_dense(op))
        below = len(eigs) * (2 if kind == "H" else 1)
        assert below >= 2 * copies
        for k in range(0, below, copies):
            space = vectors[:, k:k + copies]
            assert np.ptp(embedded[k:k + copies]) < 1e-8 * abs(embedded[k])
            reach = np.linalg.svd(space.conj().T @ start.T, compute_uv=False)
            assert len(reach) == copies and reach.min() > 1e-3 * reach.max()

    def test_t_min_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(_lattice_operator("R", 24, n=64), 0.0)

    def test_dense_reference_at_grid_2000(self):
        """Against the dense solve, independent of any banded routine."""
        spec = make_spec(r=1, theta=1.0, sigma2=0.5, upsilon2=0.5, ts=(0.5,))
        field = sample_noise("R", 1, 0.5, 0.5, (0.0, 1.0, 4096), np.random.default_rng(25))
        op = discretize(spec, field, 2000)
        dense = np.linalg.eigvalsh(_dense(op))
        want = dense[dense <= ground_bracket(op)[2] + 50.0 / 0.5]
        np.testing.assert_allclose(eigenvalues(op, 0.5), want, rtol=1e-9,
                                   atol=1e-9 * np.abs(want).max())


def _below_cut(op, t_min):
    """The de-duplicated full spectrum up to the partial route's cutoff."""
    full = eigenvalues(op)
    return full[full <= ground_bracket(op)[2] + 50.0 / t_min]


def _degenerate_cases():
    """Operators whose eigenvalues repeat, with the copies of each.
    Without noise the colors decouple, so each eigenvalue of a
    color-symmetric operator has r copies, the most the recurrence allows."""
    cases = [pytest.param(discretize(make_spec(r=r, kind=kind, theta=1.0), None, 120), r,
                          id=f"symmetric_{kind}_r{r}") for kind in "RCH" for r in (2, 3)]
    # x -> pi - x maps the operator to itself: even and odd eigenfunctions
    cases.append(pytest.param(discretize(DIRICHLET_PI, None, 400), 1, id="reflection_R"))
    table = PotentialSpec(kind="tabulated", table_x=(0.0, PI / 2, PI),
                          table_v=((2.0, -1.0, 2.0), (2.0, -1.0, 2.0)))
    cases.append(pytest.param(discretize(make_spec(r=2, kind="C", potential=table), None, 300),
                              2, id="reflection_tabulated_C"))
    d = DIRICHLET
    for kind in "RCH":
        spec = make_spec(r=2, kind=kind, theta=1.0, alphas=(d, 0.7), betas=(-1.0, d))
        cases.append(pytest.param(discretize(spec, None, 150), 1, id=f"mixed_walls_{kind}"))
    return cases


@pytest.mark.parametrize("op,copies", _degenerate_cases())
def test_partial_spectrum_keeps_every_copy(op, copies):
    want = _below_cut(op, 0.5)
    with _lanczos_only():
        got = eigenvalues(op, 0.5)
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
    if copies > 1:
        # each eigenvalue below the cut shows up exactly `copies` times
        groups = got[:len(got) // copies * copies].reshape(-1, copies)
        assert np.ptp(groups, axis=1).max() < 1e-8 * np.abs(want).max()


class TestSemigroup:
    def test_trace_of_single_zero_eigenvalue(self):
        assert trace_semigroup(np.array([0.0]), 1.0) == 1.0

    def test_dirichlet_series_value(self):
        eigs = eigenvalues(discretize(DIRICHLET_PI, None, 2000))
        series = sum(np.exp(-(k**2) / 2.0) for k in range(1, 60))
        assert trace_semigroup(eigs, 1.0) == pytest.approx(series, rel=5e-3)

    def test_monotone_in_t(self):
        eigs = eigenvalues(discretize(DIRICHLET_PI, None, 300))
        values = [trace_semigroup(eigs, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_semigroup_composition(self):
        eigs = eigenvalues(discretize(make_spec(theta=1.0), None, 200))
        s, t = 0.3, 0.9
        lhs = np.exp(-s * eigs) * np.exp(-t * eigs)
        rhs = np.exp(-(s + t) * eigs)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_grid_convergence_second_order(self):
        truth = sum(np.exp(-(k**2) / 2.0) for k in range(1, 60))
        errs = []
        for n in (125, 250, 500):
            eigs = eigenvalues(discretize(DIRICHLET_PI, None, n))
            errs.append(abs(trace_semigroup(eigs, 1.0) - truth))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            trace_semigroup(np.array([1.0]), 0.0)


class TestValidation:
    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            discretize(DIRICHLET_PI, None, 8)

    def test_eps_under_resolved(self):
        rng = np.random.default_rng(2)
        field = sample_noise("R", 1, 1.0, 1.0, (-0.5, PI + 0.5, 1024), rng)
        with pytest.raises(ValueError):
            discretize(DIRICHLET_PI, field, 100, eps=0.01)

    def test_noise_coverage_required(self):
        rng = np.random.default_rng(3)
        field = sample_noise("R", 1, 1.0, 1.0, (0.0, 1.0, 256), rng)
        with pytest.raises(ValueError):
            discretize(DIRICHLET_PI, field, 100, eps=0.2)


class TestOracleMoment:
    @pytest.mark.parametrize("kind", ["R", "C", "H"])
    def test_zero_noise_colors_add_up(self, kind):
        """With sigma2 = upsilon2 = 0 the r colors are r copies of the scalar
        operator, so the ensemble reads r times the scalar trace."""
        rng = np.random.default_rng(8)
        spec = make_spec(r=3, kind=kind, theta=1.0, ts=(0.5,))
        est = oracle_moment(spec, n_draws=2, n_grid=150, rng=rng)
        scalar = eigenvalues(discretize(make_spec(theta=1.0, ts=(0.5,)), None, 150))
        assert est.value == pytest.approx(3 * trace_semigroup(scalar, 0.5), rel=1e-9)

    def test_zero_noise_zero_variance(self):
        spec = make_spec(sigma2=0.0, upsilon2=0.0, ts=(1.0,), theta=1.0)
        rng = np.random.default_rng(4)
        est = oracle_moment(spec, n_draws=4, n_grid=200, rng=rng)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)
        eigs = eigenvalues(discretize(spec, None, 200), 1.0)
        assert est.value == pytest.approx(trace_semigroup(eigs, 1.0), rel=1e-12)

    def test_reused_draws_reproduce(self):
        spec = make_spec(r=2, sigma2=0.5, upsilon2=0.5, theta=1.0, ts=(0.5,),
                         eps=(0.1,), zetas=(0.1,))
        rng = np.random.default_rng(5)
        grid = default_noise_grid(spec, 0.1)
        fields = [sample_noise("R", 2, 0.5, 0.5, grid, rng) for _ in range(3)]
        a = oracle_moment(spec, 0, 128, rng, noise_fields=fields)
        b = oracle_moment(spec, 0, 128, rng, noise_fields=fields)
        assert a.value == b.value and a.stderr == b.stderr

    def test_product_moment_uses_all_times(self):
        spec = make_spec(ts=(0.5, 1.0), theta=1.0)
        rng = np.random.default_rng(6)
        est = oracle_moment(spec, n_draws=2, n_grid=150, rng=rng)
        eigs = eigenvalues(discretize(spec, None, 150), 0.5)
        want = trace_semigroup(eigs, 0.5) * trace_semigroup(eigs, 1.0)
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_spectra_roundtrip(self, tmp_path):
        spec = make_spec(theta=1.0)
        rng = np.random.default_rng(7)
        path = tmp_path / "spectra.mvsao"
        oracle_moment(spec, n_draws=2, n_grid=64, rng=rng, spectra_path=path)
        spectra = load_spectra(path)
        assert len(spectra) == 2
        assert np.array_equal(spectra[0], spectra[1])  # zero noise: same operator


def test_save_spectra_magic(tmp_path):
    p = tmp_path / "s.mvsao"
    save_spectra(p, [np.array([1.0, 2.0])])
    assert p.read_bytes()[:6] == b"MVSAO1"
