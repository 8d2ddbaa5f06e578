"""Finite-difference discretization route to the same trace moments: build
the operator on a grid as a Hermitian band matrix, eigensolve it, sum the
spectral exponentials, average over noise draws.

Rows are node-major, row = (node, color, and for H the 2x2 complex
embedding component), so the operator lies within r (R, C) or 2r (H) rows
of the diagonal and is written straight into LAPACK upper band storage;
with only the upper band stored and a real diagonal it is Hermitian by
construction.  Entries come from the quadratic form with a lumped
(trapezoid) mass, symmetrized by the inverse square-root mass, which keeps
Robin rows second-order accurate.  Quaternion eigenvalues are
de-duplicated since the embedding doubles every multiplicity.

The ensemble eigensolves only the eigenvalues up to lambda_min + 50 / min t,
the ones a trace can see, with one band reduction per draw; its spectra
archives hold those alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import UNIT_NORMALIZATION
from .experiment import ExperimentSpec, MomentEstimate
from .noise_model import (
    NoiseField,
    lattice_white_values,
    mollified_profiles,
    pair_index,
    sample_noise,
)
from .records import ArchiveError, read_records, write_records

_NOISE_CELLS_PER_SCALE = 16  # noise cells per smallest mollification scale
# eigenvalues past lambda_min + _TRACE_CUTOFF / t weigh below e^-50 in Tr e^{-tH}
_TRACE_CUTOFF = 50.0


@dataclass
class DiscreteOperator:
    """Hermitian operator matrix in LAPACK upper band storage: entry (i, j)
    with j - u <= i <= j sits at band[u + i - j, j], u = band.shape[0] - 1."""

    kind: str
    band: np.ndarray

    @property
    def dim(self) -> int:
        return self.band.shape[1]


def check_grid(spec: ExperimentSpec, n: int, eps: float, zeta: float) -> float:
    """Step of the n-node grid; ValueError when the grid is too coarse or
    under-resolves a mollification scale."""
    if n < 16:
        raise ValueError("grid too coarse, need n >= 16")
    lo, hi = spec.spatial_bounds()
    hg = (hi - lo) / (n - 1)
    for scale in (eps, zeta):
        if scale > 0.0 and scale < 2.0 * hg:
            raise ValueError(f"mollification scale {scale} under-resolved by grid step {hg}")
    return hg


def check_noise(spec: ExperimentSpec, fields: list[NoiseField], eps: float,
                zeta: float) -> None:
    """ValueError unless every field has the spec's kind and color count,
    resolves each mollification scale and covers the spec's spatial bounds
    plus the mollifier margin."""
    lo, hi = spec.spatial_bounds()
    margin = max(eps, zeta)
    for k, field in enumerate(fields):
        if (field.kind, field.r) != (spec.kind, spec.domain.r):
            raise ValueError(f"noise field {k} is {field.kind} with r = {field.r}, the run "
                             f"{spec.kind} with r = {spec.domain.r}")
        if any(0.0 < scale < 2.0 * field.dx for scale in (eps, zeta)):
            raise ValueError(f"noise field {k}: cell width {field.dx:g} under-resolves "
                             f"the mollification scales {eps:g}, {zeta:g}")
        if field.x_lo > lo - margin + 1e-9 or field.x_hi < hi + margin - 1e-9:
            raise ValueError(f"noise field {k} spans [{field.x_lo:g}, {field.x_hi:g}], short "
                             f"of [{lo:g}, {hi:g}] plus the mollifier margin {margin:g}")


def oracle_scales(spec: ExperimentSpec) -> tuple[float, float]:
    """The (eps, zeta) of the one operator that serves all of spec's times;
    ValueError when the times carry different or negative scales."""
    eps, zetas = set(spec.eps_vector()), set(spec.zeta_vector())
    if len(eps) > 1 or len(zetas) > 1:
        raise ValueError("the oracle builds one operator for all times: noise.eps and "
                         f"noise.zeta must each hold one value, got {spec.eps}, {spec.zetas}")
    if min(eps | zetas) < 0:
        raise ValueError(f"mollification scales must be nonnegative, got {spec.eps}, {spec.zetas}")
    return eps.pop(), zetas.pop()


def check_draws(n_draws: int) -> None:
    if n_draws < 2:
        raise ValueError("need at least 2 draws for a standard error")


def discretize(spec: ExperimentSpec, noise: NoiseField | None, n: int,
               eps: float = 0.0, zeta: float = 0.0) -> DiscreteOperator:
    """Assemble the operator on an n-node grid in banded form.

    eps and zeta are the diagonal and off-diagonal mollification scales for
    this single operator; zero selects the lattice white-noise route, where
    each node receives its cell's Brownian increment divided by the cell
    width.  In cases 1 and 2 the domain is truncated at x_max with
    Dirichlet walls at the artificial boundary.
    """
    hg = check_grid(spec, n, eps, zeta)
    lo, hi = spec.spatial_bounds()
    nodes = np.linspace(lo, hi, n)
    r = spec.domain.r
    case = spec.domain.case
    alphas = np.asarray(spec.alphas if spec.alphas is not None else (0.0,) * r)
    betas = np.asarray(spec.betas if spec.betas is not None else (0.0,) * r)

    # kept[g, i]: node g carries a row of color i+1; Dirichlet rows are eliminated
    kept = np.ones((n, r), dtype=bool)
    kept[0] = (case != 1) & ~np.isneginf(alphas)
    kept[-1] = (case == 3) & ~np.isneginf(betas)
    row = np.cumsum(kept.ravel()).reshape(n, r) - 1
    w = np.full(n, hg)
    w[0] = w[-1] = hg / 2.0

    # the form's diagonal over the lumped mass: 1/(2 hg) per grid edge over
    # hg (hg/2 at an end node, which has one edge) is 1/hg^2 at every node,
    # and a Robin term -alpha/2 over hg/2 is -alpha/hg
    diag = spec.potential.values(np.arange(1, r + 1)[None, :], nodes[:, None], r) + 1.0 / hg**2
    if case != 1:
        diag[0] -= np.where(kept[0], alphas, 0.0) / hg
        diag[-1] -= np.where(kept[-1], betas, 0.0) / hg
    # the mass scaling turns a form-level noise entry back into its point value
    if noise is not None:
        check_noise(spec, [noise], eps, zeta)
        values = _noise_values(spec, noise, nodes, w, eps, zeta)
        index = pair_index(noise.r)
        diag += values[[index[(i, i)] for i in range(1, r + 1)], 0].T
    kinetic = -1.0 / (2.0 * hg * np.sqrt(w[:-1] * w[1:]))
    linked = kept[:-1] & kept[1:]

    mult = 2 if spec.kind == "H" else 1
    u = r * mult
    band = np.zeros((u + 1, int(kept.sum()) * mult),
                    dtype=np.float64 if spec.kind == "R" else np.complex128)

    def put(rows, cols, vals):
        band[u + rows - cols, cols] = vals

    for s in range(mult):
        put(mult * row[kept] + s, mult * row[kept] + s, diag[kept])
        put(mult * row[:-1][linked] + s, mult * row[1:][linked] + s,
            np.broadcast_to(kinetic[:, None], linked.shape)[linked])
    if noise is not None:
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                shared = kept[:, i - 1] & kept[:, j - 1]
                a, b, c, d = values[index[(i, j)]][:, shared]
                ri, rj = row[shared, i - 1], row[shared, j - 1]
                if spec.kind == "R":
                    put(ri, rj, a)
                elif spec.kind == "C":
                    put(ri, rj, a + 1j * b)
                else:
                    for si, sj, v in ((0, 0, a + 1j * b), (0, 1, c + 1j * d),
                                      (1, 0, -c + 1j * d), (1, 1, a - 1j * b)):
                        put(2 * ri + si, 2 * rj + sj, v)
    return DiscreteOperator(kind=spec.kind, band=band)


def _noise_values(spec: ExperimentSpec, noise: NoiseField, nodes: np.ndarray,
                  w: np.ndarray, eps: float, zeta: float) -> np.ndarray:
    """Standardized noise components of every entry pair at every node,
    (n_pairs, 4, n); each distinct scale is evaluated once for all pairs.

    Mollified entries are point evaluations; white entries are the raw cell
    increments divided by the cell width w (the lumped form then multiplies
    the width back in, so the form-level entry is the bare increment).
    """
    diagonal = np.array([i == j for i, j in pair_index(noise.r)])
    amp = np.where(diagonal, np.sqrt(spec.sigma2),
                   np.sqrt(spec.upsilon2) * UNIT_NORMALIZATION[spec.kind])
    scales = np.where(diagonal, eps, zeta)
    out = np.empty((len(diagonal), 4, len(nodes)))
    for scale in np.unique(scales):
        use = scales == scale
        if scale > 0.0:
            centers = noise.cell_centers()
            out[use] = [[np.interp(nodes, centers, comp) for comp in pair]
                        for pair in mollified_profiles(noise, scale)[use]]
        else:
            cells = np.concatenate([[nodes[0] - w[0]], 0.5 * (nodes[:-1] + nodes[1:]),
                                    [nodes[-1] + w[-1]]])
            out[use] = lattice_white_values(noise, cells)[use] / w
    return amp[:, None, None] * out


def ground_bound(op: DiscreteOperator) -> float:
    """Upper bound U on the lowest eigenvalue, with U - lambda_min < 1.

    A - sigma I has a banded Cholesky factor exactly when sigma < lambda_min,
    so bisection on that test between the Gershgorin lower bound and the
    smallest diagonal entry (a Rayleigh quotient) brackets lambda_min
    without a band reduction."""
    u = op.band.shape[0] - 1
    diag = op.band[u].real
    radius = np.zeros(op.dim)
    for d in range(1, u + 1):
        # entry (j - d, j) counts in the Gershgorin radius of rows j - d and j
        off = np.abs(op.band[u - d, d:])
        radius[d:] += off
        radius[:-d] += off
    lo, hi = float((diag - radius).min()), float(diag.min())
    pbtrf, = scipy.linalg.get_lapack_funcs(("pbtrf",), (op.band,))
    shifted = op.band.copy()
    while hi - lo >= 1.0:
        mid = 0.5 * (lo + hi)
        shifted[u] = diag - mid
        if pbtrf(shifted)[1] == 0:
            lo = mid
        else:
            hi = mid
    return hi


def eigenvalues(op: DiscreteOperator, t_min: float | None = None) -> np.ndarray:
    """Ascending spectrum; quaternion spectra are de-duplicated by halving
    the doubled multiplicities of the complex embedding.

    With t_min, only the eigenvalues up to ground_bound + _TRACE_CUTOFF /
    t_min: in a trace at any t >= t_min the rest weigh less than
    e^-_TRACE_CUTOFF of the lowest.  A cutoff that splits a quaternion pair
    drops the unpaired top value, whose partner lies past the cutoff."""
    select = {}
    if t_min is not None:
        if t_min <= 0:
            raise ValueError("eigenvalues requires t_min > 0")
        select = {"select": "v",
                  "select_range": (-np.inf, ground_bound(op) + _TRACE_CUTOFF / t_min)}
    try:
        eigs = scipy.linalg.eig_banded(op.band, eigvals_only=True, **select)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolve failed for {op.dim}x{op.dim} band matrix "
            f"(max entry {np.abs(op.band).max():.2e})") from exc
    if op.kind != "H":
        return eigs
    spread = float(np.abs(eigs).max(initial=1.0))
    pairs = eigs[:len(eigs) // 2 * 2].reshape(-1, 2)
    if np.abs(pairs[:, 0] - pairs[:, 1]).max(initial=0.0) > 1e-6 * spread:
        raise RuntimeError("quaternion embedding lost its even multiplicities")
    return pairs.mean(axis=1)


def trace_semigroup(eigs: np.ndarray, t: float) -> float:
    if t <= 0:
        raise ValueError("trace_semigroup requires t > 0")
    return float(np.exp(-t * np.asarray(eigs)).sum())


def default_noise_grid(spec: ExperimentSpec, scale: float) -> tuple[float, float, int]:
    """Noise grid covering the truncated domain plus the mollifier margin,
    fine enough for the smallest requested mollification scale."""
    lo, hi = spec.spatial_bounds()
    pad = 2.0 * scale if scale > 0 else 0.0
    lo, hi = lo - pad, hi + pad
    dx = scale / _NOISE_CELLS_PER_SCALE if scale > 0 else (hi - lo) / 4096
    n = int(np.ceil((hi - lo) / dx))
    return lo, hi, n


def oracle_moment(spec: ExperimentSpec, n_draws: int, n_grid: int,
                  rng: np.random.Generator,
                  noise_fields: list[NoiseField] | None = None,
                  spectra_path=None) -> MomentEstimate:
    """Ensemble mean of the product of spectral traces over noise draws.

    The operator's mollification scales are spec's (oracle_scales).
    Supplying noise_fields reuses serialized draws so estimators can be
    cross-validated on identical noise; otherwise n_draws fresh fields are
    sampled on a grid sized for the scales.
    """
    eps, zeta = oracle_scales(spec)
    if noise_fields is None:
        check_draws(n_draws)
        grid = default_noise_grid(spec, min((s for s in (eps, zeta) if s > 0), default=0.0))
        noise_fields = [sample_noise(spec.kind, spec.domain.r, spec.sigma2,
                                     spec.upsilon2, grid, rng)
                        for _ in range(n_draws)]
    vals = []
    spectra = []
    for fieldr in noise_fields:
        op = discretize(spec, fieldr, n_grid, eps=eps, zeta=zeta)
        eigs = eigenvalues(op, t_min=min(spec.ts))
        spectra.append(eigs)
        vals.append(np.prod([trace_semigroup(eigs, t) for t in spec.ts]))
    vals = np.array(vals)
    if spectra_path is not None:
        save_spectra(spectra_path, spectra)
    stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return MomentEstimate(value=float(vals.mean()), stderr=stderr,
                          n_paths=len(vals), n_discarded=0, seed=spec.seed,
                          config_hash=spec.config_hash())


def save_spectra(path, spectra: list[np.ndarray]) -> None:
    write_records(path, [({"record": "spectra", "index": k}, np.asarray(s))
                         for k, s in enumerate(spectra)])


def load_spectra(path) -> list[np.ndarray]:
    out = []
    for header, payload in read_records(path):
        if header.get("record") != "spectra":
            raise ArchiveError(f"{path}: expected a spectra record")
        out.append(payload)
    return out
