"""Finite-difference discretization route to the same trace moments: build
the operator matrix on a grid, eigensolve densely, sum the spectral
exponentials, average over noise draws.

Everything is assembled in quadratic-form units with a lumped (trapezoid)
mass, then symmetrized by the inverse square-root mass, which keeps Robin
rows second-order accurate and the matrix exactly Hermitian.  Quaternion
entries go in through their 2x2 complex embedding (the matrix dimension
doubles); eigenvalues are de-duplicated afterwards since the embedding
doubles every multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .experiment import ExperimentSpec, InvariantError, MomentEstimate
from .noise_model import (
    UNIT_NORMALIZATION,
    NoiseField,
    lattice_white_values,
    mollified_profiles,
    pair_index,
    sample_noise,
)
from .records import ArchiveError, read_records, write_records


@dataclass
class DiscreteOperator:
    """Dense symmetric/Hermitian matrix representation of the operator."""

    kind: str
    matrix: np.ndarray
    r: int
    nodes: np.ndarray           # spatial nodes shared by all colors
    kept: list[np.ndarray]      # per color: node indices that survive Dirichlet rows
    weights: np.ndarray         # lumped mass per matrix row (post-embedding)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def asymmetry(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


class _Assembler:
    """Kind-aware Hermitian accumulation in quadratic-form units."""

    def __init__(self, kind: str, dim: int):
        self.kind = kind
        self.mult = 2 if kind == "H" else 1
        dtype = np.float64 if kind == "R" else np.complex128
        self.m = np.zeros((dim * self.mult, dim * self.mult), dtype=dtype)

    def add_real(self, row: int, col: int, v: float) -> None:
        """A real scalar at (row, col) and, when off-diagonal, at (col, row)."""
        k = self.mult
        for s in range(k):
            self.m[k * row + s, k * col + s] += v
            if row != col:
                self.m[k * col + s, k * row + s] += v

    def add_entry(self, row: int, col: int, comps) -> None:
        """A field-valued entry at (row, col) plus its conjugate transpose."""
        a, b, c, d = comps
        if self.kind == "R":
            self.m[row, col] += a
            self.m[col, row] += a
            return
        if self.kind == "C":
            self.m[row, col] += a + 1j * b
            self.m[col, row] += a - 1j * b
            return
        r2, c2 = 2 * row, 2 * col
        block = np.array([[a + 1j * b, c + 1j * d],
                          [-c + 1j * d, a - 1j * b]])
        self.m[r2:r2 + 2, c2:c2 + 2] += block
        self.m[c2:c2 + 2, r2:r2 + 2] += block.conj().T


def discretize(spec: ExperimentSpec, noise: NoiseField | None, n: int,
               eps: float = 0.0, zeta: float = 0.0) -> DiscreteOperator:
    """Assemble the operator matrix on an n-node grid.

    eps and zeta are the diagonal and off-diagonal mollification scales for
    this single operator; zero selects the lattice white-noise route, where
    each node receives its cell's Brownian increment divided by the cell
    width.  In cases 1 and 2 the domain is truncated at x_max with
    Dirichlet walls at the artificial boundary.
    """
    if n < 16:
        raise ValueError("grid too coarse, need n >= 16")
    lo, hi = spec.spatial_bounds()
    nodes = np.linspace(lo, hi, n)
    hg = float(nodes[1] - nodes[0])
    for scale in (eps, zeta):
        if scale > 0.0 and scale < 2.0 * hg:
            raise ValueError(f"mollification scale {scale} under-resolved by grid step {hg}")
    r = spec.domain.r
    alphas = spec.alphas if spec.alphas is not None else (0.0,) * r
    betas = spec.betas if spec.betas is not None else (0.0,) * r

    kept = []
    for i in range(r):
        drop_lo = spec.domain.case == 1 or np.isneginf(alphas[i])
        drop_hi = spec.domain.case in (1, 2) or np.isneginf(betas[i])
        idx = np.arange(n)
        if drop_lo:
            idx = idx[1:]
        if drop_hi:
            idx = idx[:-1]
        kept.append(idx)

    offsets = np.cumsum([0] + [len(k) for k in kept])
    dim = int(offsets[-1])
    asm = _Assembler(spec.kind, dim)
    weights = np.empty(dim)
    node_w = np.full(n, hg)
    node_w[0] = node_w[-1] = hg / 2.0
    row_of = [{int(g): offsets[i] + k for k, g in enumerate(idx)}
              for i, idx in enumerate(kept)]

    for i, idx in enumerate(kept):
        vk = spec.potential.values(i + 1, nodes[idx], r)
        for k, g in enumerate(idx):
            g = int(g)
            row = row_of[i][g]
            weights[row] = node_w[g]
            asm.add_real(row, row, float(vk[k]) * node_w[g])
            for gn in (g - 1, g + 1):
                if gn < 0 or gn > n - 1:
                    continue
                asm.add_real(row, row, 1.0 / (2.0 * hg))
                if gn in row_of[i] and gn > g:
                    asm.add_real(row, row_of[i][gn], -1.0 / (2.0 * hg))
        if spec.domain.case in (2, 3) and not np.isneginf(alphas[i]) and 0 in row_of[i]:
            asm.add_real(row_of[i][0], row_of[i][0], -alphas[i] / 2.0)
        if spec.domain.case == 3 and not np.isneginf(betas[i]) and (n - 1) in row_of[i]:
            asm.add_real(row_of[i][n - 1], row_of[i][n - 1], -betas[i] / 2.0)

    if noise is not None:
        _add_noise(asm, spec, noise, nodes, node_w, row_of, eps, zeta)

    scale_vec = np.repeat(1.0 / np.sqrt(weights), asm.mult)
    matrix = asm.m * np.outer(scale_vec, scale_vec)
    op = DiscreteOperator(kind=spec.kind, matrix=matrix, r=r, nodes=nodes,
                          kept=kept, weights=np.repeat(weights, asm.mult))
    if op.asymmetry() > 1e-10 * max(1.0, float(np.abs(op.matrix).max())):
        raise InvariantError("assembled operator lost Hermitian symmetry")
    return op


def _entry_values(spec: ExperimentSpec, noise: NoiseField, nodes: np.ndarray,
                  node_w: np.ndarray, scale: float, i: int, j: int) -> np.ndarray:
    """Standardized noise entry (i, j) components at every node, (4, n).

    Mollified entries are point evaluations; white entries are the raw cell
    increments divided by the cell width (the lumped form then multiplies
    the width back in, so the form-level entry is the bare increment).
    """
    p = pair_index(noise.r)[(i, j)]
    amp = np.sqrt(spec.sigma2) if i == j else np.sqrt(spec.upsilon2)
    norm = 1.0 if i == j else UNIT_NORMALIZATION[spec.kind]
    if scale > 0.0:
        if nodes[0] < noise.x_lo + scale - 1e-9 or nodes[-1] > noise.x_hi - scale + 1e-9:
            raise ValueError("noise grid does not cover the domain plus mollifier margin")
        profiles = mollified_profiles(noise, scale)
        centers = noise.cell_centers()
        comps = np.stack([np.interp(nodes, centers, profiles[p, c]) for c in range(4)])
        return amp * norm * comps
    edges = np.concatenate([[nodes[0] - node_w[0]],
                            0.5 * (nodes[:-1] + nodes[1:]),
                            [nodes[-1] + node_w[-1]]])
    agg = lattice_white_values(noise, edges)
    return amp * norm * agg[p] / node_w


def _add_noise(asm, spec, noise, nodes, node_w, row_of, eps, zeta):
    r = spec.domain.r
    for i in range(r):
        for j in range(i, r):
            scale = eps if i == j else zeta
            comps = _entry_values(spec, noise, nodes, node_w, scale, i + 1, j + 1)
            shared = sorted(set(row_of[i]) & set(row_of[j]))
            for g in shared:
                val = comps[:, g] * node_w[g]
                if i == j:
                    asm.add_real(row_of[i][g], row_of[i][g], float(val[0]))
                else:
                    asm.add_entry(row_of[i][g], row_of[j][g], val)


def eigenvalues(op: DiscreteOperator) -> np.ndarray:
    """Ascending spectrum; quaternion spectra are de-duplicated by halving
    the doubled multiplicities of the complex embedding."""
    try:
        eigs = scipy.linalg.eigh(op.matrix, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolve failed for {op.dim}x{op.dim} matrix "
            f"(asymmetry {op.asymmetry():.2e}, max entry "
            f"{np.abs(op.matrix).max():.2e})") from exc
    if op.kind != "H":
        return eigs
    spread = max(1.0, float(np.abs(eigs).max()))
    pairs = eigs.reshape(-1, 2)
    if np.abs(pairs[:, 0] - pairs[:, 1]).max() > 1e-6 * spread:
        raise RuntimeError("quaternion embedding lost its even multiplicities")
    return pairs.mean(axis=1)


def trace_semigroup(eigs: np.ndarray, t: float) -> float:
    if t <= 0:
        raise ValueError("trace_semigroup requires t > 0")
    return float(np.exp(-t * np.asarray(eigs)).sum())


def default_noise_grid(spec: ExperimentSpec, scale: float,
                       cells_per_scale: int = 16) -> tuple[float, float, int]:
    """Noise grid covering the truncated domain plus the mollifier margin,
    fine enough for the smallest requested mollification scale."""
    lo, hi = spec.spatial_bounds()
    pad = 2.0 * scale if scale > 0 else 0.0
    lo, hi = lo - pad, hi + pad
    dx = scale / cells_per_scale if scale > 0 else (hi - lo) / 4096
    n = int(np.ceil((hi - lo) / dx))
    return lo, hi, n


def oracle_moment(spec: ExperimentSpec, n_draws: int, n_grid: int,
                  rng: np.random.Generator,
                  noise_fields: list[NoiseField] | None = None,
                  eps: float = 0.0, zeta: float = 0.0,
                  spectra_path=None) -> MomentEstimate:
    """Ensemble mean of the product of spectral traces over noise draws.

    Supplying noise_fields reuses serialized draws so estimators can be
    cross-validated on identical noise; otherwise n_draws fresh fields are
    sampled on a grid sized for the requested mollification scales.
    """
    if noise_fields is None:
        if n_draws < 2:
            raise ValueError("need at least 2 draws for a standard error")
        grid = default_noise_grid(spec, min((s for s in (eps, zeta) if s > 0), default=0.0))
        noise_fields = [sample_noise(spec.kind, spec.domain.r, spec.sigma2,
                                     spec.upsilon2, grid, rng)
                        for _ in range(n_draws)]
    vals = []
    spectra = []
    for fieldr in noise_fields:
        op = discretize(spec, fieldr, n_grid, eps=eps, zeta=zeta)
        eigs = eigenvalues(op)
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
