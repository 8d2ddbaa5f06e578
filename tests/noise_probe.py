"""Test oracle of the noise model: a batched sampler of the noise law, the
mollified point values of its draws, the closed-form two-point covariance
tables they are checked against (acceptance criterion 3), and batched
two-point samples of the mollified entry (1,2)."""

from dataclasses import dataclass

import numpy as np

from mvsao.noise_model import N_COMPONENTS, UNIT_NORMALIZATION, bump_scaled, pair_index, rho


@dataclass
class NoiseEnsemble:
    """A stack of independent NoiseField draws sharing one grid; increments
    has shape (n_draws, n_pairs, 4, n_cells)."""

    kind: str
    r: int
    sigma2: float
    upsilon2: float
    x_lo: float
    dx: float
    increments: np.ndarray

    def cell_centers(self) -> np.ndarray:
        n = self.increments.shape[3]
        return self.x_lo + (np.arange(n) + 0.5) * self.dx


def sample_noise_ensemble(kind: str, r: int, sigma2: float, upsilon2: float,
                          grid: tuple[float, float, int], n_draws: int,
                          rng: np.random.Generator) -> NoiseEnsemble:
    x_lo, x_hi, n_cells = grid
    dx = (x_hi - x_lo) / n_cells
    idx = pair_index(r)
    ncomp = N_COMPONENTS[kind]
    inc = np.zeros((n_draws, len(idx), 4, n_cells))
    for (i, j), p in idx.items():
        live = 1 if i == j else ncomp
        inc[:, p, :live, :] = rng.standard_normal((n_draws, live, n_cells)) * np.sqrt(dx)
    return NoiseEnsemble(kind=kind, r=r, sigma2=sigma2, upsilon2=upsilon2,
                         x_lo=x_lo, dx=dx, increments=inc)


def mollified_point_ensemble(ens: NoiseEnsemble, eps: float, i: int, j: int,
                             x: float) -> np.ndarray:
    """Scaled, kind-normalized components of entry (i, j) mollified at x,
    for every draw at once; shape (n_draws, 4)."""
    if eps < 2.0 * ens.dx:
        raise ValueError(f"eps {eps} under-resolved by the noise grid dx {ens.dx}")
    centers = ens.cell_centers()
    if x < centers[0] + eps - ens.dx or x > centers[-1] - eps + ens.dx:
        raise ValueError(f"evaluation point {x} outside the usable noise range")
    kern = bump_scaled(x - centers, eps)
    lo, hi = min(i, j), max(i, j)
    p = pair_index(ens.r)[(lo, hi)]
    comps = ens.increments[:, p, :, :] @ kern
    if i == j:
        comps = comps.copy()
        comps[:, 1:] = 0.0
        return np.sqrt(ens.sigma2) * comps
    comps = UNIT_NORMALIZATION[ens.kind] * np.sqrt(ens.upsilon2) * comps
    if i > j:
        comps = comps.copy()
        comps[:, 1:] *= -1.0
    return comps


def covariance_table(kind: str, relation: str, steps, zeta: float, eta: float,
                     d: float, upsilon2: float = 1.0) -> float:
    """Closed-form two-point expectation of mollified off-diagonal entries.

    relation is 'same' (identical ordered jumps), 'reversed' (opposite
    orientation) or 'unrelated'.  steps is the pair of binary steps indexing
    the 2x2 embedding entries and only matters for kind H.
    """
    if relation == "unrelated":
        return 0.0
    if relation not in ("same", "reversed"):
        raise ValueError(f"unknown relation {relation!r}")
    base = float(upsilon2 * rho(zeta, eta, d))
    if kind == "R":
        return base
    if kind == "C":
        return base if relation == "reversed" else 0.0
    if kind != "H":
        raise ValueError(f"unknown field kind {kind!r}")
    s1, s2 = tuple(map(tuple, steps))
    if relation == "same":
        if (s1, s2) in (((0, 0), (1, 1)), ((1, 1), (0, 0))):
            return base / 2.0
        if (s1, s2) in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
            return -base / 2.0
        return 0.0
    if (s1, s2) in (((0, 0), (0, 0)), ((1, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1))):
        return base / 2.0
    return 0.0


def two_point_components(kind, zeta, eta, d, n_samples, seed, upsilon2=0.5,
                         n_chunks=6):
    """Components of xi^zeta_{12}(x) and xi^eta_{12}(y) with y = x + d,
    stacked over n_samples independent draws; shape 2 x (n, 4).

    The reversed-orientation entry xi_{21} is the conjugate of the second
    array (negate the imaginary components)."""
    rng = np.random.default_rng(seed)
    x, y = 0.5, 0.5 + d
    pad = 2 * max(zeta, eta)
    dx = min(zeta, eta) / 24
    lo, hi = min(x, y) - pad, max(x, y) + pad
    cells = int(np.ceil((hi - lo) / dx))
    c1s, c2s = [], []
    per = max(1, n_samples // n_chunks)
    drawn = 0
    while drawn < n_samples:
        m = min(per, n_samples - drawn)
        ens = sample_noise_ensemble(kind, 2, 1.0, upsilon2, (lo, hi, cells), m, rng)
        c1s.append(mollified_point_ensemble(ens, zeta, 1, 2, x))
        c2s.append(mollified_point_ensemble(ens, eta, 1, 2, y))
        drawn += m
    return np.concatenate(c1s), np.concatenate(c2s)


def conj_components(comps):
    out = comps.copy()
    out[:, 1:] *= -1.0
    return out


def embed_entries(comps):
    """2x2 embedding entries, batched: comps (m, 4) -> dict of complex (m,)."""
    a, b, c, d = comps.T
    return {
        (0, 0): a + 1j * b, (0, 1): c + 1j * d,
        (1, 0): -c + 1j * d, (1, 1): a - 1j * b,
    }


def mean_with_se(samples):
    samples = np.asarray(samples)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(len(samples)))
