"""Matrix-noise realizations: the driving Brownian increments per entry and
component, mollified point evaluations, the mollifier family and its
convolutions, and the closed-form two-point covariance tables the tests
compare against.

Increments are stored raw (standard, variance = cell width); the diagonal
variance sigma^2, off-diagonal variance upsilon^2 and the field-kind
component normalizations are applied at evaluation time, so one stored
realization feeds both the mollified estimator route and the lattice
white-noise oracle route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import N_COMPONENTS, UNIT_NORMALIZATION, FieldElement, conj, from_components
from .records import ArchiveError, read_records, write_records

BUMP_NORM = 15.0 / 16.0


def bump(x) -> np.ndarray:
    """Quartic bump (15/16)(1 - x^2)^2 on [-1, 1]: an even, compactly
    supported probability density with a continuous derivative."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    return np.where(inside, BUMP_NORM * (1.0 - x**2) ** 2, 0.0)


def bump_scaled(x, eps: float) -> np.ndarray:
    return bump(np.asarray(x, dtype=float) / eps) / eps


@dataclass
class MollifierSpec:
    """The base bump profile with cached numerical self/cross convolutions."""

    lookup_points: int = 4096
    _cache: dict = field(default_factory=dict, repr=False)

    def rho(self, zeta: float, eta: float, x) -> np.ndarray | float:
        """Twofold convolution of the scaled bumps, supported on
        [-(zeta + eta), zeta + eta]; cached on a lookup grid."""
        if zeta <= 0 or eta <= 0:
            raise ValueError("mollification scales must be positive")
        key = (round(min(zeta, eta), 14), round(max(zeta, eta), 14))
        if key not in self._cache:
            self._cache[key] = self._build(*key)
        grid, vals = self._cache[key]
        x = np.asarray(x, dtype=float)
        out = np.interp(x, grid, vals, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def _build(self, zeta: float, eta: float):
        support = zeta + eta
        n = self.lookup_points
        dx = 2.0 * support / n
        grid = np.arange(-n // 2, n // 2 + 1) * dx
        f = bump_scaled(grid, zeta)
        g = bump_scaled(grid, eta)
        conv = np.convolve(f, g, mode="same") * dx
        return grid, conv


_DEFAULT_MOLLIFIER = MollifierSpec()


def rho(zeta: float, eta: float, x, spec: MollifierSpec | None = None):
    return (spec or _DEFAULT_MOLLIFIER).rho(zeta, eta, x)


@dataclass
class NoiseField:
    """One realization of the driving Brownian motions on a spatial grid.

    increments[p, c, g] is the raw standard increment of component c of
    entry pair p over cell g; pairs enumerate (i, j) with i <= j.  The
    Hermitian half with i > j is never stored.
    """

    kind: str
    r: int
    sigma2: float
    upsilon2: float
    x_lo: float
    dx: float
    increments: np.ndarray

    def __post_init__(self):
        expected = len(pair_index(self.r))
        if self.increments.shape[0] != expected or self.increments.shape[1] != 4:
            raise ValueError("increments must have shape (n_pairs, 4, n_cells)")

    @property
    def n_cells(self) -> int:
        return self.increments.shape[2]

    @property
    def x_hi(self) -> float:
        return self.x_lo + self.n_cells * self.dx

    def cell_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx

    def scale(self, i: int, j: int) -> float:
        return np.sqrt(self.sigma2) if i == j else np.sqrt(self.upsilon2)


def pair_index(r: int) -> dict[tuple[int, int], int]:
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
    return {p: k for k, p in enumerate(pairs)}


def sample_noise(kind: str, r: int, sigma2: float, upsilon2: float,
                 grid: tuple[float, float, int], rng: np.random.Generator) -> NoiseField:
    """Independent Gaussian increments per cell and component; diagonal
    entries are real so only their first component is drawn."""
    x_lo, x_hi, n_cells = grid
    if x_hi <= x_lo or n_cells < 1:
        raise ValueError("bad grid specification")
    dx = (x_hi - x_lo) / n_cells
    idx = pair_index(r)
    ncomp = N_COMPONENTS[kind]
    inc = np.zeros((len(idx), 4, n_cells))
    for (i, j), p in idx.items():
        live = 1 if i == j else ncomp
        inc[p, :live, :] = rng.standard_normal((live, n_cells)) * np.sqrt(dx)
    return NoiseField(kind=kind, r=r, sigma2=sigma2, upsilon2=upsilon2,
                      x_lo=x_lo, dx=dx, increments=inc)


def sao_variances(kind: str) -> tuple[float, float]:
    """Diagonal and off-diagonal variances of the stochastic Airy preset."""
    if kind not in ("R", "C", "H"):
        raise ValueError(f"unknown field kind {kind!r}")
    return {"R": 1.0, "C": 0.5, "H": 0.25}[kind], 0.5


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

    @property
    def n_draws(self) -> int:
        return self.increments.shape[0]

    def field(self, k: int) -> NoiseField:
        return NoiseField(kind=self.kind, r=self.r, sigma2=self.sigma2,
                          upsilon2=self.upsilon2, x_lo=self.x_lo, dx=self.dx,
                          increments=self.increments[k])

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


def _component_kernel(field: NoiseField, eps: float) -> np.ndarray:
    half = int(np.ceil(eps / field.dx)) + 1
    offsets = np.arange(-half, half + 1) * field.dx
    return bump_scaled(offsets, eps)


def mollified_profiles(field: NoiseField, eps: float) -> np.ndarray:
    """Mollified component values at every cell center, all pairs at once.

    The convolution sum_cells bump_eps(x - center) dW approximates the
    smoothed derivative of the Brownian sheet entry; values in between
    centers come from linear interpolation (see mollified_eval).
    """
    if eps <= 0:
        raise ValueError("mollified evaluation requires eps > 0")
    if eps < 2.0 * field.dx:
        raise ValueError(f"eps {eps} under-resolved by the noise grid dx {field.dx}")
    kern = _component_kernel(field, eps)
    pads = len(kern) // 2
    padded = np.pad(field.increments, ((0, 0), (0, 0), (pads, pads)))
    n, c, m = field.increments.shape
    out = np.empty_like(field.increments)
    for p in range(n):
        for comp in range(c):
            out[p, comp] = np.convolve(padded[p, comp], kern[::-1], mode="valid")
    return out


def _eval_components(field: NoiseField, profiles: np.ndarray, p: int, x) -> np.ndarray:
    centers = field.cell_centers()
    x = np.asarray(x, dtype=float)
    comps = np.empty((4,) + x.shape)
    for c in range(4):
        comps[c] = np.interp(x, centers, profiles[p, c])
    return comps


def mollified_eval(field: NoiseField, eps: float, i: int, j: int, x,
                   profiles: np.ndarray | None = None) -> FieldElement:
    """Point value of the mollified noise entry (i, j) as a FieldElement.

    x must stay an eps-margin inside the stored grid.  Passing precomputed
    profiles (from mollified_profiles) skips the convolution.
    """
    xf = float(x)
    if xf < field.x_lo + eps or xf > field.x_hi - eps:
        raise ValueError(f"evaluation point {xf} outside the usable noise range")
    if i > j:
        return conj(mollified_eval(field, eps, j, i, x, profiles))
    if profiles is None:
        profiles = mollified_profiles(field, eps)
    p = pair_index(field.r)[(i, j)]
    comps = _eval_components(field, profiles, p, xf)
    if i == j:
        return FieldElement(field.kind, float(np.sqrt(field.sigma2) * comps[0]))
    norm = UNIT_NORMALIZATION[field.kind] * np.sqrt(field.upsilon2)
    return from_components(field.kind, norm * comps)


def lattice_white_values(field: NoiseField, edges: np.ndarray) -> np.ndarray:
    """Aggregated increments over the cells delimited by edges.

    Returns (n_pairs, 4, len(edges) - 1) sums of raw increments, used by the
    matrix oracle's lattice white-noise route; scaling by variances, kind
    normalization and the cell measure is the caller's business.
    """
    centers = field.cell_centers()
    which = np.searchsorted(edges, centers, side="right") - 1
    valid = (which >= 0) & (which < len(edges) - 1)
    npairs, ncomp, _ = field.increments.shape
    out = np.zeros((npairs, ncomp, len(edges) - 1))
    cols = which[valid]
    for p in range(npairs):
        for c in range(ncomp):
            np.add.at(out[p, c], cols, field.increments[p, c, valid])
    return out


def covariance_table(kind: str, relation: str, steps, zeta: float, eta: float,
                     d: float, upsilon2: float = 1.0,
                     spec: MollifierSpec | None = None) -> float:
    """Closed-form two-point expectation of mollified off-diagonal entries.

    relation is 'same' (identical ordered jumps), 'reversed' (opposite
    orientation) or 'unrelated'.  steps is the pair of binary steps indexing
    the 2x2 embedding entries and only matters for kind H.
    """
    if relation == "unrelated":
        return 0.0
    if relation not in ("same", "reversed"):
        raise ValueError(f"unknown relation {relation!r}")
    base = float(upsilon2 * rho(zeta, eta, d, spec))
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


def save_noise(path, fields: list[NoiseField]) -> None:
    records = []
    for f in fields:
        header = {"record": "noise", "kind": f.kind, "r": f.r, "sigma2": f.sigma2,
                  "upsilon2": f.upsilon2, "x_lo": f.x_lo, "dx": f.dx}
        records.append((header, f.increments))
    write_records(path, records)


def load_noise(path) -> list[NoiseField]:
    out = []
    for header, payload in read_records(path):
        if header.get("record") != "noise":
            raise ArchiveError(f"{path}: expected a noise record, got {header.get('record')!r}")
        out.append(NoiseField(kind=header["kind"], r=header["r"],
                              sigma2=header["sigma2"], upsilon2=header["upsilon2"],
                              x_lo=header["x_lo"], dx=header["dx"],
                              increments=payload))
    return out
