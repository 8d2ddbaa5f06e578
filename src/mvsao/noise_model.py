"""Matrix-noise realizations: the driving Brownian increments per entry and
component, the mollifier family and its twofold convolutions, the mollified
profiles and lattice sums that the estimators and the matrix oracle read,
the one quaternion arithmetic (the 2x2 complex block of an entry), and the
binary noise archives.

Increments are stored raw (standard, variance = cell width); the diagonal
variance sigma^2, off-diagonal variance upsilon^2 and the field-kind
component normalizations are applied at evaluation time, so one stored
realization feeds both the mollified estimator route and the lattice
white-noise oracle route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .records import ArchiveError, read_records, write_records

BUMP_NORM = 15.0 / 16.0

# components drawn per kind, and the normalization of a standard noise unit:
# x (R), (x + y*i)/sqrt(2) (C), (x + y*i + z*j + w*k)/2 (H)
N_COMPONENTS = {"R": 1, "C": 2, "H": 4}
UNIT_NORMALIZATION = {"R": 1.0, "C": 1.0 / np.sqrt(2.0), "H": 0.5}


def quaternion_block(a, b, c, d) -> np.ndarray:
    """The 2x2 complex block [[a+ib, c+id], [-c+id, a-ib]] of the entry
    a + b*i + c*j + d*k, elementwise for array components (block axes
    first).  The map is multiplicative, takes the quaternion conjugate to
    the conjugate transpose, and embeds an R or C value z as diag(z, conj z):
    entry products are block products, and (M00, M01) reads a product back."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def bump(x) -> np.ndarray:
    """Quartic bump (15/16)(1 - x^2)^2 on [-1, 1]: an even, compactly
    supported probability density with a continuous derivative."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    return np.where(inside, BUMP_NORM * (1.0 - x**2) ** 2, 0.0)


def bump_scaled(x, eps: float) -> np.ndarray:
    return bump(np.asarray(x, dtype=float) / eps) / eps


# points of the lookup grid on which rho tabulates each convolution
_RHO_POINTS = 4096


@lru_cache(maxsize=None)
def _rho_table(zeta: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    support = zeta + eta
    dx = 2.0 * support / _RHO_POINTS
    grid = np.arange(-_RHO_POINTS // 2, _RHO_POINTS // 2 + 1) * dx
    f = bump_scaled(grid, zeta)
    g = bump_scaled(grid, eta)
    conv = np.convolve(f, g, mode="same") * dx
    return grid, conv


def rho(zeta: float, eta: float, x) -> np.ndarray | float:
    """Twofold convolution of the scaled bumps, supported on
    [-(zeta + eta), zeta + eta]; interpolated from a cached lookup grid."""
    if zeta <= 0 or eta <= 0:
        raise ValueError("mollification scales must be positive")
    grid, vals = _rho_table(round(min(zeta, eta), 14), round(max(zeta, eta), 14))
    x = np.asarray(x, dtype=float)
    out = np.interp(x, grid, vals, left=0.0, right=0.0)
    return out if out.ndim else float(out)


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
        if self.kind not in ("R", "C", "H"):
            raise ValueError(f"kind {self.kind!r} is not R, C or H")
        if type(self.r) is not int or self.r < 1:
            raise ValueError(f"r = {self.r!r} is not an integer >= 1")
        scalars = (self.sigma2, self.upsilon2, self.x_lo, self.dx)
        if not all(isinstance(v, (int, float)) and abs(v) < np.inf for v in scalars):
            raise ValueError(f"sigma2, upsilon2, x_lo, dx = {scalars}: need finite numbers")
        if self.dx <= 0:
            raise ValueError(f"cell width dx = {self.dx} is not positive")
        pairs = self.r * (self.r + 1) // 2
        if self.increments.ndim != 3 or self.increments.shape[:2] != (pairs, 4):
            raise ValueError(f"increments of shape {self.increments.shape}, not "
                             f"({pairs}, 4, cells) for r = {self.r}")

    @property
    def n_cells(self) -> int:
        return self.increments.shape[2]

    @property
    def x_hi(self) -> float:
        return self.x_lo + self.n_cells * self.dx

    def cell_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.dx


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


def _component_kernel(field: NoiseField, eps: float) -> np.ndarray:
    half = int(np.ceil(eps / field.dx)) + 1
    offsets = np.arange(-half, half + 1) * field.dx
    return bump_scaled(offsets, eps)


def mollified_profiles(field: NoiseField, eps: float) -> np.ndarray:
    """Mollified component values at every cell center, all pairs at once.

    The convolution sum_cells bump_eps(x - center) dW approximates the
    smoothed derivative of the Brownian sheet entry; the kernel estimator
    interpolates linearly in between centers.
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


# the keys of a noise record's header besides its record tag
_NOISE_HEADER = ("kind", "r", "sigma2", "upsilon2", "x_lo", "dx")


def save_noise(path, fields: list[NoiseField]) -> None:
    headers = [{"record": "noise", **{key: getattr(f, key) for key in _NOISE_HEADER}}
               for f in fields]
    write_records(path, [(header, f.increments) for header, f in zip(headers, fields)])


def load_noise(path) -> list[NoiseField]:
    """The noise fields of an archive; ArchiveError naming the file for a
    record that is not a well-formed noise record."""
    out = []
    for k, (header, payload) in enumerate(read_records(path)):
        if header.get("record") != "noise":
            raise ArchiveError(f"{path}: expected a noise record, got {header.get('record')!r}")
        missing = [key for key in _NOISE_HEADER if key not in header]
        if missing:
            raise ArchiveError(f"{path}: noise record {k} lacks {missing}")
        try:
            out.append(NoiseField(increments=payload,
                                  **{key: header[key] for key in _NOISE_HEADER}))
        except ValueError as exc:
            raise ArchiveError(f"{path}: noise record {k}: {exc}") from exc
    return out
