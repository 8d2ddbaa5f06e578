"""Experiment descriptions and estimator outputs shared by the Monte Carlo
estimators, the matrix oracle and the command-line runner."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .stochastic_paths import DomainConfig

DIRICHLET = float("-inf")


class InvariantError(RuntimeError):
    """A computed result broke an invariant that correct code guarantees on
    well-formed input, such as a positive single trace."""


@dataclass(frozen=True)
class PotentialSpec:
    """Deterministic diagonal potential: zero, linear growth kappa|x| - nu,
    the Airy-preset slope r x / 2, or a tabulated per-color profile."""

    kind: str = "zero"
    kappa: float = 1.0
    nu: float = 0.0
    table_x: tuple[float, ...] = ()
    table_v: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "sao", "tabulated"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "tabulated" and (not self.table_x or not self.table_v):
            raise ValueError("tabulated potential needs table_x and table_v")

    def values(self, colors, x, r: int) -> np.ndarray:
        """V(color, x) evaluated elementwise on broadcastable arrays."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros(np.broadcast(np.asarray(colors), x).shape)
        if self.kind == "linear":
            return np.broadcast_to(self.kappa * np.abs(x) - self.nu,
                                   np.broadcast(np.asarray(colors), x).shape).copy()
        if self.kind == "sao":
            return np.broadcast_to(r * x / 2.0,
                                   np.broadcast(np.asarray(colors), x).shape).copy()
        colors = np.broadcast_to(np.asarray(colors), np.broadcast(np.asarray(colors), x).shape)
        x = np.broadcast_to(x, colors.shape)
        out = np.empty(colors.shape)
        tx = np.asarray(self.table_x)
        for i in range(1, len(self.table_v) + 1):
            mask = colors == i
            if mask.any():
                out[mask] = np.interp(x[mask], tx, np.asarray(self.table_v[i - 1]))
        return out


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one estimate depends on; hashes into the provenance id.

    eps / zetas are the per-factor diagonal and off-diagonal mollification
    scales (zero means white).  dt, h and x_max carry documented defaults;
    the physics inputs sigma2, upsilon2 and ts never do.
    """

    domain: DomainConfig
    kind: str
    sigma2: float
    upsilon2: float
    ts: tuple[float, ...]
    seed: int
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    alphas: tuple[float, ...] | None = None
    betas: tuple[float, ...] | None = None
    eps: tuple[float, ...] | None = None
    zetas: tuple[float, ...] | None = None
    n_paths: int = 10_000
    dt: float | None = None
    h: float | None = None
    x_max: float | None = None
    n_quad: int = 48
    n_max: int = 12

    def __post_init__(self):
        if self.kind not in ("R", "C", "H"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not self.ts or any(t <= 0 for t in self.ts):
            raise ValueError("times must be positive")
        if len(self.ts) > 4:
            raise ValueError("moments beyond n = 4 are not supported")
        if self.sigma2 < 0 or self.upsilon2 < 0:
            raise ValueError("variances must be nonnegative")
        if self.n_paths < 1 or self.n_quad < 1 or self.n_max < 0:
            raise ValueError("need paths >= 1, n_quad >= 1 and n_max >= 0")
        r = self.domain.r
        if self.domain.case in (2, 3):
            if self.alphas is None or len(self.alphas) != r:
                raise ValueError("cases 2 and 3 need one alpha per color")
        if self.domain.case == 3:
            if self.betas is None or len(self.betas) != r:
                raise ValueError("case 3 needs one beta per color")
        if self.domain.case in (1, 2) and self.x_max is None:
            raise ValueError("cases 1 and 2 need a finite x_max truncation")
        for name in ("eps", "zetas"):
            vals = getattr(self, name)
            if vals is not None and len(vals) != len(self.ts):
                raise ValueError(f"{name} must match the number of times")

    @property
    def n_factors(self) -> int:
        return len(self.ts)

    def eps_vector(self) -> tuple[float, ...]:
        return self.eps if self.eps is not None else (0.0,) * len(self.ts)

    def zeta_vector(self) -> tuple[float, ...]:
        return self.zetas if self.zetas is not None else (0.0,) * len(self.ts)

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else 1e-3 * min(self.ts)

    def step_counts(self) -> list[int]:
        """Steps of the common width resolved_dt() in each factor time;
        ValueError naming a time that the width does not divide."""
        dt = self.resolved_dt()
        counts = [max(1, int(round(t / dt))) for t in self.ts]
        for t, m in zip(self.ts, counts):
            if abs(t / m - dt) > 1e-9 * dt:
                raise ValueError(f"dt = {dt:g} does not divide the factor time {t:g}; adjust dt")
        return counts

    def resolved_h(self) -> float:
        return self.h if self.h is not None else float(np.sqrt(self.resolved_dt()))

    def spatial_bounds(self) -> tuple[float, float]:
        if self.domain.case == 3:
            return 0.0, self.domain.theta
        if self.domain.case == 2:
            return 0.0, self.x_max
        return -self.x_max, self.x_max

    def color_symmetric(self) -> bool:
        """Whether relabeling colors leaves the operator law invariant."""
        if self.potential.kind == "tabulated":
            if len({tuple(v) for v in self.potential.table_v}) > 1:
                return False

        def same(arr):
            return arr is None or len(set(arr)) <= 1

        return same(self.alphas) and same(self.betas)

    def canonical_dict(self) -> dict:
        d = {
            "case": self.domain.case, "theta": self.domain.theta, "r": self.domain.r,
            "kind": self.kind, "sigma2": self.sigma2, "upsilon2": self.upsilon2,
            "ts": list(self.ts), "seed": self.seed,
            "potential": {"kind": self.potential.kind, "kappa": self.potential.kappa,
                          "nu": self.potential.nu,
                          "table_x": list(self.potential.table_x),
                          "table_v": [list(v) for v in self.potential.table_v]},
            "alphas": None if self.alphas is None else list(self.alphas),
            "betas": None if self.betas is None else list(self.betas),
            "eps": None if self.eps is None else list(self.eps),
            "zetas": None if self.zetas is None else list(self.zetas),
            "n_paths": self.n_paths, "dt": self.dt, "h": self.h,
            "x_max": self.x_max, "n_quad": self.n_quad, "n_max": self.n_max,
        }
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class MomentEstimate:
    """Point estimate with its error bar and discard diagnostics."""

    value: float
    stderr: float
    n_paths: int
    n_discarded: int
    seed: int
    config_hash: str
    max_weight_share: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("estimate value must be finite")
        if self.stderr < 0:
            raise ValueError("standard error must be nonnegative")

    @property
    def discard_rate(self) -> float:
        total = self.n_paths + self.n_discarded
        return self.n_discarded / total if total else 0.0
