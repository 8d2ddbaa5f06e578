"""The benchmark's workloads, their correctness gates and their references.

Every workload is a list of operations; one operation is one or more calls
of `mvsao.cli.parse_config` + `mvsao.cli.run`, exactly what the `mvsao`
command does after reading its JSON config.  The configs live here rather
than being read from `configs/`, so that a later change to the shipped
configs cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# An estimate passes when it lies within GATE_Z combined standard errors of
# its oracle reference.  5 keeps false alarms near 1e-6 per operation while a
# wrong factor or sign in an estimator lands tens of standard errors away.
GATE_Z = 5.0
# The oracle is deterministic given its draws; these tolerances leave room
# for another BLAS thread count or a banded eigensolver, nothing more.
ORACLE_MEAN_RTOL = 1e-7
ORACLE_SE_RTOL = 1e-6

# The criterion-6 setting: r = 2 over R on [0, 1], both variances 1/2.
_INTERVAL = {"case": 3, "theta": 1.0, "r": 2, "field": "R",
             "potential": {"kind": "zero"}, "sigma2": 0.5, "upsilon2": 0.5}
_DIRICHLET = {"alpha": "dirichlet", "beta": "dirichlet"}

# configs/interval_white_cross.json at 1e4 requested paths
WHITE_M2 = dict(_INTERVAL, **_DIRICHLET, experiment="moment", t=[0.5, 0.5],
                noise="white", paths=10_000, n_quad=20, dt=0.00025)
# configs/rigidity_sweep.json at 1e4 requested paths per estimate
RIGIDITY_COV = dict(_INTERVAL, experiment="covariance", alpha=[0.0, 0.0],
                    beta=[0.0, 0.0], t=[0.5], noise="white", paths=10_000,
                    n_quad=20, dt=0.0002, covariance={"t1": 0.5, "t2": 0.1})
# acceptance criterion 5 at 4e4 paths
SMOOTH_CROSS = dict(_INTERVAL, **_DIRICHLET, experiment="moment", t=[0.5],
                    noise={"eps": [0.1], "zeta": [0.1]}, paths=40_000, n_quad=32)

# oracle_fields: the lattice white-noise oracle of criterion 6 per field
ORACLE_FIELDS = ("R", "C", "H")
ORACLE_DRAWS = {"R": 40, "C": 10, "H": 2}
ORACLE_POOL = {"R": 160, "C": 40, "H": 8}
ORACLE_GRID = 500
ORACLE_T = 0.5
NOISE_GRID = (0.0, 1.0, 4096)
POOL_KEY = 20240520


def oracle_config(kind: str, archive: str, grid: int = ORACLE_GRID) -> dict:
    return dict(_INTERVAL, **_DIRICHLET, experiment="oracle", field=kind,
                t=[ORACLE_T], noise="white",
                oracle={"grid": grid, "noise_archive": archive})


def pool_draw(kind: str, k: int):
    """Draw k of the reference pool for one field, reproducible anywhere."""
    from mvsao.noise_model import sample_noise

    rng = np.random.default_rng([POOL_KEY, ORACLE_FIELDS.index(kind), k])
    return sample_noise(kind, 2, _INTERVAL["sigma2"], _INTERVAL["upsilon2"],
                        NOISE_GRID, rng)


def op_seed(seed: int, k: int) -> int:
    """Program seed of operation k in a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


@dataclass
class Call:
    """One `mvsao.cli.run` invocation and the check of its records."""

    label: str
    config: dict
    seed: int
    check: object  # callable(records) -> problem string or None


def gate_estimate(record: dict, ref: dict) -> str | None:
    """Problem with a path estimate against its oracle reference, or None."""
    est, se = record["estimate"], record["stderr"]
    if not (np.isfinite(est) and np.isfinite(se) and se > 0):
        return f"estimate {est!r} +- {se!r} is not a finite value with a positive error bar"
    z = abs(est - ref["value"]) / float(np.hypot(se, ref["stderr"]))
    if z > GATE_Z:
        return (f"estimate {est:.6g} +- {se:.2g} is {z:.1f} combined se from "
                f"the reference {ref['value']:.6g} +- {ref['stderr']:.2g}")
    return None


def gate_oracle(record: dict, traces: np.ndarray) -> str | None:
    """Problem with an oracle ensemble against per-draw reference traces."""
    want = float(traces.mean())
    want_se = float(traces.std(ddof=1) / np.sqrt(len(traces)))
    if record["n_paths"] != len(traces):
        return f"oracle used {record['n_paths']} draws, archive holds {len(traces)}"
    if abs(record["estimate"] - want) > ORACLE_MEAN_RTOL * abs(want):
        return f"oracle mean {record['estimate']!r} differs from reference {want!r}"
    if abs(record["stderr"] - want_se) > ORACLE_SE_RTOL * want_se:
        return f"oracle stderr {record['stderr']!r} differs from reference {want_se!r}"
    return None


def _no_check(records):
    return None


def _single(check_one):
    def check(records):
        if len(records) != 1:
            return f"expected one record, got {len(records)}"
        return check_one(records[0])
    return check


@dataclass
class Prepared:
    """A workload made concrete for one benchmark seed."""

    op_calls: object            # callable(k) -> list[Call]
    warmup_calls: list
    # labels of the oracle calls, whose wall time is reported per draw
    draw_labels: tuple = ()


def prepare(name: str, seed: int, out_dir: Path, reference: dict) -> Prepared:
    """Parse-ready calls for workload `name` at benchmark seed `seed`.

    For oracle_fields this draws the pool members for the seed and writes
    them to MVSAO1 archives in out_dir, which is part of set-up.
    """
    if name == "oracle_fields":
        return _prepare_oracle(seed, out_dir, reference["oracle_fields"])
    config, warmup = PATH_WORKLOADS[name]
    ref = reference[name]
    check = _single(lambda rec: gate_estimate(rec, ref))
    return Prepared(
        op_calls=lambda k: [Call(name, config, op_seed(seed, k), check)],
        warmup_calls=[Call(f"{name}-warmup", dict(config, **warmup), seed, _no_check)])


def _prepare_oracle(seed: int, out_dir: Path, ref: dict) -> Prepared:
    from mvsao.noise_model import save_noise

    rng = np.random.default_rng(seed)
    calls, warm = [], []
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in ORACLE_FIELDS:
        picks = np.sort(rng.choice(ORACLE_POOL[kind], ORACLE_DRAWS[kind], replace=False))
        draws = [pool_draw(kind, int(k)) for k in picks]
        archive = out_dir / f"oracle-{kind}.mvsao"
        save_noise(archive, draws)
        warm_archive = out_dir / f"oracle-{kind}-warmup.mvsao"
        save_noise(warm_archive, draws[:1])
        traces = np.asarray(ref["pool_traces"][kind])[picks]
        calls.append(Call(f"oracle_{kind}", oracle_config(kind, str(archive)), seed,
                          _single(lambda rec, tr=traces: gate_oracle(rec, tr))))
        warm.append(Call(f"oracle_{kind}-warmup", oracle_config(kind, str(warm_archive), grid=64),
                         seed, _no_check))
    return Prepared(lambda k: calls, warm, tuple(c.label for c in calls))


# name -> (config, warm-up overrides).  The
# warm-up keeps the physics and shrinks the start grid to 2 nodes, but keeps
# the paths per node of the timed operation: the first allocations of
# batch-sized arrays are page-faulted fresh memory and make the first
# operation up to 20 % slower, on top of lazy imports and matching caches.
PATH_WORKLOADS = {
    "white_m2": (WHITE_M2, {"n_quad": 2, "paths": 16}),          # 16 per node
    "rigidity_cov": (RIGIDITY_COV, {"n_quad": 2, "paths": 1000}),  # 500 per node
    "smooth_cross": (SMOOTH_CROSS, {"n_quad": 2, "paths": 2500}),  # 1250 per node
}
WORKLOADS = tuple(PATH_WORKLOADS) + ("oracle_fields",)
