"""Compute the benchmark's correctness references with the matrix oracle.

    python3 perfbench/make_reference.py        # writes perfbench/reference.json

Path workloads get a reference value and error bar from the finite-
difference oracle in the same setting, averaged over many independent noise
draws; the covariance reference uses products of traces on the same draws.
oracle_fields gets the per-draw trace of every member of a fixed pool of
draws, from which each benchmark seed selects its draws.  Takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from mvsao import cli  # noqa: E402
from mvsao.matrix_oracle import discretize, eigenvalues, trace_semigroup  # noqa: E402
from mvsao.noise_model import sample_noise  # noqa: E402

import workloads as wl  # noqa: E402

REF_KEY = 20240521
N_REF = 600
# name -> (config, oracle grid, noise grid, mollification scale)
SETTINGS = {
    "white_m2": (wl.WHITE_M2, 500, wl.NOISE_GRID, 0.0),
    "rigidity_cov": (wl.RIGIDITY_COV, 500, wl.NOISE_GRID, 0.0),
    # criterion 5: grid 400, noise cells on [-0.2, 1.2] to cover the mollifier margin
    "smooth_cross": (wl.SMOOTH_CROSS, 400, (-0.2, 1.2, 2240), 0.1),
}


def traces_per_draw(spec, draws, grid, scale, ts):
    """Traces at every t for each draw, shape (n_draws, len(ts))."""
    rows = []
    for noise in draws:
        eigs = eigenvalues(discretize(spec, noise, grid, eps=scale, zeta=scale))
        rows.append([trace_semigroup(eigs, t) for t in ts])
    return np.array(rows)


def path_reference(index, name):
    config, grid, noise_grid, scale = SETTINGS[name]
    spec = cli.parse_config(dict(config, experiment="oracle"), {"seed": 0})["spec"]
    rng = np.random.default_rng([REF_KEY, index])
    draws = (sample_noise(spec.kind, spec.domain.r, spec.sigma2, spec.upsilon2,
                          noise_grid, rng) for _ in range(N_REF))
    if name == "rigidity_cov":
        t1, t2 = config["covariance"]["t1"], config["covariance"]["t2"]
        tr = traces_per_draw(spec, draws, grid, scale, (t1, t2))
        centered = tr - tr.mean(axis=0)
        value = float((centered[:, 0] * centered[:, 1]).mean())
        influence = centered[:, 0] * centered[:, 1] - value
        what = f"Cov[Tr e^(-{t1} H), Tr e^(-{t2} H)] from products of traces on the same draws"
    else:
        tr = traces_per_draw(spec, draws, grid, scale, spec.ts)
        prod = tr.prod(axis=1)
        value = float(prod.mean())
        influence = prod - value
        what = f"E[prod_k Tr e^(-t_k H)], t = {list(spec.ts)}"
    stderr = float(influence.std(ddof=1) / np.sqrt(N_REF))
    noise = "lattice white noise" if scale == 0 else f"mollified noise, eps = zeta = {scale}"
    note = (f"matrix oracle, grid {grid}, {noise} on cells {list(noise_grid)}, {N_REF} draws "
            f"from default_rng([{REF_KEY}, {index}]); {what}")
    return {"value": value, "stderr": stderr, "note": note}


def oracle_pool():
    pool = {}
    for kind in wl.ORACLE_FIELDS:
        spec = cli.parse_config(wl.oracle_config(kind, "unused"), {"seed": 0})["spec"]
        draws = (wl.pool_draw(kind, k) for k in range(wl.ORACLE_POOL[kind]))
        pool[kind] = traces_per_draw(spec, draws, wl.ORACLE_GRID, 0.0, (wl.ORACLE_T,))[:, 0].tolist()
    note = (f"per-draw Tr e^(-{wl.ORACLE_T} H) of the matrix oracle, grid {wl.ORACLE_GRID}, "
            f"lattice white noise on cells {list(wl.NOISE_GRID)}; pool draw k of field F "
            f"comes from default_rng([{wl.POOL_KEY}, index of F in RCH, k])")
    return {"pool_traces": pool, "note": note}


def main() -> int:
    out = {"made_with": {"numpy": np.__version__, "scipy": scipy.__version__}}
    for index, name in enumerate(SETTINGS):
        t0 = time.perf_counter()
        out[name] = path_reference(index, name)
        print(f"{name}: {out[name]['value']:.6g} +- {out[name]['stderr']:.2g} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
    t0 = time.perf_counter()
    out["oracle_fields"] = oracle_pool()
    print(f"oracle_fields pool ({time.perf_counter() - t0:.0f} s)", flush=True)
    with open(wl.REFERENCE_FILE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
