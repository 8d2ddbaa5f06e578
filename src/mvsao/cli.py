"""Configuration-driven experiment runner.

Subcommands: trace | moment | covariance | oracle | selftest.  Configs are
strict JSON: unknown keys are rejected and the physics inputs (variances,
times) have no defaults.  Every result row carries the canonical config
hash and the seed, and a fixed (config, seed, workers) triple reproduces
the output file byte for byte; wall times therefore go to stderr and the
wall_time column is only filled when --timing is passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .estimators import (
    check_covariance_times,
    child_seed,
    rigidity_covariance,
    smooth_trace_moment,
    whitenoise_trace_moment,
)
from .experiment import DIRICHLET, ExperimentSpec, MomentEstimate, PotentialSpec
from .matrix_oracle import check_draws, check_grid, oracle_moment
from .noise_model import load_noise, sao_variances
from .records import ArchiveError
from .stochastic_paths import DomainConfig

CSV_COLUMNS = ["experiment_id", "kind", "t1", "t2", "t3", "t4", "estimate",
               "stderr", "n_paths", "n_discarded", "seed", "config_hash",
               "wall_time"]

_TOP_KEYS = {"experiment", "case", "theta", "r", "field", "potential", "alpha",
             "beta", "sigma2", "upsilon2", "t", "noise", "paths", "dt", "h",
             "x_max", "n_quad", "n_max", "seed", "covariance", "oracle",
             "preset"}
_POTENTIAL_KEYS = {"kind", "kappa", "nu", "table_x", "table_v"}
_NOISE_KEYS = {"eps", "zeta"}
_COV_KEYS = {"t1", "t2"}
_ORACLE_KEYS = {"draws", "grid", "eps", "zeta", "noise_archive", "spectra_out"}
# far above any color count a run can afford; parsing allocates r-long vectors
_MAX_COLORS = 1024


class ConfigError(ValueError):
    pass


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _boundary_vector(raw, r: int, name: str):
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = [raw] * r
    if len(raw) != r:
        raise ConfigError(f"{name} must list one entry per color")
    out = []
    for v in raw:
        if isinstance(v, str):
            if v.lower() != "dirichlet":
                raise ConfigError(f"{name} entries are numbers or 'dirichlet'")
            out.append(DIRICHLET)
        else:
            out.append(float(v))
    return tuple(out)


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required key '{key}'")
    return cfg[key]


def _positive_number(cfg: dict, key: str):
    v = cfg.get(key)
    if v is not None and not (type(v) in (int, float) and 0 < v < math.inf):
        raise ConfigError(f"'{key}' must be a positive number")
    return v


def parse_config(cfg: dict, overrides: dict | None = None) -> dict:
    """Validate the raw mapping, apply presets and CLI overrides; returns a
    normalized mapping with an ExperimentSpec under 'spec'.  Every malformed
    mapping raises ConfigError."""
    try:
        return _parse_config(dict(cfg), overrides or {})
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(cfg: dict, overrides: dict) -> dict:
    _check_keys(cfg, _TOP_KEYS, "config")
    if overrides.get("seed") is not None:
        cfg["seed"] = overrides["seed"]
    if overrides.get("t") is not None:
        cfg["t"] = overrides["t"]
    if overrides.get("paths") is not None:
        cfg["paths"] = overrides["paths"]
    if overrides.get("preset") or cfg.get("preset"):
        name = overrides.get("preset") or cfg.get("preset")
        if name != "sao":
            raise ConfigError(f"unknown preset {name!r}")
        cfg.setdefault("case", 2)
        cfg.setdefault("field", "R")
        cfg.setdefault("r", 2)
        s2, u2 = sao_variances(cfg["field"])
        cfg.setdefault("sigma2", s2)
        cfg.setdefault("upsilon2", u2)
        cfg.setdefault("potential", {"kind": "sao"})
        cfg.setdefault("alpha", "dirichlet")
        cfg.setdefault("x_max", 10.0)

    kind = _require(cfg, "experiment")
    if kind not in ("trace", "moment", "covariance", "oracle", "selftest"):
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if kind == "selftest":
        return {"experiment": "selftest"}

    seed = int(_require(cfg, "seed"))
    case = int(_require(cfg, "case"))
    r = int(cfg.get("r", 1))
    if r > _MAX_COLORS:
        raise ConfigError(f"color count r = {r} above {_MAX_COLORS}")
    theta = cfg.get("theta")
    domain = DomainConfig(case=case, theta=theta if case == 3 else None, r=r)
    field = cfg.get("field", "R")

    pot_raw = cfg.get("potential", {"kind": "zero"})
    _check_keys(pot_raw, _POTENTIAL_KEYS, "potential")
    potential = PotentialSpec(
        kind=pot_raw.get("kind", "zero"), kappa=float(pot_raw.get("kappa", 1.0)),
        nu=float(pot_raw.get("nu", 0.0)),
        table_x=tuple(pot_raw.get("table_x", ())),
        table_v=tuple(tuple(row) for row in pot_raw.get("table_v", ())))

    ts = tuple(float(v) for v in _require(cfg, "t"))
    sigma2 = float(_require(cfg, "sigma2"))
    upsilon2 = float(_require(cfg, "upsilon2"))
    noise = cfg.get("noise", "white")
    if noise == "white":
        eps = zetas = None
    else:
        _check_keys(noise, _NOISE_KEYS, "noise")
        eps = tuple(float(v) for v in noise.get("eps", [0.0] * len(ts)))
        zetas = tuple(float(v) for v in noise.get("zeta", [0.0] * len(ts)))

    spec = ExperimentSpec(
        domain=domain, kind=field, sigma2=sigma2, upsilon2=upsilon2, ts=ts,
        seed=seed, potential=potential,
        alphas=_boundary_vector(cfg.get("alpha"), r, "alpha"),
        betas=_boundary_vector(cfg.get("beta"), r, "beta"),
        eps=eps, zetas=zetas, n_paths=int(cfg.get("paths", 10_000)),
        dt=_positive_number(cfg, "dt"), h=_positive_number(cfg, "h"),
        x_max=_positive_number(cfg, "x_max"),
        n_quad=int(cfg.get("n_quad", 48)), n_max=int(cfg.get("n_max", 12)))

    out = {"experiment": kind, "spec": spec, "white": noise == "white"}
    if kind == "covariance":
        cov = _require(cfg, "covariance")
        _check_keys(cov, _COV_KEYS, "covariance")
        out["covariance"] = (float(_require(cov, "t1")), float(_require(cov, "t2")))
        check_covariance_times(*out["covariance"])
    if kind == "oracle":
        orc = dict(cfg.get("oracle", {}))
        _check_keys(orc, _ORACLE_KEYS, "oracle")
        if any(orc.get(k) is not None and not isinstance(orc[k], str)
               for k in ("noise_archive", "spectra_out")):
            raise ConfigError("oracle file paths must be strings")
        out["oracle"] = {
            "draws": int(orc.get("draws", 100)), "grid": int(orc.get("grid", 500)),
            "eps": float(orc.get("eps", 0.0)), "zeta": float(orc.get("zeta", 0.0)),
            "noise_archive": orc.get("noise_archive"),
            "spectra_out": orc.get("spectra_out"),
        }
        opts = out["oracle"]
        check_grid(spec, opts["grid"], opts["eps"], opts["zeta"])
        if opts["noise_archive"] is None:
            check_draws(opts["draws"])
    else:
        # dt, or its default for the times at hand, must divide the factor
        # times of each path estimate: one time per trace, all of them in a
        # moment, t1 and t2 in the covariance's second moment (its first
        # moments then pass too)
        time_sets = [(t,) for t in ts] if kind == "trace" else [out.get("covariance", ts)]
        for sub in time_sets:
            replace(spec, ts=sub, eps=None, zetas=None).step_counts()
    return out


def _record(experiment_id: str, kind: str, ts, est: MomentEstimate,
            wall_time: float | None, seed: int, config_hash: str) -> dict:
    padded = list(ts) + [None] * (4 - len(ts))
    return {
        "experiment_id": experiment_id, "kind": kind,
        "t1": padded[0], "t2": padded[1], "t3": padded[2], "t4": padded[3],
        "estimate": est.value, "stderr": est.stderr, "n_paths": est.n_paths,
        "n_discarded": est.n_discarded, "seed": seed,
        "config_hash": config_hash,
        "wall_time": None if wall_time is None else round(wall_time, 3),
        "discard_rate": est.discard_rate,
        "max_weight_share": est.max_weight_share,
        "warnings": list(est.warnings),
    }


def run(parsed: dict, workers: int = 1, timing: bool = False) -> list[dict]:
    """Execute the experiment and return result records."""
    kind = parsed["experiment"]
    if kind == "selftest":
        failures = selftest()
        if failures:
            raise RuntimeError(f"{len(failures)} selftest failure(s): {failures}")
        return []
    spec: ExperimentSpec = parsed["spec"]
    records = []

    def clock(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, (time.perf_counter() - t0 if timing else None)

    run_hash = spec.config_hash()
    if kind == "trace":
        for idx, t in enumerate(spec.ts):
            sub = replace(spec, ts=(t,),
                          eps=None if spec.eps is None else (spec.eps[idx],),
                          zetas=None if spec.zetas is None else (spec.zetas[idx],),
                          seed=child_seed(spec.seed, idx))
            runner = (whitenoise_trace_moment if parsed["white"]
                      else smooth_trace_moment)
            est, wall = clock(lambda: runner(sub, workers=workers))
            records.append(_record(f"trace-{run_hash}-{idx}", "trace",
                                   (t,), est, wall, spec.seed, run_hash))
    elif kind == "moment":
        runner = whitenoise_trace_moment if parsed["white"] else smooth_trace_moment
        est, wall = clock(lambda: runner(spec, workers=workers))
        records.append(_record(f"moment-{run_hash}-0", "moment",
                               spec.ts, est, wall, spec.seed, run_hash))
    elif kind == "covariance":
        t1, t2 = parsed["covariance"]
        est, wall = clock(lambda: rigidity_covariance(spec, t1, t2, workers=workers))
        records.append(_record(f"covariance-{run_hash}-0", "covariance",
                               (t1, t2), est, wall, spec.seed, run_hash))
    elif kind == "oracle":
        opts = parsed["oracle"]
        fields = load_noise(opts["noise_archive"]) if opts["noise_archive"] else None
        rng = np.random.default_rng(spec.seed)
        est, wall = clock(lambda: oracle_moment(
            spec, opts["draws"], opts["grid"], rng, noise_fields=fields,
            eps=opts["eps"], zeta=opts["zeta"], spectra_path=opts["spectra_out"]))
        records.append(_record(f"oracle-{run_hash}-0", "oracle",
                               spec.ts, est, wall, spec.seed, run_hash))
    else:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return records


def write_results(records: list[dict], out_path, fmt: str) -> None:
    if fmt == "csv":
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow(["" if rec[c] is None else rec[c] for c in CSV_COLUMNS])
    elif fmt == "json":
        with open(out_path, "w") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def selftest() -> list[str]:
    """Quick built-in invariant suite; returns the list of failures."""
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    from .algebra import FieldElement, embed, mul
    ij = mul(FieldElement("H", 0, 1), FieldElement("H", 0, 0, 1))
    check("quaternion i*j = k", ij == FieldElement("H", 0, 0, 0, 1))
    check("embedding multiplicative",
          np.allclose(embed(mul(FieldElement("H", 1, 2, 3, 4),
                                FieldElement("H", 4, 3, 2, 1))),
                      embed(FieldElement("H", 1, 2, 3, 4))
                      @ embed(FieldElement("H", 4, 3, 2, 1))))

    from .combinatorics import constant_c, enumerate_matchings
    check("matchings 8 -> 105", len(enumerate_matchings(8)) == 105)
    walk = [(1, 2), (2, 3), (3, 1), (1, 2), (2, 3), (3, 1)]
    p = ((0, 3), (1, 4), (2, 5))
    check("walk fixture weights",
          constant_c("R", walk, p) == 1.0 and constant_c("C", walk, p) == 0.0
          and abs(constant_c("H", walk, p) + 0.5) < 1e-12)

    rng = np.random.default_rng(0)
    from .stochastic_paths import DomainConfig as DC
    from .stochastic_paths import local_time, sample_bridge, transition_density
    dom = DC(case=3, theta=1.0)
    path = sample_bridge(dom, 0.3, 0.7, 1.0, 1e-3, rng)
    field = local_time(path, (0.0, 1.0), 0.05)
    check("occupation identity", abs(field.total_mass() - 1.0) < 1e-9)
    check("kernel symmetry",
          abs(transition_density(dom, 0.3, 0.2, 0.8)
              - transition_density(dom, 0.3, 0.8, 0.2)) < 1e-12)

    from .experiment import ExperimentSpec as ES
    spec = ES(domain=DC(case=3, theta=np.pi, r=1), kind="R", sigma2=0.0,
              upsilon2=0.0, ts=(1.0,), seed=1, alphas=(DIRICHLET,),
              betas=(DIRICHLET,))
    from .matrix_oracle import discretize, eigenvalues
    eigs = eigenvalues(discretize(spec, None, 400))
    check("Dirichlet ground state", abs(eigs[0] - 0.5) < 1e-3)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvsao",
        description="Trace-moment Monte Carlo laboratory for random "
                    "vector-valued Schrodinger operators")
    parser.add_argument("experiment", choices=["trace", "moment", "covariance",
                                               "oracle", "selftest"])
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, help="run seed (overrides config)")
    parser.add_argument("--out", default="results.csv", help="output path")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--t", help="comma-separated time override")
    parser.add_argument("--paths", type=int, help="path count override")
    parser.add_argument("--preset", help="bundled preset name (sao)")
    parser.add_argument("--timing", action="store_true",
                        help="fill the wall_time column (breaks byte-identical reruns)")
    args = parser.parse_args(argv)

    try:
        raw = {"experiment": args.experiment}
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError("the config must be a JSON object")
            raw["experiment"] = args.experiment
        overrides = {
            "seed": args.seed,
            "t": [float(v) for v in args.t.split(",")] if args.t else None,
            "paths": args.paths,
            "preset": args.preset,
        }
        parsed = parse_config(raw, overrides)
        records = run(parsed, workers=args.workers, timing=args.timing)
    except (ConfigError, ArchiveError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if records:
        write_results(records, args.out, args.format)
        for rec in records:
            print(f"{rec['experiment_id']}: {rec['estimate']:.6g} "
                  f"+- {rec['stderr']:.2g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
