"""Configuration-driven experiment runner.

Subcommands: trace | moment | covariance | oracle.  Configs are
strict JSON: unknown keys are rejected and the physics inputs (variances,
times) have no defaults.  Every result row carries the canonical config
hash and the seed, and a fixed (config, seed, workers) triple reproduces
the output file byte for byte, so the wall_time column is only filled
when --timing is passed (stderr gets each estimate, never a time).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .estimators import (
    check_covariance_times,
    check_mollifiers,
    child_seed,
    rigidity_covariance,
    smooth_trace_moment,
    whitenoise_trace_moment,
)
from .experiment import DIRICHLET, ExperimentSpec, MomentEstimate, PotentialSpec
from .matrix_oracle import check_draws, check_grid, check_noise, oracle_moment, oracle_scales
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
_NOISE_KEYS = {"eps", "zeta"}
_COV_KEYS = {"t1", "t2"}
_ORACLE_KEYS = {"draws", "grid", "noise_archive", "spectra_out"}
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
            out.append(float(_finite(v, name)))
    return tuple(out)


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required key '{key}'")
    return cfg[key]


def _finite(v, name: str):
    """v itself, which must be a finite JSON number: json also reads true,
    "0.5", NaN and Infinity, which float() would take."""
    if type(v) not in (int, float) or not math.isfinite(v):
        raise ConfigError(f"'{name}' must be a finite number, got {v!r}")
    return v


def _integer(v, name: str) -> int:
    """v itself, which must be an integer: json also reads 1.7 and true,
    which int() would silently turn into 1."""
    if type(v) is not int:
        raise ConfigError(f"'{name}' must be an integer, got {v!r}")
    return v


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
    for key in ("seed", "t", "paths"):
        if overrides.get(key) is not None:
            cfg[key] = overrides[key]
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
    if kind not in ("trace", "moment", "covariance", "oracle"):
        raise ConfigError(f"unknown experiment kind {kind!r}")

    seed = _integer(_require(cfg, "seed"), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    case = _integer(_require(cfg, "case"), "case")
    r = _integer(cfg.get("r", 1), "r")
    if r > _MAX_COLORS:
        raise ConfigError(f"color count r = {r} above {_MAX_COLORS}")
    theta = cfg.get("theta")
    if case == 3 and theta is not None:
        theta = _finite(theta, "theta")
    domain = DomainConfig(case=case, theta=theta if case == 3 else None, r=r)
    field = cfg.get("field", "R")

    pot_raw = cfg.get("potential", {})
    # PotentialSpec holds the defaults: only the keys the config gives are passed
    convert = {
        "kind": lambda v: v,
        "kappa": lambda v: float(_finite(v, "potential.kappa")),
        "nu": lambda v: float(_finite(v, "potential.nu")),
        "table_x": lambda v: tuple(_finite(x, "potential.table_x") for x in v),
        "table_v": lambda v: tuple(tuple(_finite(x, "potential.table_v") for x in row)
                                   for row in v)}
    _check_keys(pot_raw, set(convert), "potential")
    potential = PotentialSpec(**{key: convert[key](v) for key, v in pot_raw.items()})

    ts = tuple(float(_finite(v, "t")) for v in _require(cfg, "t"))
    sigma2 = float(_finite(_require(cfg, "sigma2"), "sigma2"))
    upsilon2 = float(_finite(_require(cfg, "upsilon2"), "upsilon2"))
    noise = cfg.get("noise", "white")
    if noise == "white":
        eps = zetas = None
    else:
        if kind == "covariance":
            raise ConfigError('a covariance run takes the white route: set "noise": "white"')
        _check_keys(noise, _NOISE_KEYS, "noise")
        eps = tuple(float(_finite(v, "noise.eps")) for v in noise.get("eps", [0.0] * len(ts)))
        zetas = tuple(float(_finite(v, "noise.zeta"))
                      for v in noise.get("zeta", [0.0] * len(ts)))

    spec = ExperimentSpec(
        domain=domain, kind=field, sigma2=sigma2, upsilon2=upsilon2, ts=ts,
        seed=seed, potential=potential,
        alphas=_boundary_vector(cfg.get("alpha"), r, "alpha"),
        betas=_boundary_vector(cfg.get("beta"), r, "beta"),
        eps=eps, zetas=zetas, dt=_positive_number(cfg, "dt"), h=_positive_number(cfg, "h"),
        x_max=_positive_number(cfg, "x_max"),
        **{field: _integer(cfg[key], key) for key, field in
           (("paths", "n_paths"), ("n_quad", "n_quad"), ("n_max", "n_max")) if key in cfg})

    out = {"experiment": kind, "spec": spec, "white": noise == "white"}
    if kind == "covariance":
        cov = _require(cfg, "covariance")
        _check_keys(cov, _COV_KEYS, "covariance")
        out["covariance"] = (float(_finite(_require(cov, "t1"), "covariance.t1")),
                             float(_finite(_require(cov, "t2"), "covariance.t2")))
        check_covariance_times(*out["covariance"])
    if kind == "oracle":
        orc = dict(cfg.get("oracle", {}))
        _check_keys(orc, _ORACLE_KEYS, "oracle")
        if any(orc.get(k) is not None and not isinstance(orc[k], str)
               for k in ("noise_archive", "spectra_out")):
            raise ConfigError("oracle file paths must be strings")
        out["oracle"] = {
            "draws": _integer(orc.get("draws", 100), "oracle.draws"),
            "grid": _integer(orc.get("grid", 500), "oracle.grid"),
            "noise_archive": orc.get("noise_archive"),
            "spectra_out": orc.get("spectra_out"),
        }
        opts = out["oracle"]
        check_grid(spec, opts["grid"], *oracle_scales(spec))
        if opts["noise_archive"] is None:
            check_draws(opts["draws"])
    else:
        # each path estimate as run builds it: one per time of a trace, all
        # times in a moment, t1 and t2 in the covariance's second moment (its
        # first moments then pass too).  dt, or its default for those times,
        # must divide them, and a smooth estimate's mollification scales must
        # suit its bin width
        if kind == "trace":
            subs = [_trace_spec(spec, idx) for idx in range(len(ts))]
        elif kind == "covariance":
            subs = [replace(spec, ts=out["covariance"])]
        else:
            subs = [spec]
        for sub in subs:
            sub.step_counts()
            if noise != "white":
                check_mollifiers(sub)
    return out


def _trace_spec(spec: ExperimentSpec, idx: int) -> ExperimentSpec:
    """The single-time spec of a trace run's time idx, before its seed."""
    return replace(spec, ts=(spec.ts[idx],),
                   eps=None if spec.eps is None else (spec.eps[idx],),
                   zetas=None if spec.zetas is None else (spec.zetas[idx],))


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
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    kind = parsed["experiment"]
    spec: ExperimentSpec = parsed["spec"]
    records = []

    def clock(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, (time.perf_counter() - t0 if timing else None)

    run_hash = spec.config_hash()
    if kind == "trace":
        for idx, t in enumerate(spec.ts):
            sub = replace(_trace_spec(spec, idx), seed=child_seed(spec.seed, idx))
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
        fields = None
        if opts["noise_archive"]:
            fields = load_noise(opts["noise_archive"])
            try:
                check_noise(spec, fields, *oracle_scales(spec))
            except ValueError as exc:
                raise ConfigError(f"{opts['noise_archive']}: {exc}") from exc
        rng = np.random.default_rng(spec.seed)
        est, wall = clock(lambda: oracle_moment(
            spec, opts["draws"], opts["grid"], rng, noise_fields=fields,
            spectra_path=opts["spectra_out"]))
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


def _check_out_path(path: str) -> None:
    """Fail before the run on an output path that cannot be written: its
    directory must exist and the path must not be a directory."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"--out {path!r}: no directory {folder!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvsao",
        description="Trace-moment Monte Carlo laboratory for random "
                    "vector-valued Schrodinger operators")
    parser.add_argument("experiment", choices=["trace", "moment", "covariance", "oracle"])
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
        try:
            times = args.t and [float(v) for v in args.t.split(",")]
        except ValueError:
            raise ConfigError(f"--t takes comma-separated numbers, got {args.t!r}") from None
        overrides = {
            "seed": args.seed,
            "t": times or None,
            "paths": args.paths,
            "preset": args.preset,
        }
        parsed = parse_config(raw, overrides)
        _check_out_path(args.out)
        records = run(parsed, workers=args.workers, timing=args.timing)
        if records:
            write_results(records, args.out, args.format)
    except (ConfigError, ArchiveError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for rec in records:
        print(f"{rec['experiment_id']}: {rec['estimate']:.6g} "
              f"+- {rec['stderr']:.2g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
