"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload white_m2 --seed 1 --seconds 30 --trace 0

Set-up (imports, reference loading, config parsing, oracle noise draws and
one small warm-up operation) is timed as setup_s: the median of this
process's set-up and of SETUP_REPEATS - 1 more in fresh interpreters, so
that import time counts every time.  Operations then run
until the next one would end more than SLACK past --seconds.  With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the run times one untraced operation, repeats
operations under the span tracer and reports the per-layer metrics and the
tracing overhead instead.  Everything the run writes goes to
.perfbench_out/ at the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers  # no numpy here: BLAS threads are pinned before numpy loads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SLACK = 0.1
BLAS_THREADS_MAX = 2
END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB",
}


@dataclass
class CallResult:
    label: str
    wall: float = 0.0
    records: list = field(default_factory=list)
    problem: str | None = None
    raised: bool = False


@dataclass
class OpResult:
    index: int
    calls: list
    traced: bool = False

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)

    @property
    def timed(self) -> bool:
        return not any(c.raised for c in self.calls)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Fix the BLAS pool size before numpy loads; returns the count used."""
    threads = max(1, min(len(os.sched_getaffinity(0)), BLAS_THREADS_MAX))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def run_call(cli, call) -> CallResult:
    out = CallResult(call.label)
    try:
        parsed = cli.parse_config(call.config, {"seed": call.seed})
        t0 = time.perf_counter()
        try:
            out.records = cli.run(parsed, workers=1)
        finally:
            out.wall = time.perf_counter() - t0
    except Exception as exc:  # a failing operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        out.problem, out.raised = f"raised {type(exc).__name__}: {exc}", True
        return out
    out.problem = call.check(out.records)
    return out


def run_op(cli, prepared, k: int) -> OpResult:
    return OpResult(k, [run_call(cli, c) for c in prepared.op_calls(k)])


def run_ops(cli, prepared, budget: float) -> list[OpResult]:
    """Operations 0, 1, ... until the next would end past budget * (1 + SLACK)."""
    ops: list[OpResult] = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(cli, prepared, len(ops)))
        expected = median(op.wall for op in ops)
        if time.perf_counter() - start + expected > budget * (1.0 + SLACK):
            return ops


def end_to_end(ops, setup_s: float) -> dict[str, float]:
    """Medians over the operations that did not raise; empty if all raised."""
    timed = [op for op in ops if op.timed]
    if not timed:
        return {}
    samples = [sum(r["n_paths"] + r["n_discarded"] for c in op.calls for r in c.records)
               / op.wall for op in timed]
    return {
        "setup_s": setup_s,
        "wall_s": median(op.wall for op in timed),
        "paths_per_s": median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def work_norm_err(ops, prepared) -> float:
    """Median over operations of wall × stderr², the time to a fixed error bar.

    Path workloads only (one call with one estimate per operation); the
    oracle reads 0.
    """
    timed = [op for op in ops if op.timed]
    if prepared.draw_labels or not timed:
        return 0.0
    return median(op.wall * op.calls[0].records[0]["stderr"] ** 2 for op in timed)


def tail(samples) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    text = f"median {median(xs):.6g} of {len(xs)}"
    if len(xs) > 10:
        text += f", p{100.0 * (len(xs) - 10) / len(xs):.0f} {xs[-11]:.6g}"
    return text


def environment(blas_threads: int, seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas_threads": blas_threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy), "commit": git_commit(), "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository.

    The ceiling keeps git from reporting an enclosing repository's commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@dataclass
class Setup:
    """One set-up of a workload in this process, with its timed parts."""

    cli: object
    prepared: object
    warmups: list
    import_s: float
    prep_s: float
    warmup_s: float

    @property
    def seconds(self) -> float:
        return self.import_s + self.prep_s + self.warmup_s


def set_up(workload: str, seed: int, out_dir: Path) -> Setup:
    """Imports, reference loading, preparation, config parsing and warm-up.

    Raises ValueError for an unknown workload.
    """
    t0 = time.perf_counter()
    from mvsao import cli

    import workloads as wl
    t1 = time.perf_counter()
    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {wl.WORKLOADS}")
    prepared = wl.prepare(workload, seed, out_dir, wl.load_reference())
    for call in prepared.warmup_calls + prepared.op_calls(0):
        cli.parse_config(call.config, {"seed": call.seed})
    t2 = time.perf_counter()
    warmups = [run_call(cli, c) for c in prepared.warmup_calls]
    return Setup(cli, prepared, warmups, t1 - t0, t2 - t1, time.perf_counter() - t2)


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """set_up's duration in a new interpreter, which pays every import again."""
    code = ("import sys, run; print(run.set_up(sys.argv[1], int(sys.argv[2]), "
            "run.OUT_DIR / 'fresh-setup').seconds)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code, workload, str(seed)], cwd=HERE, env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvsao" / "__init__.py").is_file():
        print(f"error: no mvsao sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        own = set_up(args.workload, args.seed, OUT_DIR)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cli, prepared, warmups = own.cli, own.prepared, own.warmups
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: mvsao imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups = [own.seconds] + [fresh_setup_seconds(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
    setup_s = median(setups)
    env = environment(blas_threads, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup: median {setup_s:.3f} s of {', '.join(f'{x:.3f}' for x in setups)} "
          f"(this process, then fresh interpreters); this process: import "
          f"{own.import_s:.3f} s, preparation {own.prep_s:.3f} s, warm-up {own.warmup_s:.3f} s")

    if args.trace == 0:
        ops = run_ops(cli, prepared, args.seconds)
        metrics, units, tracer = end_to_end(ops, setup_s), END_TO_END, None
    else:
        ops, metrics, tracer = traced_run(cli, prepared, args.seconds)
        units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}

    calls = [c for op in ops for c in op.calls] + [c for c in warmups if c.problem]
    failed = sum(c.problem is not None for c in calls)
    untraced_wne = work_norm_err([op for op in ops if not op.traced], prepared)
    report(ops, prepared, metrics, units, failed, len(calls), tracer, untraced_wne)
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    write_artifact(args, env, result, ops, tracer, untraced_wne)
    print(json.dumps(result))
    return 0


def traced_run(cli, prepared, seconds: float):
    """One untraced operation, then operations 0, 1, ... under the tracer.

    Operation 0 runs on both sides with the same inputs, so its traced
    output must equal its untraced output and the difference of its two
    wall times is the tracing overhead.  work_norm_err counts each traced
    operation once; their wall times include the wrappers' time.
    """
    phase = time.perf_counter()
    base = [run_op(cli, prepared, 0)]
    tracer = Tracer(layers.TARGETS)
    with tracer:
        traced = run_ops(cli, prepared, seconds - (time.perf_counter() - phase))
    for op in traced:
        op.traced = True
    for a, b in zip(base[0].calls, traced[0].calls):
        if a.problem is None and b.problem is None and a.records != b.records:
            b.problem = "traced output differs from untraced output"
    base_wall = base[0].wall
    overhead = traced[0].wall - base_wall
    metrics = layers.layer_metrics(tracer.spans, tracer.absent, len(traced), overhead,
                                   base_wall, work_norm_err(traced, prepared))
    return base + traced, metrics, tracer


def report(ops, prepared, metrics, units, failed, attempted, tracer, untraced_wne):
    """Human-readable lines: each operation, then every metric with its unit."""
    for op in ops:
        for c in op.calls:
            detail = "; ".join(f"{r['estimate']:.6g} +- {r['stderr']:.2g}" for r in c.records)
            print(f"op {op.index}{' traced' if op.traced else ''} {c.label}: {c.wall:.3f} s, "
                  f"{detail or 'no records'}, {'ok' if c.problem is None else 'FAIL ' + c.problem}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric fail_rate = {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} "
          "operations failed)")
    if tracer is None:
        print(f"metric work_norm_err = {untraced_wne:.6g} s (stored in the run's record; also "
              "a per-layer metric of the traced run)")
        print(f"wall_s per operation: {tail([op.wall for op in ops])} s")
        for label in prepared.draw_labels:
            per_draw = [1e3 * c.wall / c.records[0]["n_paths"] for op in ops
                        for c in op.calls if c.label == label and c.records]
            if per_draw:
                print(f"metric draw_ms_{label[-1]}: {tail(per_draw)} ms per draw, one sample "
                      "per operation (the traced run times single draws)")
        return
    for kind, samples in layers.draw_seconds(tracer.spans).items():
        print(f"metric draw_ms_{kind}: {tail([1e3 * x for x in samples])} ms per draw")
    for path in tracer.absent:
        print(f"absent: {path} no longer exists; metrics that need it are left out")


def write_artifact(args, env, result, ops, tracer, untraced_wne: float) -> None:
    """The run's record, with its spans when traced, under .perfbench_out/.

    work_norm_err_untraced is work_norm_err over the untraced operations
    (all of them with --trace 0, operation 0 alone with --trace 1).
    """
    spans = tracer.spans if tracer else []
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "run_id": tracer.run_id if tracer else None, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env, "result": result,
        "work_norm_err_untraced": untraced_wne,
        "ops": [{"index": op.index, "traced": op.traced, "calls": [
            {"label": c.label, "wall": c.wall, "problem": c.problem, "records": c.records}
            for c in op.calls]} for op in ops],
        "absent": tracer.absent if tracer else [],
        "span_names": names,
        "spans": [[index[s[0]], s[2], s[3], s[4], s[5]] for s in spans],
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, default=str)


if __name__ == "__main__":
    sys.exit(main())
