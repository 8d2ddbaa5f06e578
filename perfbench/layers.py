"""What the traced run wraps in each mvsao layer and the per-layer metrics
it derives from the spans.

Times and counts are per operation (totals over the traced operations
divided by their number), so runs with different operation counts compare.
A layer a workload does not use reads 0.  A metric whose target no longer
exists is left out of the result and named in `absent`.
"""

from __future__ import annotations

import os
from statistics import median

from tracer import END, INFO, LAYER, NAME, PARENT, START, Target, self_times

LAYERS = ("cli", "estimators", "stochastic_paths", "jump_process", "combinatorics",
          "noise_model", "matrix_oracle", "records")


def _rows(args, kwargs, out):
    folded = out[0] if isinstance(out, tuple) else out
    return {"paths": folded.shape[0]}


def _estimate(args, kwargs, out):
    return {"stderr": out.stderr, "paths": out.n_paths, "discarded": out.n_discarded,
            "share": out.max_weight_share, "requested": args[0].n_paths}


# Short keys for the targets the metrics below refer to.
_T = {
    "parse": Target("mvsao.cli.parse_config", "cli"),
    "run": Target("mvsao.cli.run", "cli"),
    "white": Target("mvsao.cli.whitenoise_trace_moment", "estimators", _estimate),
    "smooth": Target("mvsao.cli.smooth_trace_moment", "estimators", _estimate),
    "cov": Target("mvsao.cli.rigidity_covariance", "estimators", _estimate),
    "white_in_cov": Target("mvsao.estimators.whitenoise_trace_moment", "estimators", _estimate),
    "bridge": Target("mvsao.estimators.sample_bridge_ensemble", "stochastic_paths", _rows),
    "crossing": Target("mvsao.estimators.step_crossing_probs", "stochastic_paths",
                       lambda a, k, out: {"steps": out.size}),
    "kernel": Target("mvsao.estimators.transition_density", "stochastic_paths"),
    "interp": Target("mvsao.estimators.interpolate_free", "stochastic_paths"),
    "fold": Target("mvsao.stochastic_paths.fold_to_domain", "stochastic_paths"),
    "jumps": Target("mvsao.estimators.draw_jumps_along", "jump_process"),
    "endpoints": Target("mvsao.jump_process.JumpPath.endpoint_colors", "jump_process",
                        lambda a, k, out: {"accept": out == [c for _, c in a[0].segments]}),
    "step_colors": Target("mvsao.jump_process.JumpPath.color_at_steps", "jump_process"),
    "pairing": Target("mvsao.estimators.constant_c", "combinatorics",
                      lambda a, k, out: {"nonzero": out != 0.0}),
    "matchings": Target("mvsao.estimators.enumerate_matchings", "combinatorics"),
    "random_matching": Target("mvsao.combinatorics.random_matching", "combinatorics"),
    "rho": Target("mvsao.estimators.rho", "noise_model"),
    "lattice": Target("mvsao.matrix_oracle.lattice_white_values", "noise_model"),
    "load_noise": Target("mvsao.cli.load_noise", "noise_model"),
    "oracle": Target("mvsao.cli.oracle_moment", "matrix_oracle"),
    "assembly": Target("mvsao.matrix_oracle.discretize", "matrix_oracle",
                       lambda a, k, out: {"kind": out.kind, "dim": out.dim}),
    "eigensolve": Target("mvsao.matrix_oracle.eigenvalues", "matrix_oracle",
                         lambda a, k, out: {"kind": a[0].kind}),
    "trace": Target("mvsao.matrix_oracle.trace_semigroup", "matrix_oracle"),
    "read": Target("mvsao.noise_model.read_records", "records",
                   lambda a, k, out: {"bytes": os.path.getsize(a[0])}),
}
TARGETS = tuple(_T.values())

FIELDS = ("R", "C", "H")
# name -> (unit, better, keys of the targets it needs)
PER_LAYER = {
    "cli.parse_s": ("s", "lower", ("parse",)),
    "estimators.paths_simulated_ratio": ("ratio", "lower", ("white", "smooth", "white_in_cov")),
    "estimators.stderr": ("1", "lower", ("white", "smooth", "cov")),
    "work_norm_err": ("s", "lower", ()),
    "estimators.discard_rate": ("ratio", "lower", ("white", "smooth", "white_in_cov")),
    "estimators.max_weight_share": ("ratio", "lower", ("white", "smooth", "cov")),
    "stochastic_paths.crossing_s": ("s", "lower", ("crossing",)),
    "stochastic_paths.crossing_steps": ("count", "lower", ("crossing",)),
    "stochastic_paths.bridge_s": ("s", "lower", ("bridge",)),
    "stochastic_paths.bridge_calls": ("count", "lower", ("bridge",)),
    "stochastic_paths.paths_per_call": ("count", "higher", ("bridge",)),
    "stochastic_paths.kernel_s": ("s", "lower", ("kernel",)),
    "stochastic_paths.interp_s": ("s", "lower", ("interp", "fold")),
    "jump_process.walk_s": ("s", "lower", ("jumps", "endpoints", "step_colors")),
    "jump_process.walks": ("count", "lower", ("endpoints",)),
    "jump_process.walk_accept": ("ratio", "higher", ("endpoints",)),
    "combinatorics.pairing_s": ("s", "lower", ("pairing",)),
    "combinatorics.pairing_calls": ("count", "lower", ("pairing",)),
    "combinatorics.pairing_nonzero": ("count", "higher", ("pairing",)),
    "combinatorics.matching_s": ("s", "lower", ("matchings", "random_matching")),
    "noise_model.rho_s": ("s", "lower", ("rho",)),
    "noise_model.rho_calls": ("count", "lower", ("rho",)),
    "noise_model.lattice_s": ("s", "lower", ("lattice",)),
    **{f"matrix_oracle.assembly_ms.{f}": ("ms", "lower", ("assembly",)) for f in FIELDS},
    **{f"matrix_oracle.eigensolve_ms.{f}": ("ms", "lower", ("eigensolve",)) for f in FIELDS},
    **{f"matrix_oracle.dim.{f}": ("count", "lower", ("assembly",)) for f in FIELDS},
    **{f"matrix_oracle.draw_ms.{f}": ("ms", "lower", ("run", "load_noise", "oracle", "assembly"))
       for f in FIELDS},
    "matrix_oracle.trace_s": ("s", "lower", ("trace",)),
    "records.read_s": ("s", "lower", ("read",)),
    "records.bytes_read": ("B", "lower", ("read",)),
    **{f"{layer}.self_s": ("s", "lower", ()) for layer in LAYERS},
    "trace.overhead_s": ("s", "lower", ()),
    "trace.overhead_share": ("ratio", "lower", ()),
}


class _Spans:
    """Spans of the traced operations grouped by target."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span[NAME], []).append(i)

    def of(self, *keys):
        return [self.spans[i] for key in keys for i in self.by_name.get(_T[key].path, ())]

    def seconds(self, *keys) -> float:
        return sum(s[END] - s[START] for s in self.of(*keys))

    def count(self, *keys) -> int:
        return len(self.of(*keys))

    def probed(self, *keys):
        """Spans of calls that returned, so that their probe ran."""
        return [s for s in self.of(*keys) if s[INFO] is not None]

    def info(self, key, field):
        return [s[INFO][field] for s in self.probed(key)]


def draw_seconds(spans) -> dict[str, list[float]]:
    """Oracle wall time per noise draw and field.

    A draw runs from one assembly start to the next (or to the end of the
    oracle call), which covers assembly, eigensolve and traces; the
    archive read of the same `cli.run` call is shared out over its draws.
    """
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[PARENT], []).append(i)
    out: dict[str, list[float]] = {}
    for root in (i for i, s in enumerate(spans) if s[NAME] == _T["run"].path):
        below = [spans[i] for i in kids.get(root, ())]
        read = sum(s[END] - s[START] for s in below if s[NAME] == _T["load_noise"].path)
        for oracle in (i for i in kids.get(root, ()) if spans[i][NAME] == _T["oracle"].path):
            starts = [spans[i] for i in kids.get(oracle, ())
                      if spans[i][NAME] == _T["assembly"].path and spans[i][INFO]]
            if not starts:
                continue
            bounds = [s[START] for s in starts] + [spans[oracle][END]]
            kind = starts[0][INFO]["kind"]
            out.setdefault(kind, []).extend(
                b - a + read / len(starts) for a, b in zip(bounds, bounds[1:]))
    return out


def layer_metrics(spans, absent, n_ops: int, overhead_s: float, untraced_s: float,
                  work_norm_err: float = 0.0):
    """Per-layer metrics of one traced run, keyed as in PER_LAYER.

    work_norm_err comes from the operations' records, not from the spans.
    """
    sp = _Spans(spans)
    per_op = 1.0 / max(n_ops, 1)
    m = {
        "cli.parse_s": sp.seconds("parse") * per_op,
        "stochastic_paths.crossing_s": sp.seconds("crossing") * per_op,
        "stochastic_paths.crossing_steps": sum(sp.info("crossing", "steps")) * per_op,
        "stochastic_paths.bridge_s": sp.seconds("bridge") * per_op,
        "stochastic_paths.bridge_calls": sp.count("bridge") * per_op,
        "stochastic_paths.paths_per_call": _ratio(sum(sp.info("bridge", "paths")),
                                                  sp.count("bridge")),
        "stochastic_paths.kernel_s": sp.seconds("kernel") * per_op,
        "stochastic_paths.interp_s": sp.seconds("interp", "fold") * per_op,
        "jump_process.walk_s": sp.seconds("jumps", "endpoints", "step_colors") * per_op,
        "jump_process.walks": sp.count("endpoints") * per_op,
        "jump_process.walk_accept": _ratio(sum(sp.info("endpoints", "accept")),
                                           sp.count("endpoints")),
        "combinatorics.pairing_s": sp.seconds("pairing") * per_op,
        "combinatorics.pairing_calls": sp.count("pairing") * per_op,
        "combinatorics.pairing_nonzero": sum(sp.info("pairing", "nonzero")) * per_op,
        "combinatorics.matching_s": sp.seconds("matchings", "random_matching") * per_op,
        "noise_model.rho_s": sp.seconds("rho") * per_op,
        "noise_model.rho_calls": sp.count("rho") * per_op,
        "noise_model.lattice_s": sp.seconds("lattice") * per_op,
        "matrix_oracle.trace_s": sp.seconds("trace") * per_op,
        "records.read_s": sp.seconds("read") * per_op,
        "records.bytes_read": sum(sp.info("read", "bytes")) * per_op,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": _ratio(overhead_s, untraced_s),
        "work_norm_err": work_norm_err,
    }
    m.update(_estimator_metrics(sp))
    for f in FIELDS:
        asm = [s for s in sp.probed("assembly") if s[INFO]["kind"] == f]
        eig = [s for s in sp.probed("eigensolve") if s[INFO]["kind"] == f]
        m[f"matrix_oracle.assembly_ms.{f}"] = _median_ms(asm)
        m[f"matrix_oracle.eigensolve_ms.{f}"] = _median_ms(eig)
        m[f"matrix_oracle.dim.{f}"] = max((s[INFO]["dim"] for s in asm), default=0)
    draws = draw_seconds(spans)
    for f in FIELDS:
        m[f"matrix_oracle.draw_ms.{f}"] = 1e3 * median(draws[f]) if draws.get(f) else 0.0
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op * sum(t for s, t in zip(spans, selfs) if s[LAYER] == layer)
    missing = {key for key, target in _T.items() if target.path in set(absent)}
    return {name: float(m[name]) for name, (_, _, needs) in PER_LAYER.items()
            if not missing & set(needs)}


def _estimator_metrics(sp: _Spans) -> dict[str, float]:
    estimator_paths = {_T[k].path for k in ("white", "smooth", "cov", "white_in_cov")}
    tops = [s for s in sp.probed("white", "smooth", "cov")
            if s[PARENT] < 0 or sp.spans[s[PARENT]][NAME] not in estimator_paths]
    leaves = sp.probed("white", "smooth", "white_in_cov")
    simulated = sum(s[INFO]["paths"] + s[INFO]["discarded"] for s in leaves)
    return {
        "estimators.stderr": median(s[INFO]["stderr"] for s in tops) if tops else 0.0,
        "estimators.max_weight_share": median(s[INFO]["share"] for s in tops) if tops else 0.0,
        "estimators.discard_rate": _ratio(sum(s[INFO]["discarded"] for s in leaves), simulated),
        "estimators.paths_simulated_ratio": _ratio(simulated,
                                                   sum(s[INFO]["requested"] for s in leaves)),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median_ms(spans) -> float:
    return 1e3 * median(s[END] - s[START] for s in spans) if spans else 0.0
