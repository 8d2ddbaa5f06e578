"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Target, Tracer, resolve, self_times  # noqa: E402

from mvsao import cli  # noqa: E402
from mvsao.noise_model import save_noise  # noqa: E402


def span(name, start, end, parent, layer="x"):
    return [name, layer, start, end, parent, None]


class TestSelfTimes:
    def test_synthetic_tree(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),       # overlaps a: the union counts once
            span("a.child", 2.0, 3.0, 1),
            span("c", 8.0, 12.0, 0),      # runs past its parent: clipped
            span("other_root", 20.0, 21.5, -1),
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.5])

    def test_layer_self_time_sums_by_layer(self):
        spans = [
            ["mvsao.cli.run", "cli", 0.0, 10.0, -1, None],
            ["mvsao.cli.whitenoise_trace_moment", "estimators", 1.0, 9.0, 0,
             {"stderr": 0.1, "paths": 128, "discarded": 2, "share": 0.01, "requested": 100}],
            ["mvsao.estimators.step_crossing_probs", "stochastic_paths", 2.0, 5.0, 1,
             {"steps": 10}],
            ["mvsao.estimators.step_crossing_probs", "stochastic_paths", 6.0, 7.0, 1,
             {"steps": 30}],
        ]
        m = layers.layer_metrics(spans, [], n_ops=2, overhead_s=0.5, untraced_s=5.0)
        assert m["cli.self_s"] == pytest.approx(1.0)
        assert m["estimators.self_s"] == pytest.approx(2.0)
        assert m["stochastic_paths.self_s"] == pytest.approx(2.0)
        assert m["stochastic_paths.crossing_s"] == pytest.approx(2.0)
        assert m["stochastic_paths.crossing_steps"] == pytest.approx(20.0)
        assert m["trace.overhead_share"] == pytest.approx(0.1)
        assert m["estimators.paths_simulated_ratio"] == pytest.approx(1.3)
        assert m["estimators.discard_rate"] == pytest.approx(2 / 130)
        assert m["matrix_oracle.dim.H"] == 0.0


class TestGate:
    def test_gate_flags_perturbed_estimate(self):
        ref = wl.load_reference()["white_m2"]
        good = {"estimate": ref["value"] + 0.5 * ref["stderr"], "stderr": 0.007}
        assert wl.gate_estimate(good, ref) is None
        for broken in (2.0 * ref["value"], -ref["value"], ref["value"] + 0.05):
            assert wl.gate_estimate(dict(good, estimate=broken), ref) is not None
        assert wl.gate_estimate(dict(good, stderr=float("nan")), ref) is not None
        assert wl.gate_estimate(dict(good, stderr=0.0), ref) is not None

    def test_oracle_gate_flags_perturbed_trace(self):
        traces = np.array(wl.load_reference()["oracle_fields"]["pool_traces"]["R"][:40])
        exact = {"estimate": float(traces.mean()), "n_paths": 40,
                 "stderr": float(traces.std(ddof=1) / np.sqrt(40))}
        assert wl.gate_oracle(exact, traces) is None
        assert wl.gate_oracle(dict(exact, estimate=exact["estimate"] * (1 + 1e-5)),
                              traces) is not None
        assert wl.gate_oracle(dict(exact, stderr=exact["stderr"] * 1.01), traces) is not None
        assert wl.gate_oracle(dict(exact, n_paths=39), traces) is not None


class TestTracer:
    def test_install_restores_and_reports_absent(self):
        mod = types.ModuleType("perfbench_fake_layer")
        mod.f = lambda x: x + 1
        original = mod.f
        sys.modules[mod.__name__] = mod
        try:
            tracer = Tracer([Target("perfbench_fake_layer.f", "fake"),
                             Target("perfbench_fake_layer.gone", "fake")])
            with tracer:
                assert mod.f is not original
                assert mod.f(1) == 2
            assert mod.f is original
            assert tracer.absent == ["perfbench_fake_layer.gone"]
            assert [s[0] for s in tracer.spans] == ["perfbench_fake_layer.f"]
        finally:
            del sys.modules[mod.__name__]

    def test_every_target_resolves(self):
        missing = [t.path for t in layers.TARGETS if resolve(t.path) is None]
        assert missing == []

    def test_absent_target_drops_only_its_metrics(self):
        m = layers.layer_metrics([], ["mvsao.estimators.rho"], 1, 0.0, 1.0)
        assert "noise_model.rho_s" not in m and "noise_model.rho_calls" not in m
        assert set(m) == set(layers.PER_LAYER) - {"noise_model.rho_s", "noise_model.rho_calls"}


def _small_calls(tmp_path):
    """Tiny versions of every workload's calls, fast enough for a unit test."""
    small = {"n_quad": 2, "paths": 16}
    calls = [dict(wl.WHITE_M2, **small), dict(wl.RIGIDITY_COV, **small),
             dict(wl.SMOOTH_CROSS, n_quad=2, paths=32)]
    for kind in wl.ORACLE_FIELDS:
        archive = tmp_path / f"{kind}.mvsao"
        save_noise(archive, [wl.pool_draw(kind, k) for k in range(2)])
        calls.append(wl.oracle_config(kind, str(archive), grid=48))
    return calls


def _output_bytes(calls, tmp_path, name):
    out = b""
    for i, config in enumerate(calls):
        path = tmp_path / f"{name}-{i}.csv"
        cli.write_results(cli.run(cli.parse_config(config, {"seed": 3})), path, "csv")
        out += path.read_bytes()
    return out


def test_untraced_run_after_traced_run_is_byte_identical(tmp_path):
    calls = _small_calls(tmp_path)
    owners = {t.path: resolve(t.path) for t in layers.TARGETS}
    before = {p: vars(o)[a] for p, (o, a) in owners.items()}
    first = _output_bytes(calls, tmp_path, "first")
    tracer = Tracer(layers.TARGETS)
    with tracer:
        traced = _output_bytes(calls, tmp_path, "traced")
    after = _output_bytes(calls, tmp_path, "after")
    assert traced == first
    assert after == first
    assert all(vars(o)[a] is before[p] for p, (o, a) in owners.items())
    names = {s[0] for s in tracer.spans}
    assert {"mvsao.cli.run", "mvsao.estimators.step_crossing_probs",
            "mvsao.matrix_oracle.eigenvalues", "mvsao.noise_model.read_records"} <= names


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_work_norm_err_is_wall_times_squared_error_bar():
    def op(wall, stderr):
        return run.OpResult(0, [run.CallResult("w", wall, [{"stderr": stderr}])])

    path = types.SimpleNamespace(draw_labels=())
    ops = [op(10.0, 0.1), op(12.0, 0.2), op(20.0, 0.1)]
    assert run.work_norm_err(ops, path) == pytest.approx(0.2)
    assert run.work_norm_err(ops, types.SimpleNamespace(draw_labels=("oracle_R",))) == 0.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(range(10)) == "median 4.5 of 10"
    assert run.tail(range(1, 41)).endswith("p75 30")
