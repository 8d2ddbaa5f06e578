import csv
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvsao
from mvsao.cli import (
    _TOP_KEYS,
    CSV_COLUMNS,
    ConfigError,
    main,
    parse_config,
    run,
    write_results,
)
from mvsao.experiment import DIRICHLET
from mvsao.matrix_oracle import oracle_scales
from mvsao.noise_model import sample_noise, save_noise
from mvsao.records import ArchiveError, read_records

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "experiment": "trace",
    "case": 3, "theta": 1.0, "r": 1, "field": "R",
    "potential": {"kind": "zero"},
    "alpha": "dirichlet", "beta": "dirichlet",
    "sigma2": 0.0, "upsilon2": 0.0,
    "t": [0.5],
    "noise": {"eps": [0.0], "zeta": [0.1]},
    "paths": 1200, "n_quad": 8,
    "seed": 7,
}


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestParsing:
    def test_valid_config(self):
        parsed = parse_config(dict(BASE_CONFIG))
        assert parsed["experiment"] == "trace"
        assert parsed["spec"].alphas == (DIRICHLET,)

    def test_unknown_key_rejected(self):
        cfg = dict(BASE_CONFIG, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(cfg)

    def test_unknown_nested_key_rejected(self):
        cfg = dict(BASE_CONFIG, potential={"kind": "zero", "oops": 2})
        with pytest.raises(ConfigError, match="oops"):
            parse_config(cfg)

    def test_seed_required(self):
        cfg = dict(BASE_CONFIG)
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(cfg)

    def test_physics_inputs_required(self):
        for key in ("sigma2", "upsilon2", "t"):
            cfg = dict(BASE_CONFIG)
            del cfg[key]
            with pytest.raises(ConfigError, match=key):
                parse_config(cfg)

    def test_moment_order_capped(self):
        cfg = dict(BASE_CONFIG, experiment="moment", t=[0.2] * 5,
                   noise={"eps": [0.0] * 5, "zeta": [0.1] * 5})
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_overrides(self):
        parsed = parse_config(dict(BASE_CONFIG),
                              {"seed": 99, "t": [0.25], "paths": 500, "preset": None})
        assert parsed["spec"].seed == 99
        assert parsed["spec"].ts == (0.25,)
        assert parsed["spec"].n_paths == 500

    def test_oracle_reads_scales_from_noise(self):
        # the oracle builds one operator, so each scale holds one value
        for noise, want in (("white", (0.0, 0.0)), ({"eps": [0.1, 0.1]}, (0.1, 0.0)),
                            ({"eps": [0.1, 0.1], "zeta": [0.2, 0.2]}, (0.1, 0.2))):
            cfg = dict(BASE_CONFIG, experiment="oracle", t=[0.5, 0.25], noise=noise,
                       oracle={"grid": 64})
            assert oracle_scales(parse_config(cfg)["spec"]) == want

    def test_sao_preset(self):
        cfg = {"experiment": "trace", "t": [0.5], "seed": 1, "preset": "sao",
               "noise": "white", "paths": 100}
        parsed = parse_config(cfg)
        spec = parsed["spec"]
        assert spec.domain.case == 2 and spec.domain.r == 2
        assert spec.sigma2 == 1.0 and spec.upsilon2 == 0.5
        assert spec.potential.kind == "sao"
        assert spec.alphas == (DIRICHLET, DIRICHLET)


class TestRunner:
    def test_trace_csv_roundtrip(self, tmp_path):
        cfgp = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out.csv"
        rc = main(["trace", "--config", str(cfgp), "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert rows[0]["kind"] == "trace"
        assert rows[0]["t2"] == "" and rows[0]["wall_time"] == ""
        assert float(rows[0]["estimate"]) > 0

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["trace", "--config", str(cfgp), "--out", str(out1)]) == 0
        assert main(["trace", "--config", str(cfgp), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfgp = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["trace", "--config", str(cfgp), "--out", str(out1)]) == 0
        assert main(["trace", "--config", str(cfgp), "--out", str(out2),
                     "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_carries_diagnostics(self, tmp_path):
        cfgp = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out.json"
        rc = main(["trace", "--config", str(cfgp), "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data[0]["discard_rate"] == 0.0
        assert "max_weight_share" in data[0]

    def test_timing_flag_fills_wall_time(self, tmp_path):
        cfgp = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "timed.csv"
        assert main(["trace", "--config", str(cfgp), "--out", str(out),
                     "--timing"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["wall_time"]) >= 0.0

    def test_config_hash_matches_spec(self, tmp_path):
        parsed = parse_config(dict(BASE_CONFIG))
        records = run(parsed)
        assert records[0]["config_hash"] == parsed["spec"].config_hash()
        assert records[0]["seed"] == 7

    def test_oracle_kind(self, tmp_path):
        cfg = dict(BASE_CONFIG, experiment="oracle", noise="white",
                   oracle={"draws": 2, "grid": 100})
        records = run(parse_config(cfg))
        series = sum(np.exp(-(k * np.pi) ** 2 / 2 * 0.5) for k in range(1, 40))
        assert records[0]["estimate"] == pytest.approx(series, rel=1e-2)

    def test_covariance_kind(self):
        cfg = dict(BASE_CONFIG, experiment="covariance", r=2, noise="white",
                   sigma2=0.0, upsilon2=0.0, alpha=[0.0, 0.0], beta=[0.0, 0.0],
                   covariance={"t1": 0.5, "t2": 0.25}, paths=8000)
        records = run(parse_config(cfg))
        assert records[0]["kind"] == "covariance"
        # without noise the covariance is 0; 8000 paths give an error bar of
        # about 0.067, so the fixed bound 0.2 is 3 of them
        assert abs(records[0]["estimate"]) < 0.2
        assert abs(records[0]["estimate"]) <= 3 * records[0]["stderr"]

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        no_theta = {k: v for k, v in BASE_CONFIG.items() if k != "theta"}
        uneven_cov = dict(BASE_CONFIG, experiment="covariance", noise="white", dt=1e-4,
                          covariance={"t1": 0.5, "t2": 0.12345})
        bad = [("trace", dict(BASE_CONFIG, bogus=1)), ("trace", no_theta),
               ("trace", dict(BASE_CONFIG, r=0)), ("trace", dict(BASE_CONFIG, case=7)),
               ("trace", dict(BASE_CONFIG, potential={"kind": "cubic"})),
               ("trace", dict(BASE_CONFIG, alpha=0.5)),
               ("trace", dict(BASE_CONFIG, r=2, alpha=[None, None])),
               ("trace", dict(BASE_CONFIG, noise=3)),
               ("oracle", dict(BASE_CONFIG, noise="white", oracle=[1])),
               ("trace", dict(BASE_CONFIG, t="0.5")), ("trace", dict(BASE_CONFIG, dt=0.0)),
               ("trace", dict(BASE_CONFIG, dt=-1e-3)), ("trace", [BASE_CONFIG]),
               # dt, given or defaulted, must divide every factor time
               ("moment", dict(BASE_CONFIG, t=[0.5, 0.3], noise="white")),
               ("trace", dict(BASE_CONFIG, dt=3e-4)),
               ("covariance", uneven_cov),
               # oracle inputs that discretize or oracle_moment would reject
               ("oracle", dict(BASE_CONFIG, noise="white", oracle={"grid": 8})),
               ("oracle", dict(BASE_CONFIG, noise="white", oracle={"draws": 1, "grid": 50})),
               ("oracle", dict(BASE_CONFIG, noise={"eps": [0.01], "zeta": [0.1]},
                               oracle={"grid": 64})),
               # the oracle's scales: from noise only, one value over the times,
               # none negative
               ("oracle", dict(BASE_CONFIG, noise="white", oracle={"grid": 64, "eps": 0.1})),
               ("oracle", dict(BASE_CONFIG, t=[0.5, 0.25], oracle={"grid": 64},
                               noise={"eps": [0.1, 0.2], "zeta": [0.1, 0.1]})),
               ("oracle", dict(BASE_CONFIG, noise={"eps": [-0.1], "zeta": [0.1]},
                               oracle={"grid": 64})),
               # a covariance runs the white route only
               ("covariance", dict(BASE_CONFIG, experiment="covariance",
                                   covariance={"t1": 0.5, "t2": 0.25})),
               # counts and covariance times out of range
               ("trace", dict(BASE_CONFIG, n_quad=0)), ("trace", dict(BASE_CONFIG, n_quad=-3)),
               ("trace", dict(BASE_CONFIG, paths=0)), ("trace", dict(BASE_CONFIG, paths=-5)),
               ("trace", dict(BASE_CONFIG, n_max=-1)), ("trace", dict(BASE_CONFIG, seed=-1)),
               ("covariance", dict(BASE_CONFIG, experiment="covariance", noise="white",
                                   covariance={"t1": 2.0, "t2": 0.5}))]
        # integer keys must be JSON integers: int() ran 1.7 paths as 1 and r = 2.5 as 2
        bad += [("trace", dict(BASE_CONFIG, **{key: value})) for key, value in (
            ("paths", 1.7), ("paths", True), ("r", 2.5), ("case", 3.7), ("seed", "7"),
            ("seed", 3.9), ("n_quad", 8.0), ("n_max", False))]
        # float keys must be JSON numbers: float() took true as 1 and "0.5" as 0.5
        bad += [("trace", dict(BASE_CONFIG, **change)) for change in (
            {"sigma2": True}, {"sigma2": "0.5"}, {"t": [True]}, {"t": ["0.5"]},
            {"alpha": [True]}, {"noise": {"eps": [0.0], "zeta": [True]}})]
        bad += [("oracle", dict(BASE_CONFIG, noise="white", oracle=oracle)) for oracle in (
            {"draws": 2.5, "grid": 50}, {"draws": 2, "grid": 50.0}, {"draws": True, "grid": 50})]
        # a tabulated potential must fit the run: one table_v row per color,
        # each as long as table_x, and table_x strictly increasing
        table = {"kind": "tabulated", "table_x": [0.0, 0.5, 1.0]}
        bad += [("trace", dict(BASE_CONFIG, r=r, potential=dict(table, **change)))
                for r, change in ((2, {"table_v": [[0.0, 1.0, 0.0]]}),
                                  (1, {"table_v": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]}),
                                  (1, {"table_v": [[0.0, 1.0]]}),
                                  (2, {"table_v": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 2.0]]}),
                                  (1, {"table_x": [0.0, 1.0, 0.5], "table_v": [[0.0, 1.0, 0.0]]}),
                                  (1, {"table_x": [0.0, 0.5, 0.5], "table_v": [[0.0, 1.0, 0.0]]}))]
        # json reads NaN and Infinity; every number must be finite
        nan, inf = float("nan"), float("inf")
        small = dict(json.loads((CONFIGS / "interval_white_cross.json").read_text()),
                     t=[0.5], dt=0.01, n_quad=2, paths=50, seed=1)
        assert main(["moment", "--config", str(write_config(tmp_path, small, "small.json")),
                     "--out", str(tmp_path / "x.csv")]) == 0
        capsys.readouterr()
        bad += [("moment", dict(small, **change)) for change in [
            {"alpha": [nan, 0.0]}, {"alpha": [inf, 0.0]}, {"beta": [0.0, -inf]},
            {"upsilon2": inf}, {"sigma2": nan}, {"theta": nan}, {"theta": inf},
            {"t": [nan]}, {"t": [0.5, inf]},
            {"potential": {"kind": "linear", "kappa": nan}},
            {"potential": {"kind": "linear", "nu": -inf}},
            {"potential": {"kind": "tabulated", "table_x": [0.0, nan],
                           "table_v": [[0.0, 1.0], [0.0, 1.0]]}},
            {"potential": {"kind": "tabulated", "table_x": [0.0, 1.0],
                           "table_v": [[0.0, 1.0], [inf, 1.0]]}},
            {"noise": {"eps": [nan], "zeta": [0.1]}},
            {"noise": {"eps": [0.1], "zeta": [inf]}}]]
        bad += [("covariance", dict(small, experiment="covariance",
                                    covariance={"t1": nan, "t2": 0.5})),
                ("covariance", dict(small, experiment="covariance",
                                    covariance={"t1": 0.5, "t2": inf})),
                ("oracle", dict(small, experiment="oracle", oracle={"grid": 64},
                                noise={"eps": [nan], "zeta": [0.1]})),
                ("oracle", dict(small, experiment="oracle", oracle={"grid": 64},
                                noise={"eps": [0.1], "zeta": [inf]}))]
        # mollification scales the smooth route cannot run: eps below twice
        # the bin width (2 h = 0.0447 at the default dt), zeta = 0 under
        # off-diagonal noise, a negative eps
        mollified = dict(BASE_CONFIG, r=2, sigma2=0.5, upsilon2=0.5, paths=200, n_quad=2,
                         seed=1)
        bad += [("trace", dict(mollified, noise=noise)) for noise in (
            {"eps": [0.01], "zeta": [0.1]}, {"eps": [0.1], "zeta": [0.0]},
            {"eps": [-0.1], "zeta": [0.1]})]
        for k, (experiment, cfg) in enumerate(bad):
            cfgp = write_config(tmp_path, cfg, f"bad{k}.json")
            assert main([experiment, "--config", str(cfgp), "--out",
                         str(tmp_path / "x.csv")]) == 2, cfg
            assert capsys.readouterr().err.startswith("error: ")
        # command-line values reach parse_config's checks too
        good = str(write_config(tmp_path, BASE_CONFIG, "good.json"))
        for argv in (["--preset", "sao", "--t", "abc"], ["--config", good, "--seed", "-1"],
                     ["--config", good, "--workers", "0"], ["--config", good, "--workers", "-2"]):
            assert main(["trace", *argv, "--out", str(tmp_path / "x.csv")]) == 2, argv
            assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(ConfigError, match="factor time 0.12345"):
            parse_config(uneven_cov)
        with pytest.raises(ConfigError, match="must be nonnegative"):
            parse_config(dict(mollified, noise={"eps": [-0.1], "zeta": [0.1]}))
        # each time of a trace is checked at its own default dt: 2 h is
        # 0.0447 at t = 0.5 but 0.0200 at t = 0.1
        parse_config(dict(mollified, t=[0.1], noise={"eps": [0.03], "zeta": [0.1]}))
        with pytest.raises(ConfigError, match="under-resolved"):
            parse_config(dict(mollified, t=[0.1, 0.5], noise={"eps": [0.03, 0.03],
                                                             "zeta": [0.1, 0.1]}))
        (tmp_path / "latin1.json").write_bytes(b"\xff{}")
        assert main(["trace", "--config", str(tmp_path / "latin1.json")]) == 2

    def test_bad_noise_archive_exit_code(self, tmp_path, capsys):
        good = tmp_path / "good.mvsao"
        save_noise(good, [sample_noise("R", 1, 0.5, 0.5, (0.0, 1.0, 64),
                                       np.random.default_rng(0))])
        blob = good.read_bytes()
        for name, data in [("short", blob[:8]), ("truncated", blob[:-8]),
                           ("magic", b"XXXXXX" + blob[6:])]:
            path = tmp_path / f"{name}.mvsao"
            path.write_bytes(data)
            with pytest.raises(ArchiveError, match=f"{name}.mvsao"):
                read_records(path)
            cfg = dict(BASE_CONFIG, noise="white",
                       oracle={"draws": 1, "grid": 50, "noise_archive": str(path)})
            assert main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "o.csv")]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}")
        # archives that do not fit the run: another color count or field kind,
        # a grid short of the domain, of the mollifier margin or too coarse
        # for the mollification scale
        for k, (top, oracle, r, grid) in enumerate([
                ({"r": 2}, {}, 1, (0.0, 1.0, 64)), ({"r": 2}, {}, 3, (0.0, 1.0, 64)),
                ({"field": "C"}, {}, 1, (0.0, 1.0, 64)), ({}, {}, 1, (0.0, 0.5, 64)),
                ({"noise": {"eps": [0.1], "zeta": [0.1]}}, {}, 1, (0.0, 1.0, 64)),
                ({"noise": {"eps": [0.1]}}, {}, 1, (-0.2, 1.2, 8))]):
            path = tmp_path / f"misfit{k}.mvsao"
            save_noise(path, [sample_noise("R", r, 0.5, 0.5, grid, np.random.default_rng(k))
                              for _ in range(2)])
            cfg = dict(dict(BASE_CONFIG, noise="white"), **top,
                       oracle=dict(oracle, grid=50, noise_archive=str(path)))
            assert main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "o.csv")]) == 2, (top, oracle, r, grid)
            assert capsys.readouterr().err.startswith(f"error: {path}: noise field 0")
        cfg = dict(BASE_CONFIG, noise="white", oracle={"grid": 50, "noise_archive": str(good)})
        assert main(["oracle", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "o.csv")]) == 0

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        """An output path in a missing directory, or naming a directory, fails
        with exit 2 before the run; so does a write that fails."""
        cfgp = str(write_config(tmp_path, BASE_CONFIG))
        with mock.patch("mvsao.cli.run", side_effect=AssertionError("ran")):
            for out in (tmp_path / "missing" / "x.csv", tmp_path):
                assert main(["trace", "--config", cfgp, "--out", str(out)]) == 2
                assert capsys.readouterr().err.startswith(f"error: --out '{out}'")
        with mock.patch("mvsao.cli.write_results", side_effect=PermissionError("denied")):
            assert main(["trace", "--config", cfgp, "--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err == "error: denied\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_estimate_exit_code(self, tmp_path, capsys):
        # sigma2 = 1e5 overflows the weights' exponential: a computed result,
        # not a config fault.  With r = 2 the jump samples overflow too, on
        # the white and on the smooth route.
        base = dict(BASE_CONFIG, sigma2=1e5, noise="white", paths=64, n_quad=2)
        jumps = dict(base, r=2, upsilon2=0.5)
        for cfg in (base, jumps, dict(jumps, noise={"eps": [0.1], "zeta": [0.1]})):
            assert main(["trace", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: estimate value must be finite")
            assert "Traceback" not in err

    def test_selftest_subcommand_is_gone(self, capsys):
        """Its checks are unit tests; argparse rejects the name."""
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_oracle_run_leaves_scipy_sparse_unloaded(tmp_path):
    """An oracle run in a fresh interpreter imports no scipy.sparse, which
    costs about 33 ms of start-up on its own."""
    cfg = write_config(tmp_path, dict(BASE_CONFIG, experiment="oracle", r=2, field="H",
                                      noise="white", sigma2=0.5, upsilon2=0.5,
                                      oracle={"draws": 2, "grid": 64}))
    src = str(Path(mvsao.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from mvsao.cli import main; "
            f"code = main(['oracle', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out.csv')!r}]); "
            "print(code, 'scipy.sparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["0", "False"]


def test_write_results_rejects_bad_format(tmp_path):
    with pytest.raises(ConfigError):
        write_results([], tmp_path / "x.bin", "parquet")


# every numeric input of a full config, as a path of keys and list indices
_FULL_CONFIG = dict(BASE_CONFIG, r=2, alpha=[0.5, "dirichlet"], beta=[-1.0, 0.0],
                    t=[0.5, 0.25], noise={"eps": [0.1, 0.1], "zeta": [0.1, 0.1]},
                    potential={"kind": "tabulated", "kappa": 1.0, "nu": 0.0,
                               "table_x": [0.0, 1.0], "table_v": [[0.0, 1.0], [1.0, 0.0]]},
                    covariance={"t1": 0.5, "t2": 0.25}, oracle={"grid": 64})
_NUMERIC_INPUTS = [("theta",), ("sigma2",), ("upsilon2",), ("t", 0), ("t", 1), ("alpha", 0),
                   ("beta", 0), ("beta", 1), ("potential", "kappa"), ("potential", "nu"),
                   ("potential", "table_x", 1), ("potential", "table_v", 1, 0),
                   ("noise", "eps", 0), ("noise", "zeta", 1), ("covariance", "t1"),
                   ("covariance", "t2")]


def _reject_non_finite(experiment, where, value):
    cfg = json.loads(json.dumps(dict(_FULL_CONFIG, experiment=experiment)))
    if experiment == "covariance":
        cfg["noise"] = "white"
    parse_config(cfg)
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(ConfigError, match="finite"):
        parse_config(cfg)


@pytest.mark.parametrize("where", _NUMERIC_INPUTS, ids=lambda w: "/".join(map(str, w)))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(where, value):
    _reject_non_finite("covariance" if where[0] == "covariance" else "moment", where, value)


@pytest.mark.parametrize("where", [("noise", "eps", 0), ("noise", "zeta", 0)],
                         ids=lambda w: "/".join(map(str, w)))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_oracle_scales_rejected(where, value):
    # the oracle's mollification scales are the noise section's
    _reject_non_finite("oracle", where, value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=6)
    | st.sampled_from(["white", "dirichlet", "R", "H", "sao", "zero", "tabulated"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.dictionaries(st.sampled_from(sorted(_TOP_KEYS)), _JSON))
def test_parse_config_raises_only_config_error(from_base, entries):
    cfg = dict(BASE_CONFIG, **entries) if from_base else entries
    try:
        parsed = parse_config(cfg)
    except ConfigError:
        return
    # what parses is finite; "dirichlet" is the only infinite wall weight
    spec = parsed.get("spec")
    if spec is not None:
        numbers = dict(spec.canonical_dict(), **{k: v for k, v in parsed.items()
                                                 if k in ("covariance", "oracle")})
        for key, value in numbers.items():
            for x in _numbers_in(value):
                assert math.isfinite(x) or (key in ("alphas", "betas") and x == DIRICHLET), key


def _numbers_in(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers_in(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers_in(v)]
    return [value] if isinstance(value, (int, float)) else []
