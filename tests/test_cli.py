import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mvsao.noise_model import sample_noise, save_noise
from mvsao.records import ArchiveError, read_records

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
                   covariance={"t1": 0.5, "t2": 0.25}, paths=800)
        records = run(parse_config(cfg))
        assert records[0]["kind"] == "covariance"
        assert abs(records[0]["estimate"]) < 0.2

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
               ("oracle", dict(BASE_CONFIG, noise="white", oracle={"eps": 0.01, "grid": 64})),
               # counts and covariance times out of range
               ("trace", dict(BASE_CONFIG, n_quad=0)), ("trace", dict(BASE_CONFIG, n_quad=-3)),
               ("trace", dict(BASE_CONFIG, paths=0)), ("trace", dict(BASE_CONFIG, paths=-5)),
               ("trace", dict(BASE_CONFIG, n_max=-1)),
               ("covariance", dict(BASE_CONFIG, experiment="covariance", noise="white",
                                   covariance={"t1": 2.0, "t2": 0.5}))]
        for k, (experiment, cfg) in enumerate(bad):
            cfgp = write_config(tmp_path, cfg, f"bad{k}.json")
            assert main([experiment, "--config", str(cfgp), "--out",
                         str(tmp_path / "x.csv")]) == 2, cfg
            assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(ConfigError, match="factor time 0.12345"):
            parse_config(uneven_cov)
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

    def test_selftest_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        assert "PASS" in capsys.readouterr().out


def test_write_results_rejects_bad_format(tmp_path):
    with pytest.raises(ConfigError):
        write_results([], tmp_path / "x.bin", "parquet")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["white", "dirichlet", "R", "H", "sao", "zero", "tabulated"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.dictionaries(st.sampled_from(sorted(_TOP_KEYS)), _JSON))
def test_parse_config_raises_only_config_error(from_base, entries):
    cfg = dict(BASE_CONFIG, **entries) if from_base else entries
    try:
        parse_config(cfg)
    except ConfigError:
        pass
