"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    build_parser,
    campaign_spec,
    main,
    predict_spec,
    serve_spec,
    train_spec,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_fu_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sta", "--fu", "div"])


class TestCommands:
    def test_stats_all_units(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for name in ("int_add", "int_mul", "fp_add", "fp_mul"):
            assert name in out

    def test_sta_single_corner(self, capsys):
        rc = main(["sta", "--fu", "int_add",
                   "--voltages", "1.0", "--temperatures", "25"])
        assert rc == 0
        assert "(1.00,25)" in capsys.readouterr().out

    def test_sta_output_is_pinned(self, capsys):
        rc = main(["sta", "--fu", "int_add", "--voltages", "0.81", "1.0",
                   "--temperatures", "0", "100"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "static critical-path delay of int_add (ps):",
            "  (0.81,0): 2291.2",
            "  (0.81,100): 2153.3",
            "  (1.00,0): 1528.9",
            "  (1.00,100): 1658.1",
        ]

    @pytest.mark.parametrize("fu,lines", [
        ("fp_add", ["  (0.81,0): 7989.4", "  (0.81,100): 7507.3",
                    "  (1.00,0): 5330.2", "  (1.00,100): 5780.2"]),
        ("int_mul", ["  (0.81,0): 2459.8", "  (0.81,100): 2304.4",
                     "  (1.00,0): 1634.4", "  (1.00,100): 1770.1"]),
        ("fp_mul", ["  (0.81,0): 6336.0", "  (0.81,100): 5949.1",
                    "  (1.00,0): 4222.7", "  (1.00,100): 4577.8"]),
    ])
    def test_sta_output_is_pinned_per_unit(self, capsys, fu, lines):
        rc = main(["sta", "--fu", fu, "--voltages", "0.81", "1.0",
                   "--temperatures", "0", "100"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            f"static critical-path delay of {fu} (ps):", *lines]

    def test_sta_lists_every_corner_voltage_major(self, capsys):
        rc = main(["sta", "--fu", "int_add", "--voltages", "0.81", "0.9",
                   "1.0", "--temperatures", "25", "75"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  (0.81,25): 2250.4",
            "  (0.81,75): 2182.3",
            "  (0.90,25): 1848.4",
            "  (0.90,75): 1866.9",
            "  (1.00,25): 1568.5",
            "  (1.00,75): 1632.3",
        ]

    def test_characterize(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(["characterize", "--fu", "int_add", "--cycles", "50",
                   "--voltages", "0.9", "--temperatures", "25"])
        assert rc == 0
        assert "mean" in capsys.readouterr().out

    def test_campaign_reports_shards_and_sim_time(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(["campaign", "--fu", "int_add", "--cycles", "90",
                   "--shard-cycles", "30", "--voltages", "0.9",
                   "--temperatures", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out
        assert "across 3 shard(s)" in out
        assert "[3 shard(s)," in out
        assert "cyc/s" in out  # effective per-job throughput
        # rerun is fully cached: no shard/timing detail
        rc = main(["campaign", "--fu", "int_add", "--cycles", "90",
                   "--shard-cycles", "30", "--voltages", "0.9",
                   "--temperatures", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 simulated]" in out
        assert "[cached]" in out

    def test_train_and_predict_roundtrip(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        model_path = tmp_path / "m.pkl"
        rc = main(["train", "--fu", "int_add", "--cycles", "80",
                   "--voltages", "0.85", "--temperatures", "25",
                   "-o", str(model_path)])
        assert rc == 0
        assert model_path.exists()
        rc = main(["predict", "-m", str(model_path), "--fu", "int_add",
                   "--cycles", "40", "--speedup", "0.15",
                   "--voltages", "0.85", "--temperatures", "25"])
        assert rc == 0
        assert "TER" in capsys.readouterr().out


class TestValidation:
    @pytest.mark.parametrize("argv", [
        ["characterize", "--fu", "int_add", "--cycles", "0"],
        ["campaign", "--fu", "int_add", "--cycles", "-5"],
        ["train", "--fu", "int_add", "--cycles", "0", "-o", "m.pkl"],
        ["train", "--fu", "int_add", "--max-rows", "0", "-o", "m.pkl"],
        ["predict", "-m", "m.pkl", "--fu", "int_add", "--cycles", "-1"],
        ["predict", "-m", "m.pkl", "--fu", "int_add", "--speedup", "-0.1"],
        ["campaign", "--workers", "0"],
        ["campaign", "--shard-cycles", "0"],
        ["campaign", "--shard-corners", "0"],
        ["serve", "--max-batch", "0"],
        ["serve", "--batch-window-ms", "-1"],
        ["serve", "--batch-window-ms", "nan"],
        ["serve", "--default-deadline-ms", "inf"],
        ["predict", "-m", "m.pkl", "--fu", "int_add", "--speedup", "nan"],
    ])
    def test_nonpositive_values_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestStoreCommands:
    def test_store_gc_and_list(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["characterize", "--fu", "int_add", "--cycles", "30",
                     "--voltages", "0.9", "--temperatures", "25"]) == 0
        assert main(["store", "list"]) == 0
        assert "1 entr" in capsys.readouterr().out
        # zero budget evicts everything
        assert main(["store", "gc", "--max-mb", "0"]) == 0
        assert "removed 1 blob" in capsys.readouterr().out
        assert list(tmp_path.glob("dta_*.npz")) == []

    def test_store_gc_dry_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        main(["characterize", "--fu", "int_add", "--cycles", "30",
              "--voltages", "0.9", "--temperatures", "25"])
        capsys.readouterr()
        assert main(["store", "gc", "--max-mb", "0", "--dry-run"]) == 0
        assert "would have" in capsys.readouterr().out
        assert len(list(tmp_path.glob("dta_*.npz"))) == 1


CONFIG_TOML = """
[corners]
voltages = [0.9]
temperatures = [25.0]

[campaign]
fus = ["int_add"]

[campaign.stream]
cycles = 90
seed = 0

[campaign.shards]
shard_cycles = 30

[train]
fu = "int_add"
max_rows = 500

[train.stream]
cycles = 60
seed = 0

[predict]
fu = "int_add"
speedup = 0.15

[predict.stream]
cycles = 40
seed = 1

[serve]
port = 0
max_batch = 16
"""


class TestConfigParity:
    """--config and the equivalent flags must resolve identically."""

    @pytest.fixture()
    def config(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(CONFIG_TOML)
        return str(path)

    def _spec(self, resolver, argv):
        return resolver(build_parser().parse_args(argv))

    def test_campaign_spec_and_cache_key_parity(self, config):
        from repro.api import Workspace

        from_config = self._spec(campaign_spec,
                                 ["campaign", "--config", config])
        from_flags = self._spec(campaign_spec, [
            "campaign", "--fu", "int_add", "--cycles", "90", "--seed", "0",
            "--shard-cycles", "30", "--voltages", "0.9",
            "--temperatures", "25"])
        assert from_config == from_flags
        assert from_config.fingerprint() == from_flags.fingerprint()
        # and the TraceStore key — the acceptance criterion — matches
        ws = Workspace()
        (job_a,) = ws.jobs(from_config)
        (job_b,) = ws.jobs(from_flags)
        assert job_a.key() == job_b.key()

    def test_train_and_predict_spec_parity(self, config):
        t_config = self._spec(train_spec, ["train", "--config", config])
        t_flags = self._spec(train_spec, [
            "train", "--fu", "int_add", "--cycles", "60", "--seed", "0",
            "--max-rows", "500", "--voltages", "0.9",
            "--temperatures", "25"])
        assert t_config == t_flags
        p_config = self._spec(predict_spec,
                              ["predict", "--config", config])
        p_flags = self._spec(predict_spec, [
            "predict", "--fu", "int_add", "--speedup", "0.15",
            "--cycles", "40", "--seed", "1", "--voltages", "0.9",
            "--temperatures", "25"])
        assert p_config == p_flags

    def test_serve_spec_parity(self, config):
        s_config = self._spec(serve_spec, ["serve", "--config", config])
        s_flags = self._spec(serve_spec, ["serve", "--port", "0",
                                          "--max-batch", "16"])
        assert s_config == s_flags

    def test_flags_override_config_fields(self, config):
        spec = self._spec(campaign_spec, [
            "campaign", "--config", config, "--cycles", "123"])
        assert spec.stream.cycles == 123
        assert spec.stream.seed == 0          # untouched config value
        assert spec.shards.shard_cycles == 30  # untouched config value

    def test_campaign_runs_from_config(self, config, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["campaign", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "spec[campaign]" in out      # effective spec echoed
        assert "across 3 shard(s)" in out   # config shard pitch honored
        # flag-equivalent rerun is a cache hit: byte-identical store key
        assert main(["campaign", "--fu", "int_add", "--cycles", "90",
                     "--shard-cycles", "30", "--voltages", "0.9",
                     "--temperatures", "25"]) == 0
        assert "1 cached, 0 simulated]" in capsys.readouterr().out

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "run.toml"
        path.write_text("[compaign]\nfus = ['int_add']\n")
        assert main(["campaign", "--config", str(path)]) == 2
        assert "unknown config section" in capsys.readouterr().err

    def test_bad_serve_setting_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "run.toml"
        path.write_text('[serve]\nport = 0\nbatch_window_ms = "fast"\n')
        assert main(["serve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "batch_window_ms" in err

    def test_train_and_predict_require_explicit_fu(self, tmp_path, capsys):
        # a forgotten --fu must never silently fall back to a default FU
        assert main(["train", "-o", str(tmp_path / "m.pkl")]) == 2
        assert "--fu" in capsys.readouterr().err
        assert main(["predict", "-m", str(tmp_path / "m.pkl")]) == 2
        assert "--fu" in capsys.readouterr().err

    def test_config_driven_publish(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        registry = tmp_path / "registry"
        path = tmp_path / "run.toml"
        path.write_text(f"""
[corners]
voltages = [0.9]
temperatures = [25.0]

[train]
fu = "int_add"
publish = true
registry = "{registry}"

[train.stream]
cycles = 40
seed = 0
""")
        assert main(["train", "--config", str(path),
                     "-o", str(tmp_path / "m.pkl")]) == 0
        assert "published int_add/tevot/v1" in capsys.readouterr().out
        assert main(["models", "list", "--registry", str(registry)]) == 0
        assert "int_add/tevot/v1" in capsys.readouterr().out

    def test_pairs_config_rejects_single_axis_override(self, tmp_path,
                                                       capsys):
        path = tmp_path / "run.toml"
        path.write_text("""
[corners]
voltages = []
temperatures = []
pairs = [[0.81, 0.0], [1.0, 100.0]]

[campaign]
fus = ["int_add"]
""")
        assert main(["campaign", "--config", str(path),
                     "--temperatures", "25"]) == 2
        err = capsys.readouterr().err
        assert "both --voltages and --temperatures" in err


class TestModelRegistryCommands:
    def test_train_publish_list_gc(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        model_path = tmp_path / "m.pkl"
        registry = tmp_path / "registry"
        rc = main(["train", "--fu", "int_add", "--cycles", "60",
                   "--voltages", "0.9", "--temperatures", "25",
                   "-o", str(model_path), "--publish", str(registry)])
        assert rc == 0
        assert "published int_add/tevot/v1" in capsys.readouterr().out

        # publish the saved artifact again -> v2
        rc = main(["models", "publish", "--registry", str(registry),
                   "-m", str(model_path), "--fu", "int_add"])
        assert rc == 0
        assert "int_add/tevot/v2" in capsys.readouterr().out

        assert main(["models", "list", "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "int_add/tevot/v1" in out and "int_add/tevot/v2" in out

        assert main(["models", "gc", "--registry", str(registry),
                     "--keep", "1"]) == 0
        capsys.readouterr()
        main(["models", "list", "--registry", str(registry)])
        out = capsys.readouterr().out
        assert "int_add/tevot/v2" in out and "v1" not in out

    def test_models_publish_requires_model_and_fu(self, tmp_path, capsys):
        assert main(["models", "publish", "--registry",
                     str(tmp_path)]) == 2
        assert main(["models", "publish", "--registry", str(tmp_path),
                     "-m", "x.pkl"]) == 2
