"""Tests for the serving model registry."""

import pickle

import numpy as np
import pytest

from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.flow import CampaignJob, CampaignRunner
from repro.serve import (
    MODEL_KINDS,
    ModelRegistry,
    model_key,
    stream_fingerprint,
)
from repro.timing import OperatingCondition
from repro.workloads import random_stream

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


@pytest.fixture(scope="module")
def trained():
    fu = build_functional_unit("int_add", width=8)
    stream = random_stream(60, operand_width=8, seed=0)
    stream.name = "reg_train"
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, CONDS)])[0]
    model = TEVoT(operand_width=8)
    X, y = build_training_set(stream, CONDS, trace.delays, spec=model.spec)
    model.fit(X, y)
    return fu, stream, model


class TestPublishResolve:
    def test_roundtrip_preserves_predictions(self, tmp_path, trained):
        fu, stream, model = trained
        registry = ModelRegistry(tmp_path)
        record = registry.publish(model, fu=fu, conditions=CONDS,
                                  train_stream=stream)
        assert record.model_id == "int_add/tevot/v1"
        loaded, found = registry.resolve("int_add")
        assert found.model_id == record.model_id
        ref = model.predict_stream_delays(stream, CONDS[0])
        np.testing.assert_array_equal(
            loaded.predict_stream_delays(stream, CONDS[0]), ref)

    def test_versions_increment_and_resolve_newest(self, tmp_path, trained):
        fu, stream, model = trained
        registry = ModelRegistry(tmp_path)
        r1 = registry.publish(model, fu=fu)
        r2 = registry.publish(model, fu=fu)
        assert (r1.version, r2.version) == (1, 2)
        _, found = registry.resolve("int_add")
        assert found.version == 2
        _, pinned = registry.resolve("int_add", version=1)
        assert pinned.version == 1

    def test_missing_model_raises_lookup_error(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(LookupError):
            registry.resolve("int_mul")

    def test_unknown_kind_rejected(self, tmp_path, trained):
        _, _, model = trained
        with pytest.raises(ValueError, match="kind"):
            ModelRegistry(tmp_path).publish(model, fu="int_add",
                                            kind="nonsense")

    def test_record_carries_fingerprints(self, tmp_path, trained):
        fu, stream, model = trained
        registry = ModelRegistry(tmp_path)
        record = registry.publish(model, fu=fu, conditions=CONDS,
                                  train_stream=stream)
        assert record.train_stream == stream_fingerprint(stream)
        assert record.feature_spec["operand_width"] == 8
        assert record.feature_spec["include_history"] is True
        assert record.key == model_key(fu, "tevot", CONDS, stream,
                                       model.spec.version_tag())

    def test_key_sensitive_to_stream_and_corners(self, trained):
        fu, stream, model = trained
        tag = model.spec.version_tag()
        base = model_key(fu, "tevot", CONDS, stream, tag)
        other_stream = random_stream(60, operand_width=8, seed=9)
        assert base != model_key(fu, "tevot", CONDS, other_stream, tag)
        assert base != model_key(fu, "tevot", CONDS[:1], stream, tag)
        assert base != model_key(fu, "tevot", CONDS, stream, "fs2:w8:h1")

    def test_list_models_filters(self, tmp_path, trained):
        fu, _, model = trained
        registry = ModelRegistry(tmp_path)
        registry.publish(model, fu=fu, kind="tevot")
        registry.publish(model, fu=fu, kind="tevot_nh")
        assert len(registry.list_models()) == 2
        assert len(registry.list_models(kind="tevot")) == 1
        assert len(registry.list_models(fu="fp_add")) == 0
        assert len(registry) == 2



class TestLocalRoot:
    """What every caller of a registry directory relies on: stable
    identities, durable records and per-(FU, kind) versioning."""

    def test_same_model_gets_the_same_key_on_two_roots(self, tmp_path):
        model = {"weights": [1, 2, 3]}
        a = ModelRegistry(tmp_path / "a").publish(model, fu="int_add")
        b = ModelRegistry(tmp_path / "b").publish(model, fu="int_add")
        assert a.key == b.key
        assert a.model_id == b.model_id == "int_add/tevot/v1"

    def test_reopened_registry_resolves_every_model(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"w": 42}, fu="int_add")
        registry.publish({"w": 7}, fu="fp_mul")
        again = ModelRegistry(tmp_path)
        assert len(again) == 2
        model, found = again.resolve("int_add")
        assert model == {"w": 42}
        assert found.key == record.key

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_kind_publishes_and_resolves(self, tmp_path, kind):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"kind": kind}, fu="int_add", kind=kind)
        assert record.model_id == f"int_add/{kind}/v1"
        model, found = registry.resolve("int_add", kind=kind)
        assert model == {"kind": kind}
        assert found.model_id == record.model_id

    def test_kinds_and_fus_version_independently(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"w": 1}, fu="int_add")
        registry.publish({"w": 2}, fu="int_add")
        assert registry.publish({"w": 3}, fu="int_add",
                                kind="tevot_nh").version == 1
        assert registry.publish({"w": 4}, fu="fp_mul").version == 1

    def test_resolve_pinned_by_key(self, tmp_path, trained):
        fu, stream, model = trained
        registry = ModelRegistry(tmp_path)
        first = registry.publish(model, fu=fu, conditions=CONDS,
                                 train_stream=stream)
        registry.publish(model, fu=fu, conditions=CONDS[:1],
                         train_stream=stream)
        _, found = registry.resolve("int_add", key=first.key)
        assert found.version == 1
        with pytest.raises(LookupError, match="key="):
            registry.resolve("int_add", key="0" * 16)

    def test_missing_model_error_names_fu_and_kind(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish({"w": 1}, fu="int_add")
        with pytest.raises(LookupError, match="fu='fp_div' kind='tevot'"):
            registry.resolve("fp_div")
        with pytest.raises(LookupError, match="kind='ter_based'"):
            registry.resolve("int_add", kind="ter_based")

class TestGC:
    def test_gc_keeps_latest_versions(self, tmp_path, trained):
        fu, _, model = trained
        registry = ModelRegistry(tmp_path)
        for _ in range(3):
            registry.publish(model, fu=fu)
        report = registry.gc(keep=1)
        assert len(report.dropped_entries) == 2
        (record,) = registry.list_models()
        assert record.version == 3
        # artifact files for old versions are gone
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_gc_removes_orphan_artifacts(self, tmp_path, trained):
        fu, _, model = trained
        registry = ModelRegistry(tmp_path)
        registry.publish(model, fu=fu)
        orphan = tmp_path / "stray_artifact.pkl"
        with orphan.open("wb") as fh:
            pickle.dump({"junk": 1}, fh)
        report = registry.gc()
        assert "stray_artifact.pkl" in report.removed_files
        assert not orphan.exists()

    def test_gc_drops_entries_with_missing_files(self, tmp_path, trained):
        fu, _, model = trained
        registry = ModelRegistry(tmp_path)
        record = registry.publish(model, fu=fu)
        (tmp_path / record.file).unlink()
        report = registry.gc()
        assert record.model_id in report.dropped_entries
        assert registry.list_models() == []

    def test_gc_dry_run_touches_nothing(self, tmp_path, trained):
        fu, _, model = trained
        registry = ModelRegistry(tmp_path)
        for _ in range(2):
            registry.publish(model, fu=fu)
        report = registry.gc(keep=1, dry_run=True)
        assert report.dropped_entries
        assert len(registry.list_models()) == 2
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_gc_keep_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ModelRegistry(tmp_path).gc(keep=0)


class TestPipelinePublish:
    def test_run_experiment_publishes_all_kinds(self, tmp_path):
        from repro.core import experiment_impl
        from repro.workloads import stream_for_unit

        registry = ModelRegistry(tmp_path / "registry")
        result = experiment_impl(
            build_functional_unit("int_add", width=8),
            stream_for_unit("int_add", 100, seed=0),
            stream_for_unit("int_add", 60, seed=1), CONDS,
            runner=CampaignRunner(store=tmp_path / "cache"),
            registry=registry)
        records = registry.list_models(fu="int_add")
        assert {r.kind for r in records} == {"tevot", "tevot_nh",
                                             "delay_based", "ter_based"}
        # the registry's resolved TEVoT predicts exactly like the
        # in-memory result of the experiment
        loaded, _ = registry.resolve("int_add")
        probe = random_stream(20, operand_width=8, seed=2)
        np.testing.assert_array_equal(
            loaded.predict_stream_delays(probe, CONDS[0]),
            result.tevot.predict_stream_delays(probe, CONDS[0]))
        # train-stream fingerprint recorded from the train trace inputs
        (tevot_rec,) = [r for r in records if r.kind == "tevot"]
        assert tevot_rec.train_stream != "-"
        assert tevot_rec.corners != "-"
