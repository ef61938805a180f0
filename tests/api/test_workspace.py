"""Tests for the Workspace facade."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import (
    CampaignSpec,
    CornerSpec,
    ExperimentSpec,
    PredictSpec,
    ServeSpec,
    SimSpec,
    SpecError,
    StreamSpec,
    TrainSpec,
    Workspace,
)
from repro.circuits import build_functional_unit
from repro.flow import CampaignJob, CampaignRunner, TraceStore
from repro.flow.durable import StoreLockTimeout
from repro.serve.registry import model_key
from repro.timing import OperatingCondition
from repro.workloads import stream_for_unit

CORNERS = CornerSpec(voltages=(0.9,), temperatures=(25.0,))
CONDS = CORNERS.conditions()
SRC = str(Path(next(iter(repro.__path__))).resolve().parent)

# holds a store lock in another process until killed
HOLDER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.flow.durable import StoreLock
lock_path, ready = sys.argv[1], sys.argv[2]
with StoreLock(lock_path, timeout=10.0):
    Path(ready).write_text("ok")
    time.sleep(30)
"""


def small_campaign(**kw):
    base = dict(fus=("int_add",), stream=StreamSpec(cycles=40, seed=0),
                corners=CORNERS)
    base.update(kw)
    return CampaignSpec(**base)


class TestWorkspaceLayout:
    def test_root_owns_store_and_registry(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        assert ws.store.root == tmp_path / "ws" / "traces"
        assert ws.registry.root == tmp_path / "ws" / "registry"

    def test_rootless_workspace_has_no_registry(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ws = Workspace()
        assert ws.registry is None
        assert ws.store.root == tmp_path

    def test_explicit_overrides_beat_root(self, tmp_path):
        ws = Workspace(tmp_path / "ws", store=tmp_path / "elsewhere")
        assert ws.store.root == tmp_path / "elsewhere"
        assert ws.registry.root == tmp_path / "ws" / "registry"

    def test_runner_stores_honor_lock_timeout(self, tmp_path):
        # the runner is the first thing to touch the store here, so the
        # timeout must not depend on ``ws.store`` having been built
        ws = Workspace(tmp_path / "ws", lock_timeout=0.5)
        runner = ws.runner()
        assert runner.store.lock_timeout == 0.5
        assert runner.store is ws.store
        other = ws.runner(store=str(tmp_path / "other")).store
        assert other.root == tmp_path / "other"
        assert other.lock_timeout == 0.5
        assert ws.runner(cache=False).store is None

    @pytest.mark.parametrize("where", ["root", "spec_store"])
    def test_characterize_gives_up_at_workspace_lock_timeout(
            self, tmp_path, where):
        pytest.importorskip("fcntl")
        ws = Workspace(tmp_path / "ws", lock_timeout=0.3)
        if where == "root":
            spec, root = small_campaign(), ws.store.root
        else:
            spec = small_campaign(store=str(tmp_path / "other"))
            root = tmp_path / "other"
        ready = tmp_path / "ready"
        env = dict(os.environ, PYTHONPATH=SRC)
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLDER_SCRIPT,
             str(root / ".store.lock"), str(ready)], env=env)
        try:
            deadline = time.monotonic() + 10.0
            while not ready.exists():
                assert time.monotonic() < deadline, "holder never started"
                assert holder.poll() is None, "holder died early"
                time.sleep(0.01)
            start = time.monotonic()
            with pytest.raises(StoreLockTimeout,
                               match=r"timed out after 0\.3s"):
                ws.characterize(spec)
            assert time.monotonic() - start < 5.0
        finally:
            holder.kill()
            holder.wait()


class TestCharacterize:
    def test_spec_run_matches_handbuilt_runner(self, tmp_path):
        spec = small_campaign(store=str(tmp_path / "a"))
        result = Workspace().characterize(spec)
        # the exact legacy construction, by hand
        fu = build_functional_unit("int_add")
        stream = stream_for_unit("int_add", 40, seed=0)
        ref = CampaignRunner(store=tmp_path / "b").run(
            [CampaignJob(fu, stream, CONDS)])[0]
        assert result.traces[0].delays.tobytes() == ref.delays.tobytes()

    def test_cache_key_byte_identical_to_legacy_path(self, tmp_path):
        """The acceptance criterion: spec-driven runs key the store
        exactly like the flag/kwarg paths they replace."""
        spec = small_campaign()
        ws_jobs = Workspace(tmp_path).jobs(spec)
        fu = build_functional_unit("int_add")
        stream = stream_for_unit("int_add", 40, seed=0)
        legacy_key = CampaignJob(fu, stream, CONDS).key()
        assert ws_jobs[0].key() == legacy_key

    def test_characterize_populates_and_hits_store(self, tmp_path):
        ws = Workspace(tmp_path)
        spec = small_campaign()
        first = ws.characterize(spec)
        assert (first.stats.hits, first.stats.misses) == (0, 1)
        second = ws.characterize(spec)
        assert (second.stats.hits, second.stats.misses) == (1, 0)
        assert second.traces[0].delays.tobytes() == \
            first.traces[0].delays.tobytes()

    def test_simulate_never_touches_store(self, tmp_path):
        ws = Workspace(tmp_path)
        sim = ws.characterize(small_campaign().replace(cache=False))
        assert sim.stats.misses == 1
        assert TraceStore(tmp_path / "traces").entries() == {}

    def test_compiled_false_is_bit_identical(self, tmp_path):
        ws = Workspace(tmp_path)
        fast = ws.characterize(small_campaign(
            stream=StreamSpec(cycles=20, seed=2)).replace(cache=False))
        ref = ws.characterize(small_campaign(
            stream=StreamSpec(cycles=20, seed=2),
            sim=SimSpec(backend="levelized_ref")).replace(cache=False))
        assert fast.traces[0].delays.tobytes() == \
            ref.traces[0].delays.tobytes()

    def test_compiled_false_audit_never_reads_the_cache(self, tmp_path):
        """A levelized_ref run satisfied from a compiled-produced cache
        entry would 'audit' nothing — it must simulate fresh."""
        ws = Workspace(tmp_path)
        spec = small_campaign(stream=StreamSpec(cycles=20, seed=3))
        ws.characterize(spec)  # populate the cache (compiled)
        audit = ws.characterize(spec.replace(
            sim=SimSpec(backend="levelized_ref")))
        assert (audit.stats.hits, audit.stats.misses) == (0, 1)


class TestTrainPredict:
    def test_train_saves_and_publishes(self, tmp_path):
        ws = Workspace(tmp_path)
        out = tmp_path / "m.pkl"
        spec = TrainSpec(fu="int_add", corners=CORNERS,
                         stream=StreamSpec(cycles=50, seed=0),
                         output=str(out), publish=True)
        result = ws.train(spec)
        assert out.exists()
        assert result.record.model_id == "int_add/tevot/v1"
        assert len(ws.registry) == 1

    def test_publish_without_registry_is_loud(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = TrainSpec(fu="int_add", corners=CORNERS,
                         stream=StreamSpec(cycles=30), publish=True)
        with pytest.raises(SpecError, match="registry"):
            Workspace().train(spec)

    def test_spec_registry_overrides_workspace(self, tmp_path):
        spec = TrainSpec(fu="int_add", corners=CORNERS,
                         stream=StreamSpec(cycles=30), publish=True,
                         registry=str(tmp_path / "elsewhere"))
        record = Workspace(tmp_path / "ws").train(spec).record
        assert record is not None
        assert (tmp_path / "elsewhere" / record.file).exists()
        assert len(Workspace(tmp_path / "ws").registry) == 0

    def test_unset_fu_is_rejected_at_execution(self, tmp_path):
        with pytest.raises(SpecError, match="fu"):
            Workspace(tmp_path).train(TrainSpec(corners=CORNERS))
        with pytest.raises(SpecError, match="fu"):
            Workspace(tmp_path).predict(PredictSpec(model="m.pkl",
                                                    corners=CORNERS))

    def test_model_key_byte_identical_to_legacy_publish(self, tmp_path):
        """Registry keys must not depend on which front door was used."""
        ws = Workspace(tmp_path)
        spec = TrainSpec(fu="int_add", corners=CORNERS,
                         stream=StreamSpec(cycles=50, seed=0),
                         publish=True)
        record = ws.train(spec).record
        # what the legacy flag path (cmd_train) would have computed
        fu = build_functional_unit("int_add")
        stream = stream_for_unit("int_add", 50, seed=0)
        spec_tag = ws.train(spec).model.spec.version_tag()
        legacy = model_key(fu, "tevot", CONDS, stream, spec_tag)
        assert record.key == legacy

    def test_predict_roundtrip(self, tmp_path):
        ws = Workspace(tmp_path)
        out = tmp_path / "m.pkl"
        ws.train(TrainSpec(fu="int_add", corners=CORNERS,
                           stream=StreamSpec(cycles=50, seed=0),
                           output=str(out)))
        result = ws.predict(PredictSpec(
            fu="int_add", model=str(out), speedup=0.15, corners=CORNERS,
            stream=StreamSpec(cycles=30, seed=1)))
        assert set(result.ters) == set(CONDS)
        for ter in result.ters.values():
            assert 0.0 <= ter <= 1.0
        for clock in result.clocks.values():
            assert clock > 0

    def test_predict_requires_model(self, tmp_path):
        with pytest.raises(SpecError, match="model"):
            Workspace(tmp_path).predict(PredictSpec(fu="int_add",
                                                    corners=CORNERS))


class TestExperiment:
    def test_experiment_publishes_when_asked(self, tmp_path):
        ws = Workspace(tmp_path)
        spec = ExperimentSpec(
            fu="int_add",
            train_stream=StreamSpec(cycles=100, seed=0,
                                    name="random_train"),
            test_stream=StreamSpec(cycles=60, seed=1, name="random_test"),
            corners=CornerSpec.from_conditions(
                [OperatingCondition(0.81, 0.0),
                 OperatingCondition(1.00, 100.0)]),
            publish=True)
        result = ws.experiment(spec)
        assert set(result.summary()) == {"TEVoT", "TEVoT-NH",
                                         "Delay-based", "TER-based"}
        kinds = {r.kind for r in ws.registry.list_models(fu="int_add")}
        assert kinds == {"tevot", "tevot_nh", "delay_based", "ter_based"}


class TestServe:
    def test_serve_spec_builds_live_server(self, tmp_path):
        from repro.serve import ServeClient

        ws = Workspace(tmp_path)
        ws.train(TrainSpec(fu="int_add", corners=CORNERS,
                           stream=StreamSpec(cycles=50, seed=0),
                           publish=True))
        server = ws.serve(ServeSpec(port=0))  # workspace registry
        try:
            server.start_background()
            host, port = server.address
            client = ServeClient(host, port)
            health = client.health()
            assert health["status"] == "healthy"
            assert health["models_published"] == 1
            pred = client.predict(fu="int_add", a=3, b=5,
                                  voltage=0.9, temperature=25.0)
            assert pred["ok"] and pred["source"] == "model"
        finally:
            server.shutdown()
            server.server_close()
