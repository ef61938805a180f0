"""Property-style chaos tests for the persistence fault points.

For *every* registered persistence fault point (the harness enumerates
them — a new site without coverage here fails the suite), a child
process is killed mid-operation with the ``exit`` action and, where the
writer can produce one, a ``torn-write`` artifact.  In all cases the
store must reopen without error, lose at most the in-flight record, and
a clean rerun of the same operation must converge to the same bytes.
Campaign checkpoint/resume rides the same journal fault point:
a killed campaign's rerun skips the journaled shards and produces a
bit-identical trace.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro
import repro.flow.tracestore  # noqa: F401 - registers fault sites
import repro.serve.registry  # noqa: F401
import repro.serve.requestlog  # noqa: F401
from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set, save_model
from repro.flow import DEFAULT_BACKEND, CampaignJob, CampaignRunner, \
    TraceStore
from repro.serve import ModelRegistry, read_request_log
from repro.testing import faults
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.workloads import random_stream

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)
CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]

#: Every persistence fault point the production code registers.  The
#: scenario table below must cover exactly this set — adding a new
#: persistence site without chaos coverage fails
#: test_every_persistence_site_is_covered.
EXPECTED_SITES = {
    "campaign.journal.replace",
    "registry.artifact.write",
    "registry.manifest.replace",
    "requestlog.append",
    "tracestore.blob.write",
    "tracestore.manifest.replace",
}


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def model_artifact(tmp_path_factory):
    """A trained TEVoT saved once, for registry chaos children to load."""
    fu = build_functional_unit("int_add", width=8)
    stream = random_stream(60, operand_width=8, seed=0)
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, CONDS)])[0]
    model = TEVoT(operand_width=8)
    X, y = build_training_set(stream, CONDS, trace.delays, spec=model.spec)
    model.fit(X, y)
    path = tmp_path_factory.mktemp("chaos_model") / "model.pkl"
    save_model(model, path)
    return path


def _run_child(code, plan=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(faults.PLAN_ENV, None)
    env.pop(faults.STATE_ENV, None)
    if plan is not None:
        env[faults.PLAN_ENV] = plan
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


# -- per-site operations (run in a child process) -----------------------------

def _store_put_script(root, model):
    return f"""
import numpy as np
from repro.flow import TraceStore
from repro.sim.dta import DelayTrace
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
conds = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]
delays = np.arange(80, dtype=np.float32).reshape(2, 40)
TraceStore({str(root)!r}).put("chaoskey0", DelayTrace(delays, conds),
                              fu_name="int_add", stream_name="chaos",
                              library=DEFAULT_LIBRARY, backend="compiled")
"""


def _journal_script(root, model):
    return f"""
import numpy as np
from repro.flow import TraceStore
store = TraceStore({str(root)!r})
plan = [(0, 2, 0, 20), (0, 2, 20, 40)]
store.record_journal_shard("jkey", plan=plan, shard=(0, 2, 0, 20),
                           delays=np.ones((2, 20), dtype=np.float32),
                           backend="compiled", n_corners=2, n_cycles=40)
"""


def _publish_script(root, model):
    return f"""
from repro.core import load_model
from repro.serve import ModelRegistry
model, _ = load_model({str(model)!r})
ModelRegistry({str(root)!r}).publish(model, fu="int_add")
"""


def _log_script(root, model):
    return f"""
from repro.serve import PredictRequest, RequestLog
from repro.serve.engine import Prediction
reqs = [PredictRequest(fu="int_add", a=i, b=i + 1, voltage=0.9,
                       temperature=25.0) for i in range(4)]
preds = [Prediction(ok=True, delay_ps=100.0 + i, source="model")
         for i in range(4)]
with RequestLog({str(root / 'req.jsonl')!r}, config={{"chaos": 1}}) as log:
    log.append_batch(reqs[:2], preds[:2])
    log.append_batch(reqs[2:], preds[2:])
"""


# -- per-site recovery / convergence checks (run in this process) -------------

def _store_recovered(root):
    store = TraceStore(root)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        store.entries()  # must not raise, whatever landed
        store.get("chaoskey0", CONDS)


def _store_converged(root):
    store = TraceStore(root)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert "chaoskey0" in store.entries()
        trace = store.get("chaoskey0", CONDS)
    np.testing.assert_array_equal(
        trace.delays, np.arange(80, dtype=np.float32).reshape(2, 40))
    store.gc()  # crash artifacts (stray tmp files) are collectable
    assert not list(root.glob(".*.tmp*"))


def _journal_recovered(root):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        TraceStore(root).load_journal("jkey", backend="compiled",
                                      n_corners=2, n_cycles=40)


def _journal_converged(root):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = TraceStore(root).load_journal(
            "jkey", backend="compiled", n_corners=2, n_cycles=40)
    assert state is not None
    plan, done = state
    assert plan == [(0, 2, 0, 20), (0, 2, 20, 40)]
    ((shard, part),) = done
    assert shard == (0, 2, 0, 20)
    np.testing.assert_array_equal(part, np.ones((2, 20), dtype=np.float32))


def _registry_recovered(root):
    registry = ModelRegistry(root)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        registry.list_models()  # must not raise
        try:
            registry.resolve("int_add")
        except LookupError:
            pass  # losing the in-flight publish is acceptable


def _registry_converged(root):
    registry = ModelRegistry(root)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model, record = registry.resolve("int_add")
        records = registry.list_models(fu="int_add")
    # the clean rerun's publish resolved; a torn-manifest recovery may
    # also have salvaged the crashed publish's completed artifact, in
    # which case the rerun lands as a later version — never fewer than
    # one model, never a gap in the version sequence
    assert model is not None
    assert record.version == len(records) >= 1
    assert record.model_id == f"int_add/tevot/v{record.version}"
    assert sorted(r.version for r in records) \
        == list(range(1, len(records) + 1))


def _log_recovered(root):
    path = root / "req.jsonl"
    if not path.exists():
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        records = list(read_request_log(path))
    # at most the in-flight batch is lost; whatever is left is sealed
    assert all(r["kind"] in ("header", "batch") for r in records)


def _log_converged(root):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        records = list(read_request_log(root / "req.jsonl"))
    batches = [r for r in records if r["kind"] == "batch"]
    # the clean rerun appended a full session: its two batches are the
    # file's last records and carry the expected request payloads
    assert [[q["a"] for q in b["requests"]] for b in batches[-2:]] \
        == [[0, 1], [2, 3]]


@dataclass
class Scenario:
    script: Callable
    nth: int  # which hit of the site to kill (1-based)
    recovered: Callable
    converged: Callable
    torn: bool  # writer can produce a torn artifact at the final path


SCENARIOS = {
    "tracestore.blob.write": Scenario(
        _store_put_script, 1, _store_recovered, _store_converged, True),
    "tracestore.manifest.replace": Scenario(
        _store_put_script, 1, _store_recovered, _store_converged, True),
    "campaign.journal.replace": Scenario(
        _journal_script, 1, _journal_recovered, _journal_converged, True),
    "registry.artifact.write": Scenario(
        _publish_script, 1, _registry_recovered, _registry_converged, False),
    "registry.manifest.replace": Scenario(
        _publish_script, 1, _registry_recovered, _registry_converged, True),
    "requestlog.append": Scenario(  # hit 1 is the header; kill batch 1
        _log_script, 2, _log_recovered, _log_converged, True),
}

TORN_SITES = sorted(s for s, scn in SCENARIOS.items() if scn.torn)


def test_every_persistence_site_is_covered():
    """The property the suite enforces: a chaos scenario exists for
    every persistence fault point the production code registers."""
    assert set(faults.persistence_sites()) == EXPECTED_SITES
    assert set(SCENARIOS) == EXPECTED_SITES


@pytest.mark.parametrize("site", sorted(SCENARIOS))
def test_exit_mid_write_is_recoverable(site, tmp_path, model_artifact):
    scenario = SCENARIOS[site]
    root = tmp_path / "store"
    root.mkdir()
    code = scenario.script(root, model_artifact)

    crashed = _run_child(code, plan=f"{site}:exit:{scenario.nth}")
    assert crashed.returncode == faults.EXIT_CODE, crashed.stderr
    scenario.recovered(root)

    rerun = _run_child(code)
    assert rerun.returncode == 0, rerun.stderr
    scenario.converged(root)


@pytest.mark.parametrize("site", TORN_SITES)
def test_torn_write_is_quarantined_not_trusted(site, tmp_path,
                                               model_artifact):
    scenario = SCENARIOS[site]
    root = tmp_path / "store"
    root.mkdir()
    code = scenario.script(root, model_artifact)

    crashed = _run_child(code, plan=f"{site}:torn-write:{scenario.nth}")
    assert crashed.returncode == faults.TORN_EXIT_CODE, crashed.stderr
    scenario.recovered(root)

    rerun = _run_child(code)
    assert rerun.returncode == 0, rerun.stderr
    scenario.converged(root)


class TestCampaignResume:
    def _job(self, n_cycles=40, seed=5):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(n_cycles, operand_width=8, seed=seed)
        return CampaignJob(fu, stream, CONDS)

    def test_inline_rerun_skips_journaled_shards(self, tmp_path,
                                                 monkeypatch):
        job = self._job()
        reference = CampaignRunner(use_cache=False).run([job])[0]

        # crash the campaign at the 3rd journal write: shards 1 and 2
        # are checkpointed, the run dies mid-shard-3
        monkeypatch.setenv(faults.PLAN_ENV,
                           "campaign.journal.replace:raise:3")
        with CampaignRunner(store=tmp_path, shard_cycles=10) as runner:
            with pytest.raises(faults.FaultInjected):
                runner.run([job])
        assert list(tmp_path.glob("journal_*.json"))

        monkeypatch.delenv(faults.PLAN_ENV)
        faults.reset()
        with CampaignRunner(store=tmp_path, shard_cycles=10) as runner:
            trace = runner.run([job])[0]
            assert runner.stats.resumed_shards == 2
            assert runner.stats.misses == 1
        np.testing.assert_array_equal(trace.delays, reference.delays)
        # journal + parts are cleared once the trace lands in the store
        assert not list(tmp_path.glob("journal_*"))
        assert not list(tmp_path.glob("part_*"))

    def test_pool_rerun_skips_journaled_shards(self, tmp_path,
                                               monkeypatch):
        # the journal callback sees views of the pool's stitched
        # matrix; the rerun overlays the journaled part on it
        job = self._job(n_cycles=9000, seed=6)
        reference = CampaignRunner(use_cache=False).run([job])[0]

        monkeypatch.setenv(faults.PLAN_ENV,
                           "campaign.journal.replace:raise:2")
        with CampaignRunner(store=tmp_path, n_workers=2,
                            shard_cycles=3000) as runner:
            with pytest.raises(faults.FaultInjected):
                runner.run([job])

        monkeypatch.delenv(faults.PLAN_ENV)
        faults.reset()
        with CampaignRunner(store=tmp_path, n_workers=2,
                            shard_cycles=3000) as runner:
            trace = runner.run([job])[0]
            assert runner.stats.resumed_shards == 1
        np.testing.assert_array_equal(trace.delays, reference.delays)
        assert not list(tmp_path.glob("journal_*"))
        assert not list(tmp_path.glob("part_*"))

    def test_resumed_campaign_hits_cache_on_next_run(self, tmp_path,
                                                     monkeypatch):
        job = self._job(seed=7)
        monkeypatch.setenv(faults.PLAN_ENV,
                           "campaign.journal.replace:raise:2")
        with CampaignRunner(store=tmp_path, shard_cycles=10) as runner:
            with pytest.raises(faults.FaultInjected):
                runner.run([job])
        monkeypatch.delenv(faults.PLAN_ENV)
        faults.reset()
        with CampaignRunner(store=tmp_path, shard_cycles=10) as runner:
            runner.run([job])
        with CampaignRunner(store=tmp_path, shard_cycles=10) as runner:
            runner.run([job])
            assert runner.stats.hits == 1
            assert runner.stats.resumed_shards == 0

    def test_stale_journal_for_other_backend_is_ignored(self, tmp_path,
                                                        monkeypatch):
        job = self._job(seed=9)
        monkeypatch.setenv(faults.PLAN_ENV,
                           "campaign.journal.replace:raise:2")
        with CampaignRunner(store=tmp_path, shard_cycles=10) as runner:
            with pytest.raises(faults.FaultInjected):
                runner.run([job])
        monkeypatch.delenv(faults.PLAN_ENV)
        faults.reset()
        # same key space, different backend grid params: the journal
        # must not be resumed against a backend it was not recorded for
        key = job.key("dta")
        store = TraceStore(tmp_path)
        assert store.load_journal(key, backend="event",
                                  n_corners=2, n_cycles=40) is None
        assert store.load_journal(key, backend=DEFAULT_BACKEND,
                                  n_corners=2, n_cycles=40) is not None
