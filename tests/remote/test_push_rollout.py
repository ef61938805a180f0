"""Push-based model rollout tests.

A serving engine backed by a remote registry subscribes to the store
service's event feed; a publish reaches the engine without anyone
calling ``POST /models/refresh``.  These tests cover the subscriber
thread (reconnect, reset, fault injection) and the engine/server
integration, including the zero-refresh-polls guarantee.
"""

import time

import numpy as np
import pytest

from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.flow import CampaignJob, CampaignRunner
from repro.remote import RemoteModelRegistry, StoreService
from repro.serve import (
    ModelRegistry,
    PredictionEngine,
    PredictRequest,
    PredictionServer,
    ServeClient,
)
from repro.testing import faults
from repro.timing import OperatingCondition
from repro.workloads import random_stream

COND = OperatingCondition(0.90, 25.0)


@pytest.fixture()
def service(tmp_path):
    svc = StoreService(tmp_path / "svc", port=0)
    svc.start_background()
    yield svc
    svc.close()


@pytest.fixture()
def registry(service):
    return RemoteModelRegistry(service.url, retries=0)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def _train_and_publish(registry, fu, stream):
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, [COND])])[0]
    model = TEVoT(operand_width=fu.operand_width)
    X, y = build_training_set(stream, [COND], trace.delays, spec=model.spec)
    model.fit(X, y)
    return registry.publish(model, fu=fu, conditions=[COND],
                            train_stream=stream)


def _requests(n, seed=11):
    stream = random_stream(n, operand_width=8, seed=seed)
    return [PredictRequest(fu="int_add", a=int(stream.a[i]),
                           b=int(stream.b[i]), voltage=COND.voltage,
                           temperature=COND.temperature, stream_id="s0")
            for i in range(n)]


def _wait_for(predicate, timeout_s=10.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestEventSubscriber:
    def test_publish_triggers_callback(self, registry):
        hits = []
        sub = registry.subscribe_events(lambda: hits.append(1),
                                        poll_timeout_s=0.5)
        try:
            assert _wait_for(lambda: sub.stats()["since"] is not None)
            registry.publish({"w": 1}, fu="int_add")
            assert _wait_for(lambda: len(hits) >= 1)
            stats = sub.stats()
            assert stats["refreshes"] >= 1
            assert stats["events_seen"] >= 1
        finally:
            sub.close()
        assert not sub.alive

    def test_survives_injected_poll_fault(self, registry, monkeypatch):
        """An exception inside the poll loop is survived with backoff;
        the subscriber reconnects and still catches the next publish."""
        monkeypatch.setenv(faults.PLAN_ENV, "remote.events.poll:raise:1")
        faults.reset()
        hits = []
        sub = registry.subscribe_events(lambda: hits.append(1),
                                        poll_timeout_s=0.5,
                                        backoff_s=0.05)
        try:
            assert _wait_for(lambda: sub.stats()["reconnects"] >= 1)
            assert _wait_for(lambda: sub.stats()["since"] is not None)
            registry.publish({"w": 1}, fu="int_add")
            assert _wait_for(lambda: len(hits) >= 1)
            assert sub.stats()["errors"] >= 1
        finally:
            sub.close()

    def test_service_restart_resyncs_via_reset(self, service, registry):
        """Kill + restart the service on the same port: the subscriber
        rides out the outage, detects the renumbered feed (reset), and
        refreshes defensively."""
        hits = []
        sub = registry.subscribe_events(lambda: hits.append(1),
                                        poll_timeout_s=0.3,
                                        backoff_s=0.05)
        try:
            assert _wait_for(lambda: sub.stats()["since"] is not None)
            # grow the feed past the restarted service's seq=0 so the
            # old cursor is in its future → reset
            for i in range(3):
                registry.publish({"w": i}, fu="int_add")
            assert _wait_for(lambda: len(hits) >= 1)
            host, port = service.address
            service.close()
            assert _wait_for(lambda: sub.stats()["errors"] >= 1)
            svc2 = StoreService(service.root, host=host, port=port)
            svc2.start_background()
            try:
                assert _wait_for(lambda: sub.stats()["resets"] >= 1)
                assert sub.stats()["refreshes"] >= 2
            finally:
                svc2.close()
        finally:
            sub.close()

    def test_callback_error_counted_not_fatal(self, registry):
        def boom():
            raise RuntimeError("callback exploded")

        sub = registry.subscribe_events(boom, poll_timeout_s=0.5)
        try:
            assert _wait_for(lambda: sub.stats()["since"] is not None)
            registry.publish({"w": 1}, fu="int_add")
            assert _wait_for(lambda: sub.stats()["callback_errors"] >= 1)
            assert sub.alive
        finally:
            sub.close()


class TestEnginePush:
    def test_remote_registry_auto_subscribes(self, service):
        engine = PredictionEngine(registry=service.url, sim_fallback=True)
        try:
            assert engine._push is not None
            assert "push" in engine.stats_dict()
        finally:
            engine.close()

    def test_local_registry_never_subscribes(self, tmp_path):
        engine = PredictionEngine(registry=tmp_path / "reg",
                                  sim_fallback=True)
        try:
            assert engine._push is None
        finally:
            engine.close()

    def test_publish_rolls_out_without_refresh(self, registry):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(60, operand_width=8, seed=0)
        stream.name = "push_v1"
        _train_and_publish(registry, fu, stream)
        engine = PredictionEngine(registry=registry, sim_fallback=False)
        try:
            (pred,) = engine.predict_batch(_requests(1))
            assert pred.model_id == "int_add/tevot/v1"
            stream2 = random_stream(60, operand_width=8, seed=5)
            stream2.name = "push_v2"
            _train_and_publish(registry, fu, stream2)
            # nobody calls engine.refresh(); the push subscriber does
            assert _wait_for(
                lambda: engine.stats_dict()["push"]["refreshes"] >= 1)
            (pred,) = engine.predict_batch(_requests(1))
            assert pred.model_id == "int_add/tevot/v2"
        finally:
            engine.close()

    def test_remote_engine_bit_exact_with_local_engine(self, registry,
                                                       service):
        """An engine dialing the service is bit-exact with one over the
        service's own registry directory."""
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(60, operand_width=8, seed=0)
        stream.name = "rlx_v1"
        _train_and_publish(registry, fu, stream)
        local = PredictionEngine(registry=service.root / "registry",
                                 sim_fallback=False)
        remote = PredictionEngine(registry=registry, sim_fallback=False)
        try:
            reqs = _requests(16)
            want = [p.delay_ps for p in local.predict_batch(reqs)]
            got = [p.delay_ps for p in remote.predict_batch(reqs)]
        finally:
            remote.close()
        np.testing.assert_array_equal(got, want)


class TestServerCounters:
    def test_refresh_calls_counts_manual_polls(self, tmp_path):
        engine = PredictionEngine(registry=tmp_path / "reg",
                                  sim_fallback=True)
        server = PredictionServer(engine, port=0)
        server.start_background()
        try:
            host, port = server.address
            client = ServeClient(host, port)
            assert server.stats()["refresh_calls"] == 0
            client._call("/models/refresh", {})
            assert server.stats()["refresh_calls"] == 1
        finally:
            server.close()
