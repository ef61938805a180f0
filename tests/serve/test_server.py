"""End-to-end tests for the HTTP serving layer (server + client)."""

import threading

import numpy as np
import pytest

from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.flow import CampaignJob, CampaignRunner
from repro.serve import (
    ModelRegistry,
    PredictionEngine,
    PredictionServer,
    ServeClient,
    ServeError,
)
from repro.timing import OperatingCondition
from repro.workloads import random_stream

COND = OperatingCondition(0.90, 25.0)


@pytest.fixture(scope="module")
def serving(tmp_path_factory):
    """A live server over one published int_add model."""
    fu = build_functional_unit("int_add", width=8)
    stream = random_stream(60, operand_width=8, seed=0)
    stream.name = "srv_train"
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, [COND])])[0]
    model = TEVoT(operand_width=8)
    X, y = build_training_set(stream, [COND], trace.delays, spec=model.spec)
    model.fit(X, y)
    registry = ModelRegistry(tmp_path_factory.mktemp("srv_registry"))
    registry.publish(model, fu=fu, conditions=[COND], train_stream=stream)
    engine = PredictionEngine(registry=registry, sim_fallback=False)
    server = PredictionServer(engine, port=0, batch_window_ms=1.0)
    server.start_background()
    host, port = server.address
    yield ServeClient(host, port), model, engine
    server.shutdown()
    server.server_close()


class TestEndpoints:
    def test_health(self, serving):
        client, _, _ = serving
        payload = client.health()
        assert payload["status"] == "healthy"
        assert payload["models_published"] == 1

    def test_models_listing(self, serving):
        client, _, _ = serving
        (record,) = client.models()
        assert record["model_id"] == "int_add/tevot/v1"
        assert record["feature_spec"]["operand_width"] == 8

    def test_stats_reflect_traffic(self, serving):
        client, _, _ = serving
        client.predict(fu="int_add", a=5, b=6, voltage=COND.voltage,
                       temperature=COND.temperature)
        stats = client.stats()
        assert stats["engine"]["requests"] >= 1
        assert stats["batching"]["requests"] >= 1

    @pytest.mark.parametrize("path, payload", [
        ("/nope", None),
        ("/config", {"max_batch": 8}),  # settings are fixed at start
    ])
    def test_unknown_path_404(self, serving, path, payload):
        client, _, _ = serving
        with pytest.raises(ServeError) as err:
            client._call(path, payload)
        assert err.value.status == 404


class TestServedParity:
    def test_stream_replay_matches_offline(self, serving):
        client, model, engine = serving
        engine.reset_stream()
        stream = random_stream(30, operand_width=8, seed=2)
        ref = model.predict_stream_delays(stream, COND)
        preds = client.predict_many([
            {"fu": "int_add", "a": int(stream.a[t]), "b": int(stream.b[t]),
             "voltage": COND.voltage, "temperature": COND.temperature,
             "stream_id": "parity"}
            for t in range(len(stream.a))])
        served = np.array([p["delay_ps"] for p in preds[1:]])
        np.testing.assert_array_equal(served, ref)

    def test_concurrent_clients_all_correct(self, serving):
        """Stateless requests from many threads: batching must never
        mix up results."""
        client, model, _ = serving
        from repro.core.features import build_feature_matrix
        from repro.workloads import OperandStream

        def expected(a, b):
            s = OperandStream("x", np.array([a, a]), np.array([b, b]))
            X = build_feature_matrix(s, COND, model.spec)
            return model.predict_delay(X)[0]

        failures = []

        def worker(k):
            local = ServeClient(*client.base_url.replace(
                "http://", "").split(":"))
            for i in range(5):
                a, b = (k * 17 + i) % 256, (k * 31 + 2 * i) % 256
                got = local.predict(fu="int_add", a=a, b=b,
                                    voltage=COND.voltage,
                                    temperature=COND.temperature,
                                    prev_a=a, prev_b=b)["delay_ps"]
                if got != expected(a, b):
                    failures.append((k, i, got))

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []


class TestErrors:
    def test_bad_json_is_400(self, serving):
        client, _, _ = serving
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            client.base_url + "/predict", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_missing_field_is_400(self, serving):
        client, _, _ = serving
        with pytest.raises(ServeError) as err:
            client.predict_many([{"fu": "int_add"}])
        assert err.value.status == 400

    def test_unserveable_fu_reports_per_request(self, serving):
        """No model + fallback off -> per-request failure, 422."""
        client, _, _ = serving
        preds = client.predict_many([
            {"fu": "int_mul", "a": 1, "b": 2, "voltage": COND.voltage,
             "temperature": COND.temperature}])
        assert preds[0]["ok"] is False
        with pytest.raises(ServeError):
            client.predict(fu="int_mul", a=1, b=2, voltage=COND.voltage,
                           temperature=COND.temperature)

    @pytest.mark.parametrize("field", ["voltage", "clock_period",
                                       "deadline_ms"])
    def test_nonfinite_field_is_422_and_skips_history(self, serving, field):
        client, _, engine = serving
        stream_id = f"nonfinite-{field}"
        body = {"fu": "int_add", "a": 3, "b": 4, "voltage": COND.voltage,
                "temperature": COND.temperature, "stream_id": stream_id,
                field: float("nan")}
        import json
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            client.base_url + "/predict", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 422
        (pred,) = json.loads(err.value.read())["predictions"]
        assert pred["ok"] is False and "finite" in pred["message"]
        assert ("int_add", stream_id) not in engine._history


    @pytest.mark.parametrize("value", [5.9, True, "12"])
    def test_non_integer_operand_is_400(self, serving, value):
        client, _, _ = serving
        with pytest.raises(ServeError) as err:
            client.predict_many([{"fu": "int_add", "a": value, "b": 2,
                                  "voltage": COND.voltage,
                                  "temperature": COND.temperature}])
        assert err.value.status == 400
        assert "a must be an integer" in str(err.value)

    def test_out_of_range_operand_is_422_and_chain_resumes(self, serving):
        """The 8-bit model rejects 256 and -1 per request; the stream's
        next accepted request chains from the last accepted operands."""
        client, model, engine = serving
        stream = random_stream(2, operand_width=8, seed=6)
        a, b = [int(x) for x in stream.a[:2]], [int(x) for x in stream.b[:2]]

        def req(a_, b_):
            return {"fu": "int_add", "a": a_, "b": b_,
                    "voltage": COND.voltage,
                    "temperature": COND.temperature, "stream_id": "range"}

        assert client.predict_many([req(a[0], b[0])])[0]["ok"]
        for bad in (req(256, b[0]), req(a[0], -1)):
            (pred,) = client.predict_many([bad])
            assert pred["ok"] is False
            assert "must be in [0, 2**8)" in pred["message"]
        (pred,) = client.predict_many([req(a[1], b[1])])
        ref = model.predict_stream_delays(stream, COND)
        assert pred["delay_ps"] == ref[0]
        assert engine._history[("int_add", "range")] == (a[1], b[1])


class TestRefreshEndpoint:
    def test_models_refresh_rewarns_engine(self, serving):
        client, _, engine = serving
        out = client._call("/models/refresh", {})
        assert out == {"ok": True}
        # refresh drops hot models; next request faults the model back in
        before = engine.stats.model_cache_misses
        client.predict(fu="int_add", a=1, b=2, voltage=COND.voltage,
                       temperature=COND.temperature)
        assert engine.stats.model_cache_misses == before + 1


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


class _GatedEngine:
    """Engine stub whose first batch blocks until the test releases it,
    so a known number of requests pile up in the micro-batch queue."""

    registry = None
    sim_fallback = False
    kind = "tevot"

    def __init__(self):
        self.served = 0
        self.release = threading.Event()
        self._first = True

    def predict_batch(self, requests):
        from repro.serve import Prediction
        if self._first:
            self._first = False
            assert self.release.wait(timeout=30.0)
        self.served += len(requests)
        return [Prediction(ok=True, delay_ps=float(r.a + r.b),
                           source="stub") for r in requests]

    def close(self):
        pass


class TestGracefulShutdown:
    def test_close_answers_everything_already_queued(self):
        """close() drains the micro-batch queue: every request accepted
        before shutdown gets its real answer, none get a reset."""
        from repro.serve import PredictionServer

        import time

        engine = _GatedEngine()
        server = PredictionServer(engine, port=0, batch_window_ms=0.0,
                                  max_batch=1)
        server.start_background()
        host, port = server.address
        n = 8
        results, errors = [], []

        def drive(k):
            try:
                local = ServeClient(host, port, retries=0)
                results.append(local.predict(
                    fu="int_add", a=k, b=100, voltage=0.9,
                    temperature=25.0))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(k,))
                   for k in range(n)]
        for t in threads:
            t.start()
        # the first batch is gated inside the engine, so the other
        # n - 1 requests must all be sitting in the micro-batch queue
        # before close() runs — the drain then has real work to do
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline \
                and len(server.batcher._queue) < n - 1:
            time.sleep(0.002)
        assert len(server.batcher._queue) == n - 1
        engine.release.set()
        server.close()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == n
        assert sorted(r["delay_ps"] for r in results) == \
            [100.0 + k for k in range(n)]
        assert engine.served == n

    def test_close_is_idempotent_and_refuses_new_work(self):
        from repro.serve import PredictionServer

        engine = _GatedEngine()
        engine.release.set()
        server = PredictionServer(engine, port=0)
        server.start_background()
        host, port = server.address
        server.close()
        server.close()  # second close is a no-op
        with pytest.raises(ServeError):
            ServeClient(host, port, retries=0, timeout=2.0).health()

    def test_health_payload_fields(self, serving):
        client, _, _ = serving
        assert set(client.health()) == {"status", "uptime_s",
                                        "models_published", "sim_fallback",
                                        "kind"}
