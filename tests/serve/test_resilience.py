"""Overload + deadline resilience tests for the serving layer.

The acceptance story of the resilience work: flood a bounded-queue
server past ``max_queue`` from many threads and every request gets
exactly one of {result, 429-shed, 504-expired} — none hang, none are
lost, and the server-side counters reconcile with the client-side
tally.  Plus unit coverage for the new knobs (``max_queue``,
``default_deadline_ms``), the client's Retry-After/jitter hardening,
and the batcher's :class:`~repro.serve.server.Deadline`.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import (
    MicroBatcher,
    Prediction,
    PredictionServer,
    PredictRequest,
    QueueFullError,
    ServeClient,
    ServeError,
)
from repro.serve.server import Deadline

COND = dict(voltage=0.90, temperature=25.0)


class _GatedEngine:
    """Engine stub whose first batch blocks until released, so a known
    number of requests pile up behind the bounded queue."""

    registry = None
    sim_fallback = False
    kind = "tevot"

    def __init__(self):
        self.served = 0
        self.held = 0
        self.release = threading.Event()
        self._first = True

    def predict_batch(self, requests):
        if self._first:
            self._first = False
            self.held = len(requests)
            assert self.release.wait(timeout=30.0)
        self.served += len(requests)
        return [Prediction(ok=True, delay_ps=float(r.a + r.b),
                           source="stub") for r in requests]

    def refresh(self):
        pass

    def stats_dict(self):
        return {"served": self.served}

    def close(self):
        pass


def _flood(host, port, n, deadline_ms=0, timeout=20.0):
    """Drive ``n`` single-request threads; tally outcome per thread."""
    outcomes = []
    lock = threading.Lock()

    def drive(k):
        local = ServeClient(host, port, retries=0, timeout=timeout,
                            deadline_ms=deadline_ms)
        try:
            got = local.predict(fu="int_add", a=k, b=1000, **COND)
            outcome = ("result", got["delay_ps"])
        except ServeError as exc:
            outcome = (str(exc.status), exc.retry_after)
        with lock:
            outcomes.append((k, outcome))

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    return threads, outcomes


class TestLoadShedding:
    def test_flood_past_max_queue_sheds_and_loses_nothing(self):
        """Every flooded request gets exactly one of {result, 429};
        counters reconcile with the client-side tally."""
        engine = _GatedEngine()
        server = PredictionServer(engine, port=0, batch_window_ms=0.0,
                                  max_batch=2, max_queue=4)
        server.start_background()
        host, port = server.address
        n = 24
        threads, outcomes = _flood(host, port, n)
        # wait until every request is accounted for: held in the gated
        # batch, sitting in the bounded queue, or already shed
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with server.batcher._cond:
                queued = len(server.batcher._queue)
                shed = server.batcher.n_shed
            if engine.held + queued + shed == n:
                break
            time.sleep(0.002)
        assert engine.held + queued + shed == n
        assert queued <= 4, "bounded queue grew past max_queue"
        assert shed >= n - 4 - server.batcher.max_batch > 0
        engine.release.set()
        for t in threads:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in threads), "a request hung"

        tally = {"result": 0, "429": 0}
        for _, (kind, detail) in outcomes:
            assert kind in tally, f"unexpected outcome {kind}"
            tally[kind] += 1
            if kind == "429":
                # every shed response advertises an honest Retry-After
                assert detail is not None and detail > 0
        assert tally["result"] + tally["429"] == n
        stats = server.batcher.stats_dict()
        assert stats["shed"] == tally["429"]
        assert stats["requests"] == tally["result"] == engine.served
        assert stats["queue_depth"] == 0
        server.close()

    def test_queue_full_error_is_immediate_and_all_or_nothing(self):
        engine = _GatedEngine()
        batcher = server = None
        try:
            batcher = MicroBatcher(engine, batch_window_ms=0.0,
                                   max_batch=1, max_queue=2)
            first = threading.Thread(target=batcher.submit_many, args=(
                [PredictRequest(fu="int_add", a=1, b=2, **COND)],))
            first.start()
            while engine.held == 0:  # gated batch in flight
                time.sleep(0.002)
            two = [PredictRequest(fu="int_add", a=i, b=2, **COND)
                   for i in range(2)]
            done = threading.Thread(target=batcher.submit_many, args=(two,))
            done.start()  # exactly fills the queue
            while batcher.queue_depth() < 2:
                time.sleep(0.002)
            start = time.monotonic()
            with pytest.raises(QueueFullError) as err:
                batcher.submit_many(
                    [PredictRequest(fu="int_add", a=9, b=9, **COND)])
            assert time.monotonic() - start < 1.0, "shed must not block"
            assert err.value.n_shed == 1
            assert err.value.retry_after_s > 0
            # all-or-nothing: a 2-request body cannot half-fit the
            # single remaining slot after one drains
            assert batcher.n_shed == 1
        finally:
            engine.release.set()
            if batcher is not None:
                batcher.stop()
            assert server is None


class TestDeadlines:
    def test_queued_requests_past_deadline_answer_504(self):
        """Requests that expire while queued are answered ``deadline
        exceeded`` at dequeue, never executed."""
        engine = _GatedEngine()
        server = PredictionServer(engine, port=0, batch_window_ms=0.0,
                                  max_batch=1, max_queue=64)
        server.start_background()
        host, port = server.address
        n = 6
        threads, outcomes = _flood(host, port, n, deadline_ms=200)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with server.batcher._cond:
                queued = len(server.batcher._queue)
            if engine.held + queued == n:
                break
            time.sleep(0.002)
        assert engine.held + queued == n
        time.sleep(0.4)  # let every queued deadline lapse
        engine.release.set()
        for t in threads:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in threads)

        tally = {"result": 0, "504": 0}
        for _, (kind, _) in outcomes:
            assert kind in tally, f"unexpected outcome {kind}"
            tally[kind] += 1
        # the gated batch executed (dispatched before its deadline);
        # everything still queued expired
        assert tally["result"] == engine.held == engine.served
        assert tally["504"] == n - engine.held > 0
        stats = server.batcher.stats_dict()
        assert stats["expired"] == tally["504"]
        assert stats["requests"] == tally["result"]
        server.close()

    def test_server_default_deadline_applies_when_client_sends_none(self):
        engine = _GatedEngine()
        batcher = MicroBatcher(engine, batch_window_ms=0.0, max_batch=1,
                               default_deadline_ms=150.0)
        try:
            results = []
            first = threading.Thread(target=lambda: results.extend(
                batcher.submit_many(
                    [PredictRequest(fu="int_add", a=1, b=2, **COND)])))
            first.start()
            while engine.held == 0:
                time.sleep(0.002)
            queued = threading.Thread(target=lambda: results.extend(
                batcher.submit_many(
                    [PredictRequest(fu="int_add", a=3, b=4, **COND)])))
            queued.start()
            time.sleep(0.3)  # the queued request's default budget lapses
            engine.release.set()
            first.join(timeout=10.0)
            queued.join(timeout=10.0)
            assert len(results) == 2
            expired = [r for r in results if r.expired]
            assert len(expired) == 1
            assert not expired[0].ok
            assert expired[0].message == "deadline exceeded"
            assert batcher.n_expired == 1
        finally:
            engine.release.set()
            batcher.stop()

    def test_rejects_nonpositive_deadline(self):
        from repro.circuits import build_functional_unit
        from repro.serve import validate_request

        req = PredictRequest(fu="int_add", a=1, b=2, deadline_ms=-5.0,
                             **COND)
        failure = validate_request(req, build_functional_unit)
        assert failure is not None and "deadline_ms" in failure


class TestConfigKnobs:
    def test_runtime_tuning_of_max_queue_and_default_deadline(self):
        engine = _GatedEngine()
        engine.release.set()
        server = PredictionServer(engine, port=0)
        server.start_background()
        host, port = server.address
        client = ServeClient(host, port)
        out = client.configure(max_queue=7, default_deadline_ms=123.0)
        assert out["config"]["max_queue"] == 7
        assert out["config"]["default_deadline_ms"] == 123.0
        stats = client.stats()["batching"]
        assert stats["max_queue"] == 7
        assert stats["default_deadline_ms"] == 123.0
        server.close()

    @pytest.mark.parametrize("payload, field", [
        ({"max_queue": 0}, "max_queue"),
        ({"max_queue": -1}, "max_queue"),
        ({"max_queue": 2.5}, "max_queue"),
        ({"max_queue": True}, "max_queue"),
        ({"default_deadline_ms": -1}, "default_deadline_ms"),
        ({"default_deadline_ms": "soon"}, "default_deadline_ms"),
        ({"default_deadline_ms": float("nan")}, "default_deadline_ms"),
        ({"default_deadline_ms": float("inf")}, "default_deadline_ms"),
    ])
    def test_bad_knob_is_400_naming_field(self, payload, field):
        engine = _GatedEngine()
        engine.release.set()
        server = PredictionServer(engine, port=0)
        server.start_background()
        host, port = server.address
        client = ServeClient(host, port)
        with pytest.raises(ServeError) as err:
            client._call("/config", payload)
        assert err.value.status == 400
        assert err.value.payload["field"] == field
        server.close()


class _SheddingHandler(BaseHTTPRequestHandler):
    """Stub server: first ``shed_first`` predicts answer 429 with a
    Retry-After, the rest succeed."""

    hits = []
    shed_first = 1
    retry_after_s = 0.08

    def _send(self, status, payload, headers=()):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        type(self).hits.append(time.monotonic())
        if len(type(self).hits) <= self.shed_first:
            self._send(429, {"error": "queue full",
                             "retry_after_s": self.retry_after_s},
                       [("Retry-After", f"{self.retry_after_s:.3f}")])
        else:
            self._send(200, {"predictions": [
                {"ok": True, "delay_ps": 1.0, "source": "stub"}]})

    def log_message(self, *args):
        pass


@pytest.fixture
def shedding_server():
    _SheddingHandler.hits = []
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _SheddingHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address
    httpd.shutdown()
    httpd.server_close()


class TestClientHardening:
    def test_client_honors_retry_after_on_429(self, shedding_server):
        host, port = shedding_server
        client = ServeClient(host, port, retries=2, backoff_s=0.0)
        (pred,) = client.predict_many([dict(fu="int_add", a=1, b=2, **COND)])
        assert pred["ok"]
        hits = _SheddingHandler.hits
        assert len(hits) == 2
        # the retry waited at least the advertised delay
        assert hits[1] - hits[0] >= _SheddingHandler.retry_after_s * 0.9

    def test_exhausted_retries_surface_the_429(self, shedding_server):
        host, port = shedding_server
        _SheddingHandler.shed_first = 99
        try:
            client = ServeClient(host, port, retries=1, backoff_s=0.0)
            with pytest.raises(ServeError) as err:
                client.predict_many([dict(fu="int_add", a=1, b=2, **COND)])
            assert err.value.status == 429
            assert err.value.retry_after == pytest.approx(
                _SheddingHandler.retry_after_s)
            assert len(_SheddingHandler.hits) == 2  # retried, then gave up
        finally:
            _SheddingHandler.shed_first = 1

    def test_backoff_is_jittered(self):
        client = ServeClient(backoff_s=0.1, jitter=0.5)
        delays = {client._retry_delay_s(1, None) for _ in range(32)}
        assert all(0.1 <= d <= 0.15 for d in delays)
        assert len(delays) > 1, "jitter must decorrelate retries"
        flat = ServeClient(backoff_s=0.1, jitter=0.0)
        assert flat._retry_delay_s(2, None) == pytest.approx(0.2)

    def test_honored_retry_after_is_capped(self):
        client = ServeClient(backoff_s=0.0)
        hostile = ServeError("shed", status=429, retry_after=3600.0)
        assert client._retry_delay_s(1, hostile) == pytest.approx(5.0)

    def test_deadline_rides_every_predict_request(self, monkeypatch):
        captured = {}
        client = ServeClient(timeout=2.5)

        def fake_call(path, payload=None):
            captured.update(payload)
            return {"predictions": [{"ok": True}] * len(payload["requests"])}

        monkeypatch.setattr(client, "_call", fake_call)
        client.predict_many([dict(fu="int_add", a=1, b=2, **COND),
                             dict(fu="int_add", a=3, b=4,
                                  deadline_ms=99.0, **COND)])
        sent = captured["requests"]
        assert sent[0]["deadline_ms"] == 2500.0  # derived from timeout
        assert sent[1]["deadline_ms"] == 99.0    # explicit wins
        off = ServeClient(timeout=2.5, deadline_ms=0)
        monkeypatch.setattr(off, "_call", fake_call)
        off.predict_many([dict(fu="int_add", a=1, b=2, **COND)])
        assert "deadline_ms" not in captured["requests"][0]

    def test_ctor_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            ServeClient(jitter=1.5)
        with pytest.raises(ValueError, match="deadline_ms"):
            ServeClient(deadline_ms=-1)


class TestHealthStates:
    def test_draining_server_reports_non_200(self):
        engine = _GatedEngine()
        engine.release.set()
        server = PredictionServer(engine, port=0)
        assert server.health()["status"] == "healthy"
        server._draining = True
        assert server.health()["status"] == "draining"


class TestDeadlineVocabulary:
    def test_after_ms_and_expiry(self):
        d = Deadline.after_ms(10_000)
        assert not d.expired()
        assert 9.0 < d.remaining_s() <= 10.0
        past = Deadline.after_ms(-1)
        assert past.expired()
