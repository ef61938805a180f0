"""Keep-alive HTTP: pooled client connections, body hygiene on persistent
connections, graceful close with idle clients, and the batch window as
an upper bound."""

import http.client
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.flow import CampaignJob, CampaignRunner
from repro.remote.service import StoreService
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    Prediction,
    PredictionEngine,
    PredictionServer,
    PredictRequest,
    ServeClient,
    ServeError,
)
from repro.timing import OperatingCondition
from repro.workloads import random_stream

COND = OperatingCondition(0.90, 25.0)


class _StubEngine:
    """Answers a + b at once; optionally blocks the first batch until
    ``release`` is set."""

    registry = None
    sim_fallback = False
    kind = "tevot"

    def __init__(self, gated=False):
        self.release = threading.Event()
        if not gated:
            self.release.set()
        self.entered = threading.Event()
        self.batches = []

    def predict_batch(self, requests):
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        self.batches.append(len(requests))
        return [Prediction(ok=True, delay_ps=float(r.a + r.b),
                           source="stub") for r in requests]

    def refresh(self):
        pass

    def stats_dict(self):
        return {"batches": len(self.batches)}

    def close(self):
        pass


def _request(a=1, b=2, **extra):
    return dict(fu="int_add", a=a, b=b, voltage=COND.voltage,
                temperature=COND.temperature, **extra)


@pytest.fixture
def stub_server():
    engine = _StubEngine()
    server = PredictionServer(engine, port=0)
    server.start_background()
    yield server
    server.close()


@pytest.fixture
def store_service(tmp_path):
    service = StoreService(tmp_path / "svc", port=0)
    service.start_background()
    yield service
    service.close()


@pytest.fixture(scope="module")
def model_server(tmp_path_factory):
    """A live server over one published 8-bit int_add model whose
    handlers drop a connection after 0.2 s of silence."""
    fu = build_functional_unit("int_add", width=8)
    stream = random_stream(60, operand_width=8, seed=0)
    stream.name = "keepalive_train"
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, [COND])])[0]
    model = TEVoT(operand_width=8)
    X, y = build_training_set(stream, [COND], trace.delays, spec=model.spec)
    model.fit(X, y)
    registry = ModelRegistry(tmp_path_factory.mktemp("keepalive_registry"))
    registry.publish(model, fu=fu, conditions=[COND], train_stream=stream)
    engine = PredictionEngine(registry=registry, sim_fallback=False)
    server = PredictionServer(engine, port=0)
    server.RequestHandlerClass = type(
        "ShortTimeoutHandler", (server.RequestHandlerClass,),
        {"timeout": 0.2})
    server.start_background()
    yield server, model
    server.close()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _raw_exchange(sock, request: bytes):
    """Send one raw request; return the response, or None when the
    server has cleanly closed the connection."""
    try:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
    except (ConnectionError, http.client.RemoteDisconnected):
        return None
    body = response.read()
    return response.status, dict(response.getheaders()), body


class TestPooledTransport:
    def test_connection_is_reused_across_calls(self, stub_server):
        with ServeClient(*stub_server.address, retries=0) as client:
            client.health()
            sock = client._transport._local.conn.sock
            for _ in range(5):
                client.predict(**_request())
            assert client._transport._local.conn.sock is sock

    def test_idle_close_reopens_once_and_history_advances_once(
            self, model_server):
        """The server drops the idle connection; the next call reopens
        it transparently even with retries=0, and the stream history
        advances exactly once per request: served == offline."""
        server, model = model_server
        client = ServeClient(*server.address, retries=0)
        stream = random_stream(12, operand_width=8, seed=5)
        served = []
        for t in range(len(stream.a)):
            if t in (3, 7):
                sock = client._transport._local.conn.sock
                assert sock is not None
                # the short handler timeout closes the idle connection
                assert _wait_until(lambda: not server._idle)
            (pred,) = client.predict_many([
                _request(int(stream.a[t]), int(stream.b[t]),
                         stream_id="idle")])
            served.append(pred["delay_ps"])
            if t in (3, 7):
                assert client._transport._local.conn.sock is not sock
        client.close()
        ref = model.predict_stream_delays(stream, COND)
        np.testing.assert_array_equal(np.array(served[1:]), ref)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_never_uses_parent_socket(self, stub_server):
        client = ServeClient(*stub_server.address, retries=0)
        client.health()
        parent_conn = client._transport._local.conn
        parent_sock = parent_conn.sock
        pid = os.fork()
        if pid == 0:  # child: a fresh connection, parent's untouched
            code = 1
            try:
                ok = client.predict(**_request(3, 4))["delay_ps"] == 7.0
                conn = client._transport._local.conn
                if ok and conn is not parent_conn and \
                        conn.sock is not parent_sock:
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert client.predict(**_request(5, 6))["delay_ps"] == 11.0
        assert client._transport._local.conn.sock is parent_sock
        client.close()

    def test_threads_get_separate_connections(self, stub_server):
        client = ServeClient(*stub_server.address, retries=0)
        seen = {}
        barrier = threading.Barrier(3)

        def work(k):
            client.predict(**_request(k, 1))
            barrier.wait(timeout=10.0)  # all connections open at once
            seen[k] = client._transport._local.conn.sock
            barrier.wait(timeout=10.0)
            client.close()

        threads = [threading.Thread(target=work, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        socks = list(seen.values())
        assert len(socks) == 3 and len({id(s) for s in socks}) == 3
        assert all(s is not None for s in socks)

    def test_no_retries_fails_fast_against_closed_port(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient("127.0.0.1", port, retries=0, timeout=5.0)
        start = time.monotonic()
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()
        assert time.monotonic() - start < 1.0

    def test_close_and_context_manager_close_the_thread_connection(
            self, stub_server):
        with ServeClient(*stub_server.address, retries=0) as client:
            client.health()
            assert client._transport._local.conn.sock is not None
        assert client._transport._local.conn.sock is None
        # the server sees the close and releases the handler thread
        assert _wait_until(lambda: not stub_server._idle)
        client.health()  # a closed client reconnects on the next call
        client.close()


class TestBodyHygiene:
    """A reply sent before the request body was read must close the
    connection: the next request on that socket gets a correct answer
    or a clean close, never a parse of the leftover body."""

    def _check_next(self, sock, path=b"/health"):
        got = _raw_exchange(sock, b"GET " + path + b" HTTP/1.1\r\n"
                                  b"Host: x\r\n\r\n")
        if got is not None:
            status, _, body = got
            assert status == 200, body
            json.loads(body)

    def test_bad_content_length_on_predict_server(self, stub_server):
        body = json.dumps(_request()).encode()
        with socket.create_connection(stub_server.address) as sock:
            status, headers, _ = _raw_exchange(
                sock, b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: 12abc\r\n\r\n" + body)
            assert status == 400
            assert headers.get("Connection") == "close"
            self._check_next(sock)

    def test_bad_json_keeps_the_connection(self, stub_server):
        """A body that was read in full leaves the connection usable."""
        with socket.create_connection(stub_server.address) as sock:
            status, headers, _ = _raw_exchange(
                sock, b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: 8\r\n\r\nnot json")
            assert status == 400
            assert "Connection" not in headers
            got = _raw_exchange(sock, b"GET /health HTTP/1.1\r\n"
                                      b"Host: x\r\n\r\n")
            assert got is not None and got[0] == 200

    def test_store_route_rejecting_before_body(self, store_service):
        """``/registry/publish`` without its info header is refused
        before the body is read."""
        body = b"x" * 64 + b"GET /nope HTTP/1.1\r\n\r\n"
        with socket.create_connection(store_service.address) as sock:
            status, headers, _ = _raw_exchange(
                sock, b"POST /registry/publish HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: %d\r\n\r\n" % len(body) + body)
            assert status == 400
            assert headers.get("Connection") == "close"
            self._check_next(sock, b"/meta")

    def test_bad_content_length_on_store_service(self, store_service):
        with socket.create_connection(store_service.address) as sock:
            status, _, _ = _raw_exchange(
                sock, b"POST /store/gc HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: -5\r\n\r\n{}")
            assert status == 400
            self._check_next(sock, b"/meta")


class TestGracefulCloseUnderKeepAlive:
    @pytest.mark.parametrize("kind", ["predict", "store"])
    def test_close_with_idle_clients_is_prompt(self, kind, tmp_path):
        if kind == "predict":
            server = PredictionServer(_StubEngine(), port=0)
        else:
            server = StoreService(tmp_path / "svc", port=0)
        server.start_background()
        socks = []
        for _ in range(3):
            sock = socket.create_connection(server.address)
            path = b"/health" if kind == "predict" else b"/meta"
            assert _raw_exchange(sock, b"GET " + path + b" HTTP/1.1\r\n"
                                       b"Host: x\r\n\r\n")[0] == 200
            socks.append(sock)
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 1.5
        for sock in socks:
            assert sock.recv(1) == b""  # cleanly closed
            sock.close()

    def test_request_after_draining_starts_gets_503_close(self):
        engine = _StubEngine(gated=True)
        server = PredictionServer(engine, port=0)
        server.start_background()
        host, port = server.address
        idle = socket.create_connection((host, port))
        assert _raw_exchange(idle, b"GET /health HTTP/1.1\r\n"
                                   b"Host: x\r\n\r\n")[0] == 200
        answers = []
        inflight = threading.Thread(target=lambda: answers.append(
            ServeClient(host, port, retries=0).predict(**_request(2, 3))))
        inflight.start()
        assert engine.entered.wait(timeout=10.0)
        closer = threading.Thread(target=server.close)
        closer.start()
        try:
            assert _wait_until(lambda: server._draining)
            status, headers, body = _raw_exchange(
                idle, b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            assert status == 503
            assert headers.get("Connection") == "close"
            assert json.loads(body)["status"] == "draining"
            assert idle.recv(1) == b""
        finally:
            engine.release.set()
            closer.join(timeout=10.0)
            inflight.join(timeout=10.0)
            idle.close()
        assert not closer.is_alive()
        assert [a["delay_ps"] for a in answers] == [5.0]


class TestBatchWindowIsAnUpperBound:
    def test_lone_request_does_not_wait_for_the_window(self):
        engine = _StubEngine()
        server = PredictionServer(engine, port=0, batch_window_ms=400.0)
        server.start_background()
        try:
            with ServeClient(*server.address, retries=0) as client:
                client.health()
                start = time.monotonic()
                for k in range(3):
                    assert client.predict(
                        **_request(k, 1))["delay_ps"] == k + 1
                assert time.monotonic() - start < 0.6
        finally:
            server.close()

    def test_window_waits_for_an_arriving_request(self):
        engine = _StubEngine()
        batcher = MicroBatcher(engine, batch_window_ms=2000.0)
        try:
            batcher.arrive()
            first = threading.Thread(target=batcher.submit_many,
                                     args=([PredictRequest(**_request())],))
            first.start()
            time.sleep(0.1)
            assert engine.batches == []  # held open for the arrival
            batcher.submit_many([PredictRequest(**_request(3, 4))],
                                arrived=True)
            first.join(timeout=10.0)
            assert engine.batches == [2]
        finally:
            batcher.stop()

    def test_depart_releases_the_window(self):
        engine = _StubEngine()
        batcher = MicroBatcher(engine, batch_window_ms=5000.0)
        try:
            batcher.arrive()
            first = threading.Thread(target=batcher.submit_many,
                                     args=([PredictRequest(**_request())],))
            first.start()
            time.sleep(0.05)
            start = time.monotonic()
            batcher.depart()
            first.join(timeout=10.0)
            assert time.monotonic() - start < 1.0
            assert engine.batches == [1]
        finally:
            batcher.stop()


def test_keep_alive_replies_are_not_delayed_by_nagle(stub_server):
    """Headers and body go out in two writes; with Nagle on, delayed
    ACK stalls every reply on a persistent connection by ~40 ms."""
    times = []
    with ServeClient(*stub_server.address, retries=0) as client:
        client.health()
        for k in range(11):
            start = time.perf_counter()
            client.predict(**_request(k, 1))
            times.append(time.perf_counter() - start)
    assert sorted(times)[len(times) // 2] < 0.02


def test_concurrent_keep_alive_clients_under_a_short_switch_interval():
    """More client threads than cores, each on its own persistent
    connection: every request is answered correctly and, afterwards,
    no arrival is left counted (a lost update would hold every later
    batch open for its full window)."""
    import sys

    engine = _StubEngine()
    server = PredictionServer(engine, port=0, batch_window_ms=50.0)
    server.start_background()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    wrong = []
    try:
        client = ServeClient(*server.address, retries=0)

        def work(k):
            with client:  # closes this thread's connection
                for i in range(20):
                    got = client.predict(**_request(k, i))["delay_ps"]
                    if got != k + i:
                        wrong.append((k, i, got))

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert wrong == []
        assert server.batcher._arriving == 0
        assert server.batcher.n_requests == 160
        assert sum(engine.batches) == 160
    finally:
        server.close()
