"""Wire conformance of the prediction server's HTTP/1.1 codec, driven
over raw sockets against a live :class:`PredictionServer`: pipelining,
split heads and bodies, bad framing, ``Transfer-Encoding``,
``Expect: 100-continue``, clients that vanish mid-body, and a prompt
close with idle keep-alive connections."""

import json
import socket
import threading
import time

import pytest

from repro.serve import Prediction, PredictionServer, ServeClient

COND = dict(voltage=0.90, temperature=25.0)


class _StubEngine:
    """Answers a + b and records each batch's size; a gated engine
    holds its first batch until ``release`` is set."""

    registry = None
    sim_fallback = False
    kind = "tevot"

    def __init__(self, gated=False):
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()
        if not gated:
            self.release.set()

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


class _LockedEngine(_StubEngine):
    """A gated stub whose ``stats_dict`` and ``refresh`` wait on the
    lock ``predict_batch`` holds for its whole batch."""

    def __init__(self):
        super().__init__(gated=True)
        self.lock = threading.Lock()

    def predict_batch(self, requests):
        with self.lock:
            return super().predict_batch(requests)

    def stats_dict(self):
        with self.lock:
            return super().stats_dict()

    def refresh(self):
        with self.lock:
            pass


@pytest.fixture
def server():
    srv = PredictionServer(_StubEngine(), port=0)
    srv.start_background()
    yield srv
    srv.close()


def _body(a, b):
    return json.dumps(dict(fu="int_add", a=a, b=b, **COND)).encode()


def _post(body, extra=b""):
    return (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n" + extra
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


def _connect(srv):
    sock = socket.create_connection(srv.address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_response(sock, buf):
    """Next response on ``sock`` as (status, lower-cased headers, body),
    leaving later bytes in ``buf``; None on a clean close."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        buf += chunk
    head, _, rest = bytes(buf).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a response body"
        rest += chunk
    buf[:] = rest[length:]
    return status, headers, rest[:length]


def _delay(response):
    status, _, body = response
    assert status == 200, body
    (pred,) = json.loads(body)["predictions"]
    return pred["delay_ps"]


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _assert_closed(sock, buf):
    """The server closed the connection after its last response."""
    assert not buf
    assert sock.recv(1) == b""


def test_pipelined_requests_answered_in_order(server):
    """Two /predicts and a GET between them in one send: three replies,
    in request order, on the same connection."""
    with _connect(server) as sock:
        sock.sendall(_post(_body(1, 2))
                     + b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
                     + _post(_body(10, 20)))
        buf = bytearray()
        assert _delay(_read_response(sock, buf)) == 3.0
        status, _, body = _read_response(sock, buf)
        assert status == 200 and json.loads(body)["status"] == "healthy"
        assert _delay(_read_response(sock, buf)) == 30.0
        # still open: a fourth request on the same connection
        sock.sendall(_post(_body(4, 4)))
        assert _delay(_read_response(sock, buf)) == 8.0


def test_request_sent_during_a_batch_waits_its_turn():
    """A GET that arrives on a connection while its /predict is still
    in the engine is answered after that /predict, not before."""
    engine = _StubEngine(gated=True)
    srv = PredictionServer(engine, port=0)
    srv.start_background()
    try:
        with _connect(srv) as sock:
            sock.sendall(_post(_body(2, 3)))
            assert engine.entered.wait(timeout=10.0)
            sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                sock.recv(1)
            sock.settimeout(10.0)
            engine.release.set()
            buf = bytearray()
            assert _delay(_read_response(sock, buf)) == 5.0
            status, _, body = _read_response(sock, buf)
            assert status == 200
            assert json.loads(body)["batching"]["requests"] == 1
    finally:
        engine.release.set()
        srv.close()


def test_head_sent_one_byte_at_a_time(server):
    request = _post(_body(5, 6))
    with _connect(server) as sock:
        for k in range(len(request)):
            sock.send(request[k:k + 1])
        assert _delay(_read_response(sock, bytearray())) == 11.0


def test_split_body_holds_the_batch_window():
    """A /predict whose body is still arriving holds the batch window
    open for a concurrent request; both then share one batch, and no
    arrival stays counted afterwards."""
    engine = _StubEngine()
    srv = PredictionServer(engine, port=0, batch_window_ms=5000.0)
    srv.start_background()
    try:
        body = _body(1, 2)
        request = _post(body)
        with _connect(srv) as sock:
            sock.sendall(request[:-5])  # head + most of the body
            assert _wait_until(lambda: srv.batcher._arriving == 1)
            answers = []
            other = threading.Thread(target=lambda: answers.append(
                ServeClient(*srv.address, retries=0).predict(
                    fu="int_add", a=3, b=4, **COND)["delay_ps"]))
            other.start()
            assert _wait_until(lambda: srv.batcher.queue_depth() == 1)
            time.sleep(0.1)
            assert engine.batches == []  # held open for the arrival
            sock.sendall(request[-5:])
            assert _delay(_read_response(sock, bytearray())) == 3.0
            other.join(timeout=10.0)
            assert not other.is_alive()
        assert answers == [7.0]
        assert engine.batches == [2]
        assert srv.batcher._arriving == 0
    finally:
        srv.close()


@pytest.mark.parametrize("length", [b"12abc", b"-5", b"5, 6"])
def test_bad_content_length_is_400_and_close(server, length):
    with _connect(server) as sock:
        sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n"
                     + _body(1, 2))
        buf = bytearray()
        status, headers, body = _read_response(sock, buf)
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]
        assert headers["connection"] == "close"
        _assert_closed(sock, buf)


def test_transfer_encoding_is_refused_and_closes(server):
    """A chunked body is never decoded: the request is answered as if
    its body were empty (400 on /predict) and the connection closes."""
    body = _body(1, 2)
    with _connect(server) as sock:
        sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n"
                     + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
        buf = bytearray()
        status, headers, _ = _read_response(sock, buf)
        assert status == 400
        assert headers["connection"] == "close"
        _assert_closed(sock, buf)
    assert server.batcher._arriving == 0
    with ServeClient(*server.address, retries=0) as client:
        assert client.predict(fu="int_add", a=2, b=2, **COND)["delay_ps"] \
            == 4.0


def test_expect_100_continue(server):
    body = _body(7, 8)
    request = _post(body, extra=b"Expect: 100-continue\r\n")
    head = request[:-len(body)]
    with _connect(server) as sock:
        sock.sendall(head)
        buf = bytearray()
        while b"\r\n\r\n" not in buf:
            buf += sock.recv(4096)
        assert bytes(buf).startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
        del buf[:len(b"HTTP/1.1 100 Continue\r\n\r\n")]
        sock.sendall(body)
        assert _delay(_read_response(sock, buf)) == 15.0


def test_request_with_connection_close_is_closed_after_reply(server):
    with _connect(server) as sock:
        sock.sendall(_post(_body(1, 1), extra=b"Connection: close\r\n"))
        buf = bytearray()
        response = _read_response(sock, buf)
        assert response[1]["connection"] == "close"
        assert _delay(response) == 2.0
        _assert_closed(sock, buf)


def test_client_vanishing_mid_body_leaves_server_healthy(server):
    request = _post(_body(1, 2))
    sock = _connect(server)
    sock.sendall(request[:-3])
    assert _wait_until(lambda: server.batcher._arriving == 1)
    sock.close()
    assert _wait_until(lambda: server.batcher._arriving == 0)
    assert _wait_until(lambda: not server._conns)
    with ServeClient(*server.address, retries=0) as client:
        assert client.health()["status"] == "healthy"
        assert client.predict(fu="int_add", a=5, b=5, **COND)["delay_ps"] \
            == 10.0


def test_close_with_idle_keepalive_sockets_returns_promptly():
    """Idle keep-alive connections, one stopped inside a request head
    and one inside a /predict body, do not hold up close()."""
    srv = PredictionServer(_StubEngine(), port=0)
    srv.start_background()
    socks = []
    try:
        for _ in range(3):
            sock = _connect(srv)
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert _read_response(sock, bytearray())[0] == 200
            socks.append(sock)
        partial_head = _connect(srv)
        partial_head.sendall(b"GET /heal")
        partial_body = _connect(srv)
        partial_body.sendall(_post(_body(1, 2))[:-4])
        socks += [partial_head, partial_body]
        assert _wait_until(lambda: srv.batcher._arriving == 1)
        start = time.monotonic()
        srv.close()
        assert time.monotonic() - start < 1.5
        for sock in socks:
            assert sock.recv(1) == b""
        assert srv.batcher._arriving == 0
    finally:
        for sock in socks:
            sock.close()
        srv.close()


def test_engine_calls_never_stall_the_loop():
    """While a batch holds the engine, a /stats and a /models/refresh
    wait for it, but other connections still get /health answered and
    an overflowing /predict shed with 429."""
    engine = _LockedEngine()
    srv = PredictionServer(engine, port=0, max_queue=1)
    srv.start_background()
    socks = []
    try:
        running, queued, stats, refresh, other = socks = [
            _connect(srv) for _ in range(5)]
        running.sendall(_post(_body(1, 2)))
        assert engine.entered.wait(timeout=10.0)
        queued.sendall(_post(_body(3, 4)))
        assert _wait_until(lambda: srv.batcher.queue_depth() == 1)
        stats.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        refresh.sendall(b"POST /models/refresh HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: 0\r\n\r\n")
        buf = bytearray()
        other.settimeout(2.0)
        other.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, body = _read_response(other, buf)
        assert status == 200 and json.loads(body)["status"] == "healthy"
        other.sendall(_post(_body(5, 6)))
        status, headers, _ = _read_response(other, buf)
        assert status == 429 and "retry-after" in headers
        for pending in (stats, refresh):
            pending.settimeout(0.1)
            with pytest.raises(socket.timeout):
                pending.recv(1)
            pending.settimeout(10.0)
        engine.release.set()
        assert _delay(_read_response(running, bytearray())) == 3.0
        assert _delay(_read_response(queued, bytearray())) == 7.0
        status, _, body = _read_response(stats, bytearray())
        assert status == 200 and json.loads(body)["engine"]["batches"] >= 1
        assert _read_response(refresh, bytearray())[0] == 200
    finally:
        engine.release.set()
        for sock in socks:
            sock.close()
        srv.close()


def test_close_does_not_reset_a_connection_with_unread_input():
    """close() while a /predict is in the engine and a request sits
    unread behind it: the client still gets the whole /predict answer
    and then a clean close.  A reset would discard the part of the
    answer the client's small receive window has not taken yet.  The
    answer is written after the loop's last turn, by close() itself."""
    engine = _StubEngine(gated=True)
    srv = PredictionServer(engine, port=0, max_queue=2000)
    srv.start_background()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10.0)
    sock.connect(srv.address)
    closer = threading.Thread(target=srv.close)
    n = 2000
    try:
        body = json.dumps({"requests": [
            dict(fu="int_add", a=i, b=1, **COND) for i in range(n)]})
        sock.sendall(_post(body.encode()))
        assert engine.entered.wait(timeout=10.0)
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        time.sleep(0.1)  # the loop sees it and stops reading the socket
        # the loop now sleeps through the drain and wakes on its poll
        # tick already stopping
        srv._wake = lambda: None
        closer.start()
        assert _wait_until(lambda: srv._draining)
        engine.release.set()
        buf = bytearray()
        status, headers, body = _read_response(sock, buf)
        assert status == 200 and headers["connection"] == "close"
        delays = [p["delay_ps"] for p in json.loads(body)["predictions"]]
        assert delays == [float(i + 1) for i in range(n)]
        _assert_closed(sock, buf)
    finally:
        engine.release.set()
        sock.close()
        if closer.ident:
            closer.join(timeout=10.0)
        srv.close()
