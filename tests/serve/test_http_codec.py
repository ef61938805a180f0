"""Unit tests of the HTTP/1.1 codec and the client's retry policy.

Both ends of the wire parse with :mod:`repro.serve.http`, so its
helpers are tested here on their own, without a server: request heads,
``Content-Length`` and keep-alive rules, response parsing over a socket
pair, ``Retry-After`` parsing and :class:`ServeClient`'s argument
checks and backoff.
"""

import socket
import threading

import pytest

from repro.serve import ServeClient, ServeError
from repro.serve.client import MAX_HONORED_RETRY_AFTER_S, _parse_retry_after
from repro.serve.http import (
    MAX_HEAD_BYTES,
    BadStatusLine,
    ClientConnection,
    ProtocolError,
    RemoteDisconnected,
    _content_length,
    _keep_alive,
    _parse_head,
    encode_request,
    encode_response,
    parse_request_head,
)


@pytest.fixture
def wire():
    """A client connection whose socket is one end of a socket pair;
    the test writes the server's bytes into the other end."""
    client_sock, server_sock = socket.socketpair()
    conn = ClientConnection("localhost", 0, timeout=5.0)
    conn.sock = client_sock
    yield conn, server_sock
    conn.close()
    server_sock.close()


def _reply(server_sock, data, close=True):
    server_sock.sendall(data)
    if close:
        server_sock.shutdown(socket.SHUT_WR)


class TestRequestHead:
    @pytest.mark.parametrize("line,method,target,path,version", [
        ("GET /health HTTP/1.1", "GET", "/health", "/health", "HTTP/1.1"),
        ("POST /predict?trace=1 HTTP/1.1", "POST", "/predict?trace=1",
         "/predict", "HTTP/1.1"),
        ("GET /stats HTTP/1.0", "GET", "/stats", "/stats", "HTTP/1.0"),
    ])
    def test_request_line_fields(self, line, method, target, path, version):
        head = parse_request_head(line.encode() + b"\r\nHost: x")
        assert (head.method, head.target, head.path, head.version) \
            == (method, target, path, version)
        assert head.request_line == line

    @pytest.mark.parametrize("line", [
        "GET /health",
        "GET /health HTTP/2.0",
        "GET  /health HTTP/1.1",
        "",
        "BREW /pot HTCPCP/1.0",
    ])
    def test_bad_request_line(self, line):
        with pytest.raises(ProtocolError, match="bad request line"):
            parse_request_head(line.encode() + b"\r\nHost: x")

    @pytest.mark.parametrize("header", [
        "NoColonHere",
        ": no-name",
        " Leading: space",
        "Trailing : space",
    ])
    def test_malformed_header_line(self, header):
        with pytest.raises(ProtocolError, match="malformed header"):
            parse_request_head(b"GET / HTTP/1.1\r\n" + header.encode())

    def test_header_names_lower_cased_and_values_stripped(self):
        _, headers = _parse_head(b"GET / HTTP/1.1\r\nX-Trace-Id:   abc  ")
        assert headers == {"x-trace-id": "abc"}

    def test_repeated_header_values_are_joined(self):
        _, headers = _parse_head(b"GET / HTTP/1.1\r\nAccept: a\r\n"
                                 b"accept: b")
        assert headers["accept"] == "a, b"

    def test_doubled_content_length_is_rejected(self):
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                               b"Content-Length: 2")

    def test_transfer_encoding_skips_body_and_closes(self):
        head = parse_request_head(
            b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Length: 10")
        assert head.length == 0
        assert head.keep_alive is False

    @pytest.mark.parametrize("length,expect,wanted", [
        (5, "100-continue", True),
        (5, "100-Continue", True),
        (0, "100-continue", False),
        (5, "", False),
    ])
    def test_expect_continue_only_with_a_body(self, length, expect, wanted):
        raw = f"POST /predict HTTP/1.1\r\nContent-Length: {length}"
        if expect:
            raw += f"\r\nExpect: {expect}"
        assert parse_request_head(raw.encode()).expect_continue is wanted


class TestContentLength:
    @pytest.mark.parametrize("raw,wanted", [
        (None, None),
        ("0", 0),
        ("17", 17),
        ("007", 7),
    ])
    def test_valid(self, raw, wanted):
        headers = {} if raw is None else {"content-length": raw}
        assert _content_length(headers) == wanted

    @pytest.mark.parametrize("raw", [
        "-5", "abc", "1.5", "", "1e3", "+3", "５",
    ])
    def test_invalid(self, raw):
        with pytest.raises(ProtocolError, match="invalid Content-Length"):
            _content_length({"content-length": raw})


class TestKeepAlive:
    @pytest.mark.parametrize("version,connection,wanted", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Keep-Alive, Close", False),
        ("HTTP/1.1", "keep-alive", True),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "keep-alive", True),
        ("HTTP/1.0", "Keep-Alive", True),
        ("HTTP/1.0", "close", False),
    ])
    def test_rules(self, version, connection, wanted):
        headers = {} if connection is None else {"connection": connection}
        assert _keep_alive(version, headers) is wanted


class TestEncode:
    def test_request_without_body_has_no_length(self):
        raw = encode_request("GET", "/health", "h:1", None, {})
        head, _, body = raw.partition(b"\r\n\r\n")
        parsed = parse_request_head(head)
        assert parsed.method == "GET" and parsed.length == 0
        assert "content-length" not in parsed.headers
        assert parsed.headers["host"] == "h:1"
        assert body == b""

    def test_request_with_body_round_trips(self):
        payload = b'{"fu": "int_add"}'
        raw = encode_request("POST", "/predict", "h:1", payload,
                             {"Content-Type": "application/json"})
        head, _, body = raw.partition(b"\r\n\r\n")
        parsed = parse_request_head(head)
        assert parsed.length == len(payload) and body == payload
        assert parsed.headers["content-type"] == "application/json"
        assert parsed.keep_alive is True

    @pytest.mark.parametrize("status,reason", [
        (200, "OK"),
        (400, "Bad Request"),
        (404, "Not Found"),
        (503, "Service Unavailable"),
        (599, "Unknown"),
    ])
    def test_response_round_trips(self, wire, status, reason):
        conn, server_sock = wire
        _reply(server_sock, encode_response(status, b"body",
                                            [("X-A", "1")]), close=False)
        got_status, got_reason, version, headers = conn.read_head()
        assert (got_status, got_reason, version) \
            == (status, reason, "HTTP/1.1")
        assert headers["x-a"] == "1"
        assert conn.read_body(version, headers) == b"body"
        assert conn.sock is not None  # keep-alive: still open

    def test_close_response_closes_the_connection(self, wire):
        conn, server_sock = wire
        _reply(server_sock, encode_response(200, b"{}", close=True))
        _, _, version, headers = conn.read_head()
        assert headers["connection"] == "close"
        assert conn.read_body(version, headers) == b"{}"
        assert conn.sock is None

    def test_two_pipelined_responses_parse_in_order(self, wire):
        conn, server_sock = wire
        _reply(server_sock, encode_response(200, b"one")
               + encode_response(201, b"two"))
        for status, body in ((200, b"one"), (201, b"two")):
            got, _, version, headers = conn.read_head()
            assert got == status
            assert conn.read_body(version, headers) == body


class TestClientConnection:
    @pytest.mark.parametrize("line", [
        b"HTTP/1.1 2000 OK",
        b"HTTP/2 200 OK",
        b"ICY 200 OK",
        b"HTTP/1.1 abc Nope",
        b"HTTP/1.1",
    ])
    def test_bad_status_line(self, wire, line):
        conn, server_sock = wire
        _reply(server_sock, line + b"\r\n\r\n")
        with pytest.raises(BadStatusLine):
            conn.read_head()

    def test_reason_is_optional(self, wire):
        conn, server_sock = wire
        _reply(server_sock, b"HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n")
        assert conn.read_head()[:2] == (204, "")

    def test_close_before_any_byte_is_remote_disconnected(self, wire):
        conn, server_sock = wire
        server_sock.shutdown(socket.SHUT_WR)
        with pytest.raises(RemoteDisconnected):
            conn.read_head()

    def test_close_inside_the_head_is_a_protocol_error(self, wire):
        conn, server_sock = wire
        _reply(server_sock, b"HTTP/1.1 200 OK\r\nContent-")
        with pytest.raises(ProtocolError, match="truncated response head"):
            conn.read_head()

    def test_oversized_head_is_refused(self, wire):
        conn, server_sock = wire
        # written from a thread: the head may not fit the socket buffer
        writer = threading.Thread(target=_reply, args=(
            server_sock, b"HTTP/1.1 200 OK\r\nX-Pad: "
            + b"a" * (MAX_HEAD_BYTES + 1)), daemon=True)
        writer.start()
        with pytest.raises(ProtocolError, match="too long"):
            conn.read_head()
        conn.close()  # unblocks the writer if it is still sending
        writer.join(timeout=5.0)

    def test_truncated_body_is_a_protocol_error(self, wire):
        conn, server_sock = wire
        _reply(server_sock, b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n"
                            b"\r\nabc")
        _, _, version, headers = conn.read_head()
        with pytest.raises(ProtocolError, match="3 of 10 body bytes"):
            conn.read_body(version, headers)

    def test_body_without_length_reads_to_close(self, wire):
        conn, server_sock = wire
        _reply(server_sock, b"HTTP/1.0 200 OK\r\n\r\nall of it")
        _, _, version, headers = conn.read_head()
        assert conn.read_body(version, headers) == b"all of it"
        assert conn.sock is None

    def test_chunked_response_is_refused(self, wire):
        conn, server_sock = wire
        _reply(server_sock, b"HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                            b"chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
        _, _, version, headers = conn.read_head()
        with pytest.raises(ProtocolError, match="Transfer-Encoding"):
            conn.read_body(version, headers)

    def test_http10_reply_without_keep_alive_closes(self, wire):
        conn, server_sock = wire
        _reply(server_sock, b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n"
                            b"\r\nok", close=False)
        _, _, version, headers = conn.read_head()
        assert conn.read_body(version, headers) == b"ok"
        assert conn.sock is None


class TestRetryAfter:
    @pytest.mark.parametrize("header,body,wanted", [
        ("2", {}, 2.0),
        ("0", {}, 0.0),
        (None, {"retry_after_s": 1.5}, 1.5),
        ("soon", {"retry_after_s": 3}, 3.0),
        ("-1", {}, None),
        (None, {}, None),
        ("Wed, 21 Oct 2015 07:28:00 GMT", {}, None),
        (None, {"retry_after_s": [1]}, None),
    ])
    def test_parse(self, header, body, wanted):
        assert _parse_retry_after(header, body) == wanted

    def test_advertised_delay_is_capped(self):
        client = ServeClient("localhost", 1)
        err = ServeError("shed", status=429, retry_after=600.0)
        assert client._retry_delay_s(1, err) == MAX_HONORED_RETRY_AFTER_S

    def test_backoff_doubles_without_jitter(self):
        client = ServeClient("localhost", 1, backoff_s=0.1, jitter=0.0)
        delays = [client._retry_delay_s(n, None) for n in (1, 2, 3)]
        assert delays == pytest.approx([0.1, 0.2, 0.4])


class TestTransport:
    @pytest.mark.parametrize("kwargs,match", [
        ({"retries": -1}, "retries"),
        ({"backoff_s": -0.1}, "backoff_s"),
        ({"jitter": 1.5}, "jitter"),
        ({"jitter": -0.1}, "jitter"),
    ])
    def test_bad_policy_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeClient("localhost", 1, **kwargs)

    def test_unreachable_server_raises_serve_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServeClient("127.0.0.1", port, retries=1, backoff_s=0.0,
                             timeout=2.0)
        with pytest.raises(ServeError, match="after 2 attempt") as err:
            client.health()
        assert (err.value.status, err.value.payload) == (0, {})
