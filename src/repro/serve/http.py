"""A small HTTP/1.1 codec for both ends of the wire, and the retrying
client transport built on it.

The codec speaks the subset the serving stack needs: a request or
status line, headers, ``Content-Length`` bodies, keep-alive,
``Connection: close`` and ``Expect: 100-continue``.  A request that
carries ``Transfer-Encoding`` is answered as if its body were empty and
its connection is then closed; chunked bodies are never decoded.  The
prediction server (:mod:`repro.serve.server`) parses requests with
:func:`parse_request_head` and writes :func:`encode_response`; every
wire client runs on :class:`HttpTransport`, so the retry policy lives
in one place:

* one pooled connection per thread and process (a forked child never
  writes to its parent's socket); a *reused* connection that fails
  before any response byte — the server closed it while idle — is
  reopened once, not counted as a retry;
* transport resets are retried up to ``retries`` times with jittered
  exponential backoff; timeouts, HTTP error statuses and failures
  after a response has begun are **not**;
* a ``429``/``503`` advertising ``Retry-After`` (header or JSON
  ``retry_after_s``) is retried after that delay, capped at
  :data:`MAX_HONORED_RETRY_AFTER_S`;
* errors raise :class:`ServeError` (a :class:`TransportError`).

The transport writes each request with one ``sendall`` on a raw
``http://`` socket and reads the reply with the same codec: a
``Content-Length`` body, or, without one, the bytes up to the server's
close.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from http import HTTPStatus
from typing import Callable, Dict, Optional, Sequence, Tuple
from urllib.parse import urlsplit

#: Never honor an advertised Retry-After longer than this — a confused
#: (or hostile) server must not park the client for minutes.
MAX_HONORED_RETRY_AFTER_S = 5.0

#: Longest message head (start line + headers) either end accepts.
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}


# -- codec --------------------------------------------------------------------


class ProtocolError(ValueError):
    """The peer sent something that is not the HTTP/1.1 this codec
    speaks (malformed head, bad ``Content-Length``, truncated body)."""


class BadStatusLine(ProtocolError):
    """A response did not start with an ``HTTP/1.x`` status line."""


class RemoteDisconnected(ConnectionResetError):
    """The server closed the connection before any response byte."""


def _parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """Start line and lower-cased headers of one message head (without
    its blank line).  A repeated header's values are joined with
    ``", "``, so a doubled ``Content-Length`` fails validation."""
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise ProtocolError(f"malformed header line {line!r}")
        key, value = name.lower(), value.strip()
        headers[key] = f"{headers[key]}, {value}" if key in headers else value
    return lines[0], headers


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    raw = headers.get("content-length")
    if raw is None:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise ProtocolError(f"invalid Content-Length {raw!r}")
    return int(raw)


def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
    tokens = {t.strip().lower()
              for t in headers.get("connection", "").split(",")}
    if version == "HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


class RequestHead:
    """A parsed request head.

    ``length`` is the body length to read (0 when a
    ``Transfer-Encoding`` request's body is to be skipped);
    ``keep_alive`` is False when the connection must close after the
    response, which a ``Transfer-Encoding`` request forces.
    """

    __slots__ = ("method", "target", "version", "headers", "length",
                 "keep_alive", "expect_continue")

    def __init__(self, method: str, target: str, version: str,
                 headers: Dict[str, str]) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        length = _content_length(headers)
        chunked = "transfer-encoding" in headers
        self.length = 0 if chunked or length is None else length
        self.keep_alive = not chunked and _keep_alive(version, headers)
        self.expect_continue = (
            self.length > 0
            and headers.get("expect", "").lower() == "100-continue")

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    @property
    def request_line(self) -> str:
        return f"{self.method} {self.target} {self.version}"


def parse_request_head(head: bytes) -> RequestHead:
    """Parse a request head (the bytes before its ``\\r\\n\\r\\n``);
    raises :class:`ProtocolError` on anything malformed."""
    start, headers = _parse_head(head)
    parts = start.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"bad request line {start!r}")
    return RequestHead(parts[0], parts[1], parts[2], headers)


#: Interim reply to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def encode_response(status: int, body: bytes,
                    headers: Sequence[Tuple[str, str]] = (),
                    close: bool = False) -> bytes:
    """One complete response: status line, ``headers``, the body's
    ``Content-Length`` and, when ``close``, ``Connection: close``."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines += [f"{name}: {value}" for name, value in headers]
    lines.append(f"Content-Length: {len(body)}")
    if close:
        lines.append("Connection: close")
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1") + body


def encode_request(method: str, target: str, host: str,
                   body: Optional[bytes], headers: Dict[str, str]) -> bytes:
    """One complete request; a ``Content-Length`` is sent with every
    body."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}",
             "Accept-Encoding: identity"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1") + (body or b"")


class ClientConnection:
    """One client socket and its read buffer, opened on first use.

    ``sock`` is None while closed.  A response with no
    ``Content-Length`` is read to EOF; one that does not keep the
    connection alive closes it after its body.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float]) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.sock: Optional[socket.socket] = None
        self._buf = bytearray()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self._buf.clear()

    def send(self, data: bytes) -> None:
        if self.sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock = sock
        self.sock.sendall(data)

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self._buf += chunk
        return bool(chunk)

    def read_head(self) -> Tuple[int, str, str, Dict[str, str]]:
        """Status, reason, version and lower-cased headers of the next
        response.  A close before its first byte raises
        :class:`RemoteDisconnected`; a close inside the head raises a
        plain :class:`ProtocolError`, since the server may already have
        run the request."""
        end = self._buf.find(b"\r\n\r\n")
        while end < 0:
            if len(self._buf) > MAX_HEAD_BYTES:
                raise ProtocolError("response head too long")
            if not self._fill():
                if self._buf:
                    raise ProtocolError(
                        f"truncated response head {bytes(self._buf)!r}")
                raise RemoteDisconnected(
                    "remote end closed connection without response")
            end = self._buf.find(b"\r\n\r\n")
        start, headers = _parse_head(bytes(self._buf[:end]))
        del self._buf[:end + 4]
        parts = start.split(" ", 2)
        if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
                or len(parts[1]) != 3 or not parts[1].isdigit()):
            raise BadStatusLine(f"bad status line {start!r}")
        reason = parts[2] if len(parts) > 2 else ""
        return int(parts[1]), reason, parts[0], headers

    def read_body(self, version: str, headers: Dict[str, str]) -> bytes:
        if "transfer-encoding" in headers:
            raise ProtocolError("Transfer-Encoding responses are not "
                                "supported")
        length = _content_length(headers)
        if length is None:  # delimited by the server's close
            while self._fill():
                pass
            body = bytes(self._buf)
            self.close()
            return body
        while len(self._buf) < length:
            if not self._fill():
                raise ProtocolError(f"connection closed after "
                                    f"{len(self._buf)} of {length} body "
                                    f"bytes")
        body = bytes(self._buf[:length])
        del self._buf[:length]
        if not _keep_alive(version, headers):
            self.close()
        return body


# -- client transport ---------------------------------------------------------


class TransportError(RuntimeError):
    """HTTP-level failure (error status or unreachable server).

    ``retry_after`` carries the server's advertised backoff (seconds)
    when the failure was a shed (``429``) or unavailable (``503``)
    response that included one, else None.
    """

    def __init__(self, message: str, status: int = 0,
                 payload: Optional[Dict] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after


class ServeError(TransportError):
    """Server-side failure (HTTP error status or per-request failure)."""


def _parse_retry_after(header: Optional[str],
                       body: Dict) -> Optional[float]:
    """Advertised backoff from the ``Retry-After`` header (seconds
    form) or the JSON body's ``retry_after_s``, else None."""
    for candidate in (header, body.get("retry_after_s")):
        if candidate is None:
            continue
        try:
            value = float(candidate)
        except (TypeError, ValueError):
            continue
        if value >= 0:
            return value
    return None


#: Transport-level failures worth one more try: the connection died
#: before the response began (server restarting a worker, listen backlog
#: momentarily full).  Timeouts and HTTP error statuses are NOT here —
#: a slow or failing request must surface, not silently re-run.
_RETRYABLE = (ConnectionResetError, ConnectionRefusedError,
              BrokenPipeError, ConnectionAbortedError,
              RemoteDisconnected, BadStatusLine)


class HttpTransport:
    """Retrying request runner bound to one ``base_url``.

    ``on_http_error(status, body)`` lets a client claim an HTTP error
    response as a *result* (e.g. the serve server's ``422`` with
    per-request predictions): return a dict to hand it to the caller,
    or None to fall through to normal error handling.

    Connections are pooled per thread; :meth:`close` (or leaving a
    ``with`` block) closes the calling thread's.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 retries: int = 2, backoff_s: float = 0.05,
                 jitter: float = 0.25) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.jitter = jitter
        parts = urlsplit(self.base_url)
        self._netloc, self._prefix = parts.netloc, parts.path
        self._host = parts.hostname or "localhost"
        self._port = parts.port or 80
        self._local = threading.local()

    # -- retry policy ---------------------------------------------------------

    def retry_delay_s(self, attempt: int,
                      last: Optional[Exception]) -> float:
        """Delay before retry ``attempt`` (1-based): the advertised
        ``Retry-After`` when the server gave one, else jittered
        exponential backoff."""
        if isinstance(last, TransportError) and last.retry_after is not None:
            return min(last.retry_after, MAX_HONORED_RETRY_AFTER_S)
        delay = self.backoff_s * (2 ** (attempt - 1))
        return delay * (1.0 + self.jitter * random.random())

    def _connection(self) -> ClientConnection:
        """The calling thread's connection in this process."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.conn = ClientConnection(self._host, self._port, self.timeout)
            local.pid = os.getpid()
        return local.conn

    def close(self) -> None:
        """Close the calling thread's pooled connection."""
        if getattr(self._local, "pid", None) == os.getpid():
            self._local.conn.close()

    def __enter__(self) -> "HttpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, conn: ClientConnection, request: bytes
                  ) -> Tuple[int, str, str, Dict[str, str]]:
        """Send one request and read the response head.  A reused
        connection the server has since closed is reopened once."""
        reopen = conn.sock is not None
        while True:
            try:
                conn.send(request)
                return conn.read_head()
            except BaseException as exc:
                conn.close()
                if not (reopen and isinstance(exc, ConnectionError)):
                    raise
                reopen = False

    # -- transport ------------------------------------------------------------

    def _error(self, url: str, exc: Exception, what: str) -> ServeError:
        if isinstance(exc, socket.timeout):
            return ServeError(
                f"request to {url} timed out after {self.timeout}s")
        return ServeError(f"{what} {url}: {exc}")

    def request_bytes(
        self, path: str, data: Optional[bytes] = None, *,
        headers: Optional[Dict[str, str]] = None,
        on_http_error: Optional[Callable[[int, Dict], Optional[Dict]]] = None,
    ) -> Tuple[bytes, Dict[str, str]]:
        """Run one request (GET, or POST when ``data`` is not None)
        with the full retry policy; returns ``(body, headers)`` on
        success, headers lower-cased.  When ``on_http_error`` claims an
        error response, the claimed dict comes back JSON-encoded as the
        body."""
        url = self.base_url + path
        request = encode_request("GET" if data is None else "POST",
                                 self._prefix + path, self._netloc, data,
                                 headers or {})
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_delay_s(attempt, last))
            conn = self._connection()
            try:
                status, reason, version, reply_headers = self._exchange(
                    conn, request)
            except _RETRYABLE as exc:
                last = exc
                continue
            except (OSError, ProtocolError) as exc:
                raise self._error(url, exc, "cannot reach") from None
            try:
                raw = conn.read_body(version, reply_headers)
            except (OSError, ProtocolError) as exc:
                conn.close()  # the response began: never re-send a request
                raise self._error(url, exc, "lost the response from") from None
            if status < 400:
                return raw, reply_headers
            try:
                body = json.loads(raw)
            except (json.JSONDecodeError, ValueError):
                body = {}
            if on_http_error is not None:
                claimed = on_http_error(status, body)
                if claimed is not None:
                    return json.dumps(claimed).encode(), {}
            retry_after = _parse_retry_after(
                reply_headers.get("retry-after"), body)
            err = ServeError(
                body.get("error", f"HTTP Error {status}: {reason}"),
                status=status, payload=body, retry_after=retry_after)
            if status in (429, 503) and retry_after is not None:
                last = err  # honor the advertised backoff and retry
                continue
            raise err
        if isinstance(last, ServeError):
            raise last  # shed on every attempt: surface the final 429/503
        raise ServeError(
            f"cannot reach {url} after {self.retries + 1} attempt(s): "
            f"{last}") from None

    def call(
        self, path: str, payload: Optional[Dict] = None, *,
        on_http_error: Optional[Callable[[int, Dict], Optional[Dict]]] = None,
    ) -> Dict:
        """JSON request/response on top of :meth:`request_bytes`."""
        data = None
        send_headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            send_headers["Content-Type"] = "application/json"
        body, _ = self.request_bytes(path, data, headers=send_headers,
                                     on_http_error=on_http_error)
        return json.loads(body)

