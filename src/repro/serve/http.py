"""Shared stdlib HTTP plumbing.  Both servers subclass the keep-alive
:class:`JsonServer`; every wire client runs on :class:`HttpTransport`,
so the retry policy lives in one place:

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
* errors raise the caller's ``error_cls`` (a :class:`TransportError`).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit

#: Never honor an advertised Retry-After longer than this — a confused
#: (or hostile) server must not park the client for minutes.
MAX_HONORED_RETRY_AFTER_S = 5.0


class JsonHandler(BaseHTTPRequestHandler):
    """Keep-alive request handler shared by both servers."""

    server: "JsonServer"
    protocol_version = "HTTP/1.1"
    #: headers and body are two writes: Nagle + delayed ACK stall each
    disable_nagle_algorithm = True

    #: bound the time a silent connection can pin a handler thread, so
    #: graceful close (which joins handler threads) cannot hang forever
    timeout = 60.0

    def parse_request(self) -> bool:
        self._body_read = False
        draining = self.server._mark_idle(self.connection, False)
        if not super().parse_request():
            return False
        if draining:  # arrived after shutdown began: refuse, don't run
            self._send_json({"error": "server is shutting down",
                             "status": "draining"}, 503)
            return False
        return True

    def handle_one_request(self) -> None:
        super().handle_one_request()
        if self.server._mark_idle(self.connection, True):
            self.close_connection = True

    def end_headers(self) -> None:
        # unread body bytes would parse as the next request line
        if not self.close_connection and (self.server._draining or (
                not self._body_read and ("Transfer-Encoding" in self.headers
                or self.headers.get("Content-Length", "0") != "0"))):
            self.send_header("Connection", "close")  # sets close_connection
        super().end_headers()

    def _send_json(self, payload: Dict, status: int = 200,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length") or "0"
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"invalid Content-Length {length!r}")
        self._body_read = True
        return self.rfile.read(int(length))

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        if self.server.verbose:
            super().log_message(fmt, *args)


class JsonServer(ThreadingHTTPServer):
    """Threading server that tracks its keep-alive connections.

    ``shutdown()`` answers new requests ``503`` + ``Connection: close``,
    runs the subclass's :meth:`drain`, then wakes idle keep-alive
    readers; ``server_close`` joins handler threads, so every accepted
    request gets its response before the socket goes away.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(self, address: Tuple[str, int], handler: type,
                 verbose: bool = False) -> None:
        self.verbose = verbose
        self._draining = self._closed = False
        #: live connection -> idle (waiting for its next request line)
        self._idle: Dict[socket.socket, bool] = {}
        self._idle_lock = threading.Lock()
        super().__init__(address, handler)

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            self._idle[request] = True
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._idle_lock:
            self._idle.pop(request, None)
        super().shutdown_request(request)

    def _mark_idle(self, request, idle: bool) -> bool:
        """Record a connection's state; returns whether draining."""
        with self._idle_lock:
            if request in self._idle:
                self._idle[request] = idle
            return self._draining

    def drain(self) -> None:
        """Finish in-flight work (subclass hook)."""

    def close(self) -> None:
        """Graceful, idempotent stop: shutdown, then server_close."""
        if not self._closed:
            self._closed = True
            self.shutdown()
            self.server_close()

    def shutdown(self) -> None:
        """Stop accepting, drain, then wake idle keep-alive readers."""
        with self._idle_lock:
            self._draining = True
        super().shutdown()
        self.drain()
        with self._idle_lock:
            for conn in [c for c, idle in self._idle.items() if idle]:
                try:
                    conn.shutdown(socket.SHUT_RD)  # readline returns EOF
                except OSError:
                    pass


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
              http.client.RemoteDisconnected, http.client.BadStatusLine)


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
                 jitter: float = 0.25,
                 error_cls: type = TransportError) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if not issubclass(error_cls, TransportError):
            raise TypeError("error_cls must subclass TransportError")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.jitter = jitter
        self.error_cls = error_cls
        parts = urlsplit(self.base_url)
        self._netloc, self._prefix = parts.netloc, parts.path
        self._conn_cls = (http.client.HTTPSConnection
                          if parts.scheme == "https"
                          else http.client.HTTPConnection)
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

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection in this process."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.conn = self._conn_cls(self._netloc, timeout=self.timeout)
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

    def _exchange(self, method: str, path: str, data: Optional[bytes],
                  headers: Dict[str, str]) -> http.client.HTTPResponse:
        """Send one request and read the response head.  A reused
        connection the server has since closed is reopened once."""
        conn = self._connection()
        reopen = conn.sock is not None
        while True:
            try:
                conn.request(method, self._prefix + path, data, headers)
                return conn.getresponse()
            except BaseException as exc:
                conn.close()
                if not (reopen and isinstance(exc, ConnectionError)):
                    raise
                reopen = False

    # -- transport ------------------------------------------------------------

    def _error(self, url: str, exc: Exception, what: str) -> TransportError:
        if isinstance(exc, socket.timeout):
            return self.error_cls(
                f"request to {url} timed out after {self.timeout}s")
        return self.error_cls(f"{what} {url}: {exc}")

    def request_bytes(
        self, path: str, data: Optional[bytes] = None, *,
        headers: Optional[Dict[str, str]] = None,
        on_http_error: Optional[Callable[[int, Dict], Optional[Dict]]] = None,
    ) -> Tuple[bytes, Dict[str, str]]:
        """Run one request (GET, or POST when ``data`` is not None)
        with the full retry policy; returns ``(body, headers)`` on
        success.  When ``on_http_error`` claims an error response, the
        claimed dict comes back JSON-encoded as the body."""
        url = self.base_url + path
        method = "GET" if data is None else "POST"
        send_headers = dict(headers or {})
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_delay_s(attempt, last))
            try:
                response = self._exchange(method, path, data, send_headers)
            except _RETRYABLE as exc:
                last = exc
                continue
            except (OSError, http.client.HTTPException) as exc:
                raise self._error(url, exc, "cannot reach") from None
            try:
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                self.close()  # the response began: never re-send a request
                raise self._error(url, exc, "lost the response from") from None
            reply_headers = {k.lower(): v for k, v in response.getheaders()}
            if response.status < 400:
                return raw, reply_headers
            try:
                body = json.loads(raw)
            except (json.JSONDecodeError, ValueError):
                body = {}
            if on_http_error is not None:
                claimed = on_http_error(response.status, body)
                if claimed is not None:
                    return json.dumps(claimed).encode(), {}
            retry_after = _parse_retry_after(
                reply_headers.get("retry-after"), body)
            err = self.error_cls(
                body.get("error",
                         f"HTTP Error {response.status}: {response.reason}"),
                status=response.status, payload=body,
                retry_after=retry_after)
            if response.status in (429, 503) and retry_after is not None:
                last = err  # honor the advertised backoff and retry
                continue
            raise err
        if isinstance(last, self.error_cls):
            raise last  # shed on every attempt: surface the final 429/503
        raise self.error_cls(
            f"cannot reach {url} after {self.retries + 1} attempt(s): "
            f"{last}") from None

    def call(
        self, path: str, payload: Optional[Dict] = None, *,
        headers: Optional[Dict[str, str]] = None,
        on_http_error: Optional[Callable[[int, Dict], Optional[Dict]]] = None,
    ) -> Dict:
        """JSON request/response on top of :meth:`request_bytes`."""
        data = None
        send_headers = {"Accept": "application/json", **(headers or {})}
        if payload is not None:
            data = json.dumps(payload).encode()
            send_headers["Content-Type"] = "application/json"
        body, _ = self.request_bytes(path, data, headers=send_headers,
                                     on_http_error=on_http_error)
        return json.loads(body)
