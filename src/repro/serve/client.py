"""Stdlib client for a running ``repro serve`` instance.

:class:`ServeClient` speaks JSON over raw keep-alive sockets, using the
small codec in :mod:`repro.serve.http` that the server parses requests
with, so scripts (and the CI smoke job) can query the server without
any third-party HTTP dependency:

>>> client = ServeClient("127.0.0.1", 8000)
>>> client.health()["status"]
'healthy'
>>> client.predict(fu="int_add", a=3, b=4, voltage=0.9, temperature=25.0)
{'ok': True, 'delay_ps': ..., ...}

Each request is one ``sendall``; its reply is read back with the same
codec.  The retry policy:

* one persistent (HTTP/1.1 keep-alive) socket per calling thread and
  process (a forked child never writes to its parent's socket); a
  *reused* socket that fails before any response byte — the server
  closed it while idle — is reopened once, not counted as a retry;
* transport resets are retried up to ``retries`` times with jittered
  exponential backoff, so a fleet of shed clients does not re-converge
  on the same instant; timeouts, HTTP error statuses and failures after
  a response has begun are **not** retried;
* a ``429``/``503`` advertising ``Retry-After`` (header or JSON
  ``retry_after_s``) is retried after that delay, capped at
  :data:`MAX_HONORED_RETRY_AFTER_S`;
* a ``422`` carrying per-request ``predictions`` is a result, not an
  error; every other failure raises :class:`ServeError`.

Every predict request also carries a ``deadline_ms`` budget derived
from the client timeout, so the server can drop work this client has
already given up on.  :meth:`ServeClient.close` or a ``with`` block
closes the calling thread's socket.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .http import (
    BadStatusLine,
    ClientConnection,
    ProtocolError,
    RemoteDisconnected,
    encode_request,
)

#: Never honor an advertised Retry-After longer than this — a confused
#: (or hostile) server must not park the client for minutes.
MAX_HONORED_RETRY_AFTER_S = 5.0

#: Transport-level failures worth one more try: the connection died
#: before the response began (server restarting, listen backlog
#: momentarily full).  Timeouts and HTTP error statuses are NOT here —
#: a slow or failing request must surface, not silently re-run.
_RETRYABLE = (ConnectionResetError, ConnectionRefusedError,
              BrokenPipeError, ConnectionAbortedError,
              RemoteDisconnected, BadStatusLine)

#: The list a successful reply of each route must carry; callers
#: index it without a second check.
_REPLY_LISTS = {"/models": "models", "/predict": "predictions"}

_GET_HEADERS = {"Accept": "application/json"}
_POST_HEADERS = {"Accept": "application/json",
                 "Content-Type": "application/json"}


class ServeError(RuntimeError):
    """A failed request: an HTTP error status, a per-request failure,
    or an unreachable server.

    ``payload`` is the server's JSON error object (``{}`` when it sent
    none); ``retry_after`` carries the advertised backoff (seconds) of
    a ``429``/``503`` that included one, else None.
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


class ServeClient:
    """JSON client bound to one server address.

    Every call carries a per-request ``timeout``; transport resets are
    retried up to ``retries`` times with exponential backoff starting
    at ``backoff_s`` (jittered by up to ``jitter`` of itself).  See the
    module docstring for the full retry policy.

    ``deadline_ms`` is attached to every predict request that does not
    set its own: by default the client's ``timeout`` (there is no
    point computing an answer this client will no longer read);
    pass ``deadline_ms=0`` to disable.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8000,
                 timeout: float = 30.0, retries: int = 2,
                 backoff_s: float = 0.05, jitter: float = 0.25,
                 deadline_ms: Optional[float] = None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if deadline_ms is not None and deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0 (0 disables)")
        self.host, self.port = host, port
        self._netloc = f"{host}:{port}"
        self.base_url = f"http://{self._netloc}"
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.jitter = jitter
        if deadline_ms is None:
            deadline_ms = timeout * 1e3 if timeout else 0.0
        self.deadline_ms = float(deadline_ms)
        self._local = threading.local()

    # -- connection -----------------------------------------------------------

    def _connection(self) -> ClientConnection:
        """The calling thread's connection in this process."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.conn = ClientConnection(self.host, self.port, self.timeout)
            local.pid = os.getpid()
        return local.conn

    def close(self) -> None:
        """Close the calling thread's connection."""
        if getattr(self._local, "pid", None) == os.getpid():
            self._local.conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _exchange(conn: ClientConnection, request: bytes
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

    # -- retry policy ---------------------------------------------------------

    def _retry_delay_s(self, attempt: int,
                       last: Optional[Exception]) -> float:
        """Delay before retry ``attempt`` (1-based): the advertised
        ``Retry-After`` when the server gave one, else jittered
        exponential backoff."""
        if isinstance(last, ServeError) and last.retry_after is not None:
            return min(last.retry_after, MAX_HONORED_RETRY_AFTER_S)
        delay = self.backoff_s * (2 ** (attempt - 1))
        return delay * (1.0 + self.jitter * random.random())

    def _error(self, path: str, exc: Exception, what: str) -> ServeError:
        url = self.base_url + path
        if isinstance(exc, socket.timeout):
            return ServeError(
                f"request to {url} timed out after {self.timeout}s")
        return ServeError(f"{what} {url}: {exc}")

    def _call(self, path: str, payload: Optional[Dict] = None) -> Dict:
        """One JSON request (GET, or POST of ``payload``) under the
        retry policy; returns the decoded JSON object.  A reply to a
        route in :data:`_REPLY_LISTS` without its list is a
        :class:`ServeError` carrying the status."""
        if payload is None:
            request = encode_request("GET", path, self._netloc, None,
                                     _GET_HEADERS)
        else:
            request = encode_request("POST", path, self._netloc,
                                     json.dumps(payload).encode(),
                                     _POST_HEADERS)
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self._retry_delay_s(attempt, last))
            conn = self._connection()
            try:
                status, reason, version, headers = self._exchange(
                    conn, request)
            except _RETRYABLE as exc:
                last = exc
                continue
            except (OSError, ProtocolError) as exc:
                raise self._error(path, exc, "cannot reach") from None
            try:
                raw = conn.read_body(version, headers)
            except (OSError, ProtocolError) as exc:
                conn.close()  # the response began: never re-send a request
                raise self._error(path, exc, "lost the response from") \
                    from None
            try:
                body = json.loads(raw)
            except ValueError:
                body = None
            if status < 400:
                if not isinstance(body, dict):  # e.g. a proxy's "ok"
                    raise ServeError(
                        f"HTTP {status} reply from {self.base_url + path} "
                        "is not a JSON object", status=status)
                return self._checked(path, status, body)
            if not isinstance(body, dict):  # e.g. a proxy's error page
                body = {}
            if status == 422 and "predictions" in body:
                # per-request results for the caller
                return self._checked(path, status, body)
            retry_after = _parse_retry_after(headers.get("retry-after"), body)
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
            f"cannot reach {self.base_url + path} after "
            f"{self.retries + 1} attempt(s): {last}") from None

    def _checked(self, path: str, status: int, body: Dict) -> Dict:
        field = _REPLY_LISTS.get(path)
        if field is not None and not isinstance(body.get(field), list):
            raise ServeError(f"reply from {self.base_url + path} has no "
                             f"{field} list", status=status, payload=body)
        return body

    # -- endpoints ------------------------------------------------------------

    def health(self) -> Dict:
        """Health payload even when the node is not healthy: a
        draining server answers 503 with the same JSON body,
        which callers still want (that *is* the health report)."""
        try:
            return self._call("/health")
        except ServeError as exc:
            if exc.payload.get("status"):
                return exc.payload
            raise

    def stats(self) -> Dict:
        return self._call("/stats")

    def models(self) -> List[Dict]:
        return self._call("/models")["models"]

    def predict_many(self, requests: Sequence[Dict]) -> List[Dict]:
        """Batch predict; returns per-request dicts aligned with input.

        Requests without their own ``deadline_ms`` inherit the
        client's (see the class docstring).
        """
        reqs = [dict(r) for r in requests]
        if self.deadline_ms:
            for r in reqs:
                r.setdefault("deadline_ms", self.deadline_ms)
        return self._call("/predict", {"requests": reqs})["predictions"]

    def predict(self, **request) -> Dict:
        """Single predict; raises :class:`ServeError` on failure."""
        result = self.predict_many([request])[0]
        if not result.get("ok"):
            raise ServeError(result.get("message", "prediction failed"),
                             payload=result)
        return result
