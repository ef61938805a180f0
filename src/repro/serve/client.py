"""Stdlib client for a running ``repro serve`` instance.

:class:`ServeClient` speaks JSON over the raw-socket keep-alive
transport in :mod:`repro.serve.http`, so scripts (and the CI smoke
job) can query the server without any third-party HTTP dependency:

>>> client = ServeClient("127.0.0.1", 8000)
>>> client.health()["status"]
'healthy'
>>> client.predict(fu="int_add", a=3, b=4, voltage=0.9, temperature=25.0)
{'ok': True, 'delay_ps': ..., ...}

A client keeps one persistent (HTTP/1.1 keep-alive) socket per calling
thread and process; each request is one ``sendall`` and its reply is
read with the same small codec the server parses requests with.
:meth:`ServeClient.close` or a ``with`` block closes the calling
thread's socket.

Resilience behavior: every predict request carries a ``deadline_ms``
budget derived from the client timeout (so the server can drop work
this client has already given up on); a ``429``/``503`` that advertises
``Retry-After`` is retried after the advertised delay (capped) instead
of failing immediately; and transport-reset backoff is jittered so a
fleet of shed clients does not re-converge on the same instant.

The retry/backoff plumbing itself lives in
:class:`~repro.serve.http.HttpTransport`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .http import HttpTransport, ServeError


def _claim_predictions(status: int, body: Dict) -> Optional[Dict]:
    # 422 carries per-request results; surface them to the caller
    if status == 422 and "predictions" in body:
        return body
    return None


class ServeClient:
    """JSON client bound to one server address.

    Every call carries a per-request ``timeout``; transport resets are
    retried up to ``retries`` times with exponential backoff starting
    at ``backoff_s`` (jittered by up to ``jitter`` of itself, so a
    thundering herd of retriers decorrelates).  ``429``/``503``
    responses that advertise ``Retry-After`` are retried after the
    advertised delay (capped at
    :data:`~repro.serve.http.MAX_HONORED_RETRY_AFTER_S`);
    other HTTP error statuses and timeouts are never retried.

    ``deadline_ms`` is attached to every predict request that does not
    set its own: by default the client's ``timeout`` (there is no
    point computing an answer this client will no longer read);
    pass ``deadline_ms=0`` to disable.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8000,
                 timeout: float = 30.0, retries: int = 2,
                 backoff_s: float = 0.05, jitter: float = 0.25,
                 deadline_ms: Optional[float] = None) -> None:
        if deadline_ms is not None and deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0 (0 disables)")
        self._transport = HttpTransport(
            f"http://{host}:{port}", timeout=timeout, retries=retries,
            backoff_s=backoff_s, jitter=jitter)
        if deadline_ms is None:
            deadline_ms = timeout * 1e3 if timeout else 0.0
        self.deadline_ms = float(deadline_ms)

    @property
    def base_url(self) -> str:
        return self._transport.base_url

    @property
    def timeout(self) -> float:
        return self._transport.timeout

    @property
    def retries(self) -> int:
        return self._transport.retries

    @property
    def backoff_s(self) -> float:
        return self._transport.backoff_s

    @property
    def jitter(self) -> float:
        return self._transport.jitter

    # -- transport ------------------------------------------------------------

    def close(self) -> None:
        """Close the calling thread's pooled connection."""
        self._transport.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _retry_delay_s(self, attempt: int,
                       last: Optional[Exception]) -> float:
        return self._transport.retry_delay_s(attempt, last)

    def _call(self, path: str, payload: Optional[Dict] = None) -> Dict:
        return self._transport.call(path, payload,
                                    on_http_error=_claim_predictions)

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

    def configure(self, batch_window_ms: Optional[float] = None,
                  max_batch: Optional[int] = None,
                  max_queue: Optional[int] = None,
                  default_deadline_ms: Optional[float] = None,
                  refresh_models: bool = False) -> Dict:
        payload: Dict = {}
        if batch_window_ms is not None:
            payload["batch_window_ms"] = batch_window_ms
        if max_batch is not None:
            payload["max_batch"] = max_batch
        if max_queue is not None:
            payload["max_queue"] = max_queue
        if default_deadline_ms is not None:
            payload["default_deadline_ms"] = default_deadline_ms
        if refresh_models:
            payload["refresh_models"] = True
        return self._call("/config", payload)

    def predict_many(self, requests: Sequence[Dict]) -> List[Dict]:
        """Batch predict; returns per-request dicts aligned with input.

        Requests without their own ``deadline_ms`` inherit the
        client's (see the class docstring).
        """
        reqs = [dict(r) for r in requests]
        if self.deadline_ms:
            for r in reqs:
                r.setdefault("deadline_ms", self.deadline_ms)
        body = self._call("/predict", {"requests": reqs})
        return body["predictions"]

    def predict(self, **request) -> Dict:
        """Single predict; raises :class:`ServeError` on failure."""
        result = self.predict_many([request])[0]
        if not result.get("ok"):
            raise ServeError(result.get("message", "prediction failed"),
                             payload=result)
        return result
