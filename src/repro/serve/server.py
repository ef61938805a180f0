"""Stdlib HTTP/JSON front end over the prediction engine.

``repro serve`` starts a :class:`PredictionServer`: a keep-alive HTTP
server whose handler threads do **not** call the engine directly —
they enqueue onto a :class:`MicroBatcher`, a single consumer thread
that pushes each batch through one vectorized
:meth:`~repro.serve.engine.PredictionEngine.predict_batch`.  While
another ``/predict`` is on its way in, the batch waits for it, up to
``batch_window_ms`` (or ``max_batch``); otherwise it runs at once.
Concurrent connections therefore share forest passes, and a lone
request never waits.

The request path is *bounded end to end*: the micro-batch queue holds
at most ``max_queue`` requests — an arrival that would overflow it is
**shed** immediately with ``429`` + a ``Retry-After`` estimate instead
of growing the queue (the accept loop never blocks on overload) — and
every request carries a **deadline** (its own ``deadline_ms``, else
the server's ``default_deadline_ms``).  A request still queued when
its deadline passes is answered ``504 deadline exceeded`` at dequeue,
never silently computed.

Endpoints (all JSON):

* ``POST /predict`` — body ``{"requests": [...]}`` or a single request
  object; returns per-request predictions in order (``429`` when shed,
  ``504`` when every request's deadline expired).
* ``GET  /models``  — published registry records.
* ``GET  /health``  — ``healthy`` / ``draining``; only ``healthy`` is
  a 200, so load balancers stop routing to a node that is leaving.
* ``GET  /stats``   — engine + batching counters (shed / expired) and
  current config.
* ``POST /config``  — adjust ``batch_window_ms`` / ``max_batch`` /
  ``max_queue`` / ``default_deadline_ms`` at runtime.
* ``POST /models/refresh`` — re-resolve published models.

The server runs one in-process engine: the forest answers tens of
thousands of requests per second while the HTTP front end tops out
near a thousand, so fanning batches out to worker processes would
only add hops.  An optional
:class:`~repro.serve.requestlog.RequestLog` records every executed
batch for deterministic replay.

Shutdown is graceful: ``close()`` (or SIGTERM via ``repro serve``)
stops accepting, drains the micro-batcher queue, answers every
in-flight request (later arrivals get ``503``), and only then closes
the socket.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Dict, List, Optional, Sequence

from .engine import (
    Prediction,
    PredictionEngine,
    PredictRequest,
    expired_prediction,
)
from .http import JsonHandler, JsonServer


class Deadline:
    """An absolute expiry instant on the monotonic clock.

    Constructed from a relative budget (:meth:`after_ms`) when a
    request is accepted; the batcher asks :meth:`expired` against that
    fixed instant, so time spent queued counts against the request's
    budget.
    """

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = at

    @classmethod
    def after_ms(cls, ms: float) -> "Deadline":
        return cls(time.monotonic() + float(ms) / 1e3)

    def remaining_s(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining_s() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(in {self.remaining_s():+.3f}s)"


class ConfigError(ValueError):
    """A rejected runtime-config value; ``field`` names the culprit."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit_many` when accepting the
    requests would overflow ``max_queue`` — the HTTP layer turns it
    into ``429`` with a ``Retry-After`` header."""

    def __init__(self, n_shed: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue full: shed {n_shed} request(s), retry after "
            f"{retry_after_s:.3f}s")
        self.n_shed = n_shed
        self.retry_after_s = retry_after_s


#: runtime knob -> (integer?, minimum, note on the minimum)
_KNOBS = {"batch_window_ms": (False, 0, ""), "max_batch": (True, 1, ""),
          "max_queue": (True, 1, ""),
          "default_deadline_ms": (False, 0, " (0 disables)")}


def _check_knob(field: str, value):
    integer, minimum, note = _KNOBS[field]
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise ConfigError(field, f"{field} must be {kind}, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(field, f"{field} must be finite, got {value!r}")
    if value < minimum:
        raise ConfigError(field, f"{field} must be >= {minimum}{note}, "
                                 f"got {value!r}")
    return value if integer else float(value)


class _Pending:
    """One queued request awaiting its batch result."""

    __slots__ = ("request", "done", "result", "deadline")

    def __init__(self, request: PredictRequest,
                 deadline: Optional[Deadline] = None) -> None:
        self.request = request
        self.done = threading.Event()
        self.result: Optional[Prediction] = None
        self.deadline = deadline

    def finish(self, result: Prediction) -> None:
        self.result = result
        self.done.set()


class MicroBatcher:
    """Collects requests across threads into engine-sized batches.

    The queue is bounded (``max_queue``): a submission that would
    overflow it raises :class:`QueueFullError` *immediately* — load is
    shed at the door, handler threads never block on overload, and the
    queue can never grow without bound.  Every queued request carries a
    deadline (its own ``deadline_ms`` or the batcher's
    ``default_deadline_ms``); expired requests are answered
    ``deadline exceeded`` at dequeue instead of executed.

    ``batch_window_ms`` is an upper bound: the window stays open only
    while a caller is between :meth:`arrive` and the enqueueing
    ``submit_many(..., arrived=True)`` (or :meth:`depart`).
    """

    def __init__(self, engine: PredictionEngine,
                 batch_window_ms: float = 2.0, max_batch: int = 64,
                 request_log=None, max_queue: int = 256,
                 default_deadline_ms: float = 0.0) -> None:
        self.engine = engine
        self.request_log = request_log
        self.configure(batch_window_ms=batch_window_ms, max_batch=max_batch,
                       max_queue=max_queue,
                       default_deadline_ms=default_deadline_ms)
        self._cond = threading.Condition()
        self._log_lock = threading.Lock()
        self._queue: List[_Pending] = []
        self._arriving = 0
        self._stopped = False
        self.n_batches = 0
        self.n_requests = 0
        self.largest_batch = 0
        self.n_shed = 0
        self.n_expired = 0
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-serve-batcher")
        self._thread.start()

    def configure(self, batch_window_ms: Optional[float] = None,
                  max_batch: Optional[int] = None,
                  max_queue: Optional[int] = None,
                  default_deadline_ms: Optional[float] = None) -> None:
        """Runtime-adjustable batching + overload knobs.

        Validates everything before applying anything (raising
        :class:`ConfigError` naming the offending field), so a
        rejected call never half-applies.
        """
        given = {"batch_window_ms": batch_window_ms, "max_batch": max_batch,
                 "max_queue": max_queue,
                 "default_deadline_ms": default_deadline_ms}
        checked = {field: _check_knob(field, value)
                   for field, value in given.items() if value is not None}
        for field, value in checked.items():
            setattr(self, field, value)

    def _deadline_for(self, request: PredictRequest) -> Optional[Deadline]:
        budget = (request.deadline_ms if request.deadline_ms is not None
                  else self.default_deadline_ms)
        return Deadline.after_ms(budget) if budget else None

    def _retry_after_s(self, queue_len: int) -> float:
        """Honest backoff hint for a shed client: roughly how long the
        current queue takes to drain at the configured batch cadence."""
        batches_ahead = max(1, math.ceil(queue_len / self.max_batch))
        return round(batches_ahead * max(self.batch_window_ms, 1.0) / 1e3
                     + 0.01, 3)

    def _log_dropped(self, requests: List[PredictRequest],
                     reason: str) -> None:
        if self.request_log is None or not requests:
            return
        with self._log_lock:
            try:
                self.request_log.append_dropped(requests, reason)
            except OSError:  # a full disk must not take serving down
                pass

    def arrive(self) -> None:
        """Count the caller as on its way in (see the class docstring)."""
        with self._cond:
            self._arriving += 1

    def depart(self) -> None:
        """Drop an :meth:`arrive` that will not reach ``submit_many``."""
        with self._cond:
            self._arriving -= 1
            self._cond.notify()

    def submit_many(self, requests: Sequence[PredictRequest],
                    arrived: bool = False) -> List[Prediction]:
        """Enqueue and block until every request's batch has run.

        Raises :class:`QueueFullError` without blocking when the whole
        submission does not fit under ``max_queue`` (all-or-nothing:
        a multi-request body is shed as a unit, so its per-stream
        history chain is never half-applied).  ``arrived=True`` ends
        the caller's :meth:`arrive`, whatever the outcome.
        """
        with self._cond:
            if arrived:
                self._arriving -= 1
            self._cond.notify()
            pending = [_Pending(r, self._deadline_for(r)) for r in requests]
            if self._stopped:
                raise RuntimeError("batcher is stopped")
            if len(self._queue) + len(pending) > self.max_queue:
                self.n_shed += len(pending)
                retry_after = self._retry_after_s(len(self._queue))
                shed = [p.request for p in pending]
            else:
                shed = None
                self._queue.extend(pending)
        if shed is not None:
            self._log_dropped(shed, "shed")
            raise QueueFullError(len(shed), retry_after)
        for p in pending:
            p.done.wait()
        return [p.result for p in pending]  # type: ignore[misc]

    def stop(self) -> None:
        """Stop accepting and drain: every already-queued request is
        answered before the consumer thread exits (new ``submit_many``
        calls are rejected immediately)."""
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join()
        if self.request_log is not None:
            self.request_log.close()

    def _drain(self) -> List[_Pending]:
        batch = self._queue[:self.max_batch]
        del self._queue[:len(batch)]
        return batch

    def _sweep_expired(self) -> List[_Pending]:
        """Pull every already-expired request off the queue (caller
        holds ``_cond``).  Answering them here — before the batch is
        formed — keeps a burst of doomed requests from occupying batch
        slots that live requests could use."""
        expired = [p for p in self._queue
                   if p.deadline is not None and p.deadline.expired()]
        if expired:
            dead = set(id(p) for p in expired)
            self._queue = [p for p in self._queue if id(p) not in dead]
        return expired

    def _answer_expired(self, expired: List[_Pending]) -> None:
        if not expired:
            return
        self.n_expired += len(expired)
        for p in expired:
            p.finish(expired_prediction())
        self._log_dropped([p.request for p in expired], "expired")

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
                # hold the window open only for requests on their way in
                deadline = time.monotonic() + self.batch_window_ms / 1e3
                while (self._arriving and len(self._queue) < self.max_batch
                       and not self._stopped):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                expired = self._sweep_expired()
                batch = self._drain()
            self._answer_expired(expired)
            if not batch:
                continue
            requests = [p.request for p in batch]
            try:
                results = self.engine.predict_batch(requests)
            except Exception as exc:  # engine bug: fail the batch, live on
                results = [Prediction(ok=False, message=f"engine error: {exc}")
                           for _ in batch]
            if self.request_log is not None:
                with self._log_lock:
                    try:
                        self.request_log.append_batch(requests, results)
                    except OSError:  # full disk must not take serving down
                        pass
            self.n_batches += 1
            self.n_requests += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
            for pending, result in zip(batch, results):
                pending.finish(result)

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stats_dict(self) -> Dict:
        return {"batches": self.n_batches, "requests": self.n_requests,
                "largest_batch": self.largest_batch,
                "mean_batch": (self.n_requests / self.n_batches
                               if self.n_batches else 0.0),
                "shed": self.n_shed,
                "expired": self.n_expired,
                "queue_depth": self.queue_depth(),
                "batch_window_ms": self.batch_window_ms,
                "max_batch": self.max_batch,
                "max_queue": self.max_queue,
                "default_deadline_ms": self.default_deadline_ms}


class _Handler(JsonHandler):
    server: "PredictionServer"

    def _read_json(self) -> Dict:
        raw = self._read_body() or b"{}"
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("JSON body must be an object")
        return data

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0]
        if path == "/health":
            payload = self.server.health()
            # only "healthy" is a 200 so load balancers eject the node
            status = 200 if payload["status"] == "healthy" else 503
            self._send_json(payload, status)
        elif path == "/models":
            self._send_json({"models": self.server.model_records()})
        elif path == "/stats":
            self._send_json(self.server.stats())
        else:
            self._send_json({"error": f"unknown path {path!r}"}, 404)

    def do_POST(self) -> None:
        path = self.path.split("?", 1)[0]
        if path == "/predict":
            self._predict()
            return
        try:
            data = self._read_json()
        except ValueError as exc:
            self._send_json({"error": str(exc)}, 400)
            return
        if path == "/config":
            self._config(data)
        elif path == "/models/refresh":
            self.server.refresh_calls += 1
            self.server.engine.refresh()
            self._send_json({"ok": True})
        else:
            self._send_json({"error": f"unknown path {path!r}"}, 404)

    def _predict(self) -> None:
        batcher = self.server.batcher
        batcher.arrive()  # the batch window waits for us until we enqueue
        try:
            data = self._read_json()
            raw = data["requests"] if "requests" in data else [data]
            if not isinstance(raw, list) or not raw:
                raise ValueError("'requests' must be a non-empty list")
            requests = [PredictRequest.from_dict(item) for item in raw]
        except BaseException as exc:
            batcher.depart()
            if not isinstance(exc, (TypeError, ValueError)):
                raise
            self._send_json({"error": str(exc)}, 400)
            return
        try:
            results = batcher.submit_many(requests, arrived=True)
        except QueueFullError as exc:  # overload: shed with a backoff hint
            self._send_json(
                {"error": "queue full, request shed",
                 "retry_after_s": exc.retry_after_s},
                429, headers={"Retry-After": f"{exc.retry_after_s:.3f}"})
            return
        except RuntimeError:  # shutting down: batcher drains, no new work
            self._send_json({"error": "server is shutting down"}, 503)
            return
        if all(r.ok for r in results):
            status = 200
        elif all(r.expired for r in results):
            status = 504  # every request outlived its deadline
        else:
            status = 422
        self._send_json(
            {"predictions": [r.as_dict() for r in results]}, status)

    def _config(self, data: Dict) -> None:
        try:
            self.server.batcher.configure(
                batch_window_ms=data.get("batch_window_ms"),
                max_batch=data.get("max_batch"),
                max_queue=data.get("max_queue"),
                default_deadline_ms=data.get("default_deadline_ms"))
        except ConfigError as exc:
            self._send_json({"error": str(exc), "field": exc.field}, 400)
            return
        if data.get("refresh_models"):
            self.server.engine.refresh()
        self._send_json({"ok": True,
                         "config": self.server.batcher.stats_dict()})


class PredictionServer(JsonServer):
    """HTTP server owning one engine + one micro-batcher.

    ``port=0`` binds an ephemeral port (see :attr:`address`); call
    :meth:`serve_forever` (blocking) or :meth:`start_background`.
    Stop with :meth:`close` (graceful: drains queued requests, then
    closes the socket and the engine).
    """

    def __init__(self, engine: PredictionEngine, host: str = "127.0.0.1",
                 port: int = 8000, batch_window_ms: float = 2.0,
                 max_batch: int = 64, verbose: bool = False,
                 request_log=None, max_queue: int = 256,
                 default_deadline_ms: float = 0.0) -> None:
        self.engine = engine
        self.batcher = MicroBatcher(engine, batch_window_ms=batch_window_ms,
                                    max_batch=max_batch,
                                    request_log=request_log,
                                    max_queue=max_queue,
                                    default_deadline_ms=default_deadline_ms)
        #: manual POST /models/refresh count — with push rollout active
        #: this should stay 0 (the CI smoke asserts exactly that)
        self.refresh_calls = 0
        self._started = time.monotonic()
        super().__init__((host, port), _Handler, verbose=verbose)

    @property
    def request_log(self):
        return self.batcher.request_log

    def drain(self) -> None:
        """Answer in-flight + queued requests."""
        self.batcher.stop()

    def close(self) -> None:
        """Graceful full stop (idempotent): drain, close the socket, then
        close the engine."""
        super().close()
        self.engine.close()

    # -- endpoint payloads ----------------------------------------------------

    def health(self) -> Dict:
        registry = self.engine.registry
        leaving = self._draining or self._closed
        return {"status": "draining" if leaving else "healthy",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "models_published": 0 if registry is None else len(registry),
                "sim_fallback": self.engine.sim_fallback,
                "kind": self.engine.kind}

    def model_records(self) -> List[Dict]:
        registry = self.engine.registry
        if registry is None:
            return []
        return [{"model_id": r.model_id, "fu": r.fu, "kind": r.kind,
                 "version": r.version, "key": r.key,
                 "feature_spec": r.feature_spec, "corners": r.corners,
                 "train_stream": r.train_stream, "created": r.created,
                 "size_bytes": r.size_bytes}
                for r in registry.list_models()]

    def stats(self) -> Dict:
        return {"engine": self.engine.stats_dict(),
                "batching": self.batcher.stats_dict(),
                "refresh_calls": self.refresh_calls}
