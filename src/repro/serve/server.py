"""Stdlib HTTP/JSON front end over the prediction engine.

``repro serve`` starts a :class:`PredictionServer`: one process, one
loop thread and one batcher thread.

* The **loop thread** runs one :mod:`selectors` event loop.  It
  accepts connections, reads and parses requests with the small
  HTTP/1.1 codec in :mod:`repro.serve.http`, routes them, and writes
  every response.  It never calls into the engine or the registry: a
  ``/predict`` body is parsed there and its rows handed to the batcher
  with a non-blocking :meth:`MicroBatcher.submit`, and the routes
  that read the engine or the registry (``/health``, ``/models``,
  ``/stats``, ``/models/refresh``) run on a few **admin threads**,
  which may wait on a running batch or on the registry's store lock
  while the loop goes on.
* The **batcher thread** (:class:`MicroBatcher`) pushes each batch
  through one vectorized
  :meth:`~repro.serve.engine.PredictionEngine.predict_batch`.  A
  finished batch (or admin answer) wakes the loop over a socketpair,
  and the loop writes it.  While a ``/predict`` body is still
  arriving, the batch waits for it, up to ``batch_window_ms`` (or
  ``max_batch``); otherwise it runs at once.  Concurrent connections
  therefore share forest passes, and a lone request never waits.

Connections persist (HTTP/1.1 keep-alive, Nagle off).  Requests
pipelined on one connection are answered in order: the loop reads no
further from a connection whose ``/predict`` is with the batcher.  A
connection silent for :attr:`PredictionServer.idle_timeout_s` is
closed.

The request path is *bounded end to end*: the micro-batch queue holds
at most ``max_queue`` requests — an arrival that would overflow it is
**shed** immediately with ``429`` + a ``Retry-After`` estimate instead
of growing the queue (the loop never blocks on overload) — and
every request carries a **deadline** (its own ``deadline_ms``, else
the server's ``default_deadline_ms``).  A request still queued when
its deadline passes is answered ``504 deadline exceeded`` at dequeue,
never silently computed.  The loop keeps reading, shedding and
answering while a batch runs.

Endpoints (all JSON):

* ``POST /predict`` — body ``{"requests": [...]}`` or a single request
  object; returns per-request predictions in order (``429`` when shed,
  ``504`` when every request's deadline expired).
* ``GET  /models``  — published registry records.
* ``GET  /health``  — ``healthy`` / ``draining``; only ``healthy`` is
  a 200, so load balancers stop routing to a node that is leaving.
* ``GET  /stats``   — engine + batching counters (shed / expired) and
  the batching settings, which are fixed when the server is built.
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
the connections and the socket.  A connection that was just answered
lingers, its input discarded, until the client hangs up or
:data:`LINGER_S` passes, so the close never resets it.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from .engine import (
    Prediction,
    PredictionEngine,
    PredictRequest,
    expired_prediction,
)
from .http import (
    CONTINUE,
    MAX_HEAD_BYTES,
    ProtocolError,
    RequestHead,
    encode_response,
    parse_request_head,
)

#: ``Server`` header of every response.
SERVER_NAME = "repro-serve"


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


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when accepting the
    requests would overflow ``max_queue`` — the HTTP layer turns it
    into ``429`` with a ``Retry-After`` header."""

    def __init__(self, n_shed: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue full: shed {n_shed} request(s), retry after "
            f"{retry_after_s:.3f}s")
        self.n_shed = n_shed
        self.retry_after_s = retry_after_s


#: batching setting -> (integer?, minimum, note on the minimum)
BATCHING_RULES = {"batch_window_ms": (False, 0, ""),
                  "max_batch": (True, 1, ""), "max_queue": (True, 1, ""),
                  "default_deadline_ms": (False, 0, " (0 disables)")}


def check_batching(field: str, value):
    """Validate one :data:`BATCHING_RULES` setting and return it (the
    two millisecond settings as float).  Raises ValueError naming the
    field; :class:`MicroBatcher` and the serve spec both apply it."""
    integer, minimum, note = BATCHING_RULES[field]
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite, got {value!r}")
    if value < minimum:
        raise ValueError(f"{field} must be >= {minimum}{note}, got {value!r}")
    return value if integer else float(value)


class _Ticket:
    """One submission's results, filled in as its batches run; calls
    ``on_done(results)`` once the last of them is in."""

    __slots__ = ("results", "left", "on_done")

    def __init__(self, n: int, on_done: Callable[[List[Prediction]], None]
                 ) -> None:
        self.results: List[Optional[Prediction]] = [None] * n
        self.left = n
        self.on_done = on_done


class _Pending:
    """One queued request awaiting its batch result."""

    __slots__ = ("request", "deadline", "ticket", "index")

    def __init__(self, request: PredictRequest, deadline: Optional[Deadline],
                 ticket: _Ticket, index: int) -> None:
        self.request = request
        self.deadline = deadline
        self.ticket = ticket
        self.index = index

    def finish(self, result: Prediction) -> None:
        """Record the result (batcher thread only)."""
        ticket = self.ticket
        ticket.results[self.index] = result
        ticket.left -= 1
        if not ticket.left:
            ticket.on_done(ticket.results)


class MicroBatcher:
    """Collects requests from every connection into engine-sized batches.

    The queue is bounded (``max_queue``): a submission that would
    overflow it raises :class:`QueueFullError` *immediately* — load is
    shed at the door, the caller never blocks on overload, and the
    queue can never grow without bound.  Every queued request carries a
    deadline (its own ``deadline_ms`` or the batcher's
    ``default_deadline_ms``); expired requests are answered
    ``deadline exceeded`` at dequeue instead of executed.

    ``batch_window_ms`` is an upper bound: the window stays open only
    while a caller is between :meth:`arrive` and the enqueueing
    ``submit(..., arrived=True)`` (or :meth:`depart`).

    The four batching settings are fixed at construction, each checked
    by :func:`check_batching`.
    """

    def __init__(self, engine: PredictionEngine,
                 batch_window_ms: float = 2.0, max_batch: int = 64,
                 request_log=None, max_queue: int = 256,
                 default_deadline_ms: float = 0.0) -> None:
        self.batch_window_ms = check_batching("batch_window_ms",
                                              batch_window_ms)
        self.max_batch = check_batching("max_batch", max_batch)
        self.max_queue = check_batching("max_queue", max_queue)
        self.default_deadline_ms = check_batching("default_deadline_ms",
                                                  default_deadline_ms)
        self.engine = engine
        self.request_log = request_log
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
        """Drop an :meth:`arrive` that will not reach :meth:`submit`."""
        with self._cond:
            self._arriving -= 1
            self._cond.notify()

    def submit(self, requests: Sequence[PredictRequest],
               on_done: Callable[[List[Prediction]], None],
               arrived: bool = False) -> None:
        """Enqueue without blocking; ``on_done(results)`` runs on the
        batcher thread once every request's batch has run, with the
        results in request order.

        Raises :class:`QueueFullError` when the whole submission does
        not fit under ``max_queue`` (all-or-nothing: a multi-request
        body is shed as a unit, so its per-stream history chain is
        never half-applied), and RuntimeError once stopped.
        ``arrived=True`` ends the caller's :meth:`arrive`, whatever the
        outcome.
        """
        ticket = _Ticket(len(requests), on_done)
        with self._cond:
            if arrived:
                self._arriving -= 1
            self._cond.notify()
            pending = [_Pending(r, self._deadline_for(r), ticket, i)
                       for i, r in enumerate(requests)]
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

    def submit_many(self, requests: Sequence[PredictRequest],
                    arrived: bool = False) -> List[Prediction]:
        """:meth:`submit`, then block until the results are in."""
        done = threading.Event()
        box: List[List[Prediction]] = []

        def on_done(results: List[Prediction]) -> None:
            box.append(results)
            done.set()

        self.submit(requests, on_done, arrived=arrived)
        done.wait()
        return box[0]

    def stop(self) -> None:
        """Stop accepting and drain: every already-queued request is
        answered before the consumer thread exits (new :meth:`submit`
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


#: Seconds a connection that is closing may keep sending before it is
#: dropped.  Its unread bytes are discarded meanwhile, so closing the
#: socket never resets it under a reply the client has not read yet.
LINGER_S = 2.0

#: Threads answering the routes that call into the engine or the
#: registry.  Those calls can wait on a running batch or on the
#: registry's store lock, and the loop must never wait.
ADMIN_THREADS = 4

_WAKE = object()  # selector key data of the loop's wake-up socket


class _Conn:
    """One client connection; only the loop thread touches it."""

    __slots__ = ("sock", "peer", "rbuf", "wbuf", "head", "arrived", "busy",
                 "paused", "closing", "events", "last_active")

    def __init__(self, sock: socket.socket, peer, now: float) -> None:
        self.sock: Optional[socket.socket] = sock
        self.peer = peer
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        #: parsed head of a request whose body is still arriving
        self.head: Optional[RequestHead] = None
        #: counted in the batcher's arrivals until its body is in
        self.arrived = False
        #: a /predict is with the batcher: parse nothing more until its
        #: answer is written, so pipelined replies keep their order
        self.busy = False
        #: bytes arrived while busy: stop watching for reads until the
        #: answer is out (a client that just waits costs no syscall)
        self.paused = False
        #: the last response is queued; half-close once it is written
        self.closing = False
        self.events = 0
        self.last_active = now


def _json_object(body: bytes) -> Dict:
    try:
        data = json.loads(body or b"{}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON body: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("JSON body must be an object")
    return data


class PredictionServer:
    """HTTP server owning one engine + one micro-batcher.

    ``port=0`` binds an ephemeral port (see :attr:`address`); call
    :meth:`serve_forever` (blocking) or :meth:`start_background`.
    Stop with :meth:`close` (graceful: drains queued requests, then
    closes the socket and the engine).
    """

    #: Seconds a connection may stay silent, between requests or in
    #: the middle of one, before the loop closes it.
    idle_timeout_s = 60.0

    def __init__(self, engine: PredictionEngine, host: str = "127.0.0.1",
                 port: int = 8000, batch_window_ms: float = 2.0,
                 max_batch: int = 64, verbose: bool = False,
                 request_log=None, max_queue: int = 256,
                 default_deadline_ms: float = 0.0) -> None:
        self.engine = engine
        self.verbose = verbose
        self.batcher = MicroBatcher(engine, batch_window_ms=batch_window_ms,
                                    max_batch=max_batch,
                                    request_log=request_log,
                                    max_queue=max_queue,
                                    default_deadline_ms=default_deadline_ms)
        try:
            self._listener = socket.create_server((host, port))
        except OSError:
            self.batcher.stop()
            raise
        self._address = self._listener.getsockname()[:2]
        #: POST /models/refresh calls served, reported in /stats
        self.refresh_calls = 0
        self._started = time.monotonic()
        self._draining = self._closed = self._stopping = False
        self._lifecycle = threading.Lock()
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_exited = threading.Event()
        self._conns: Set[_Conn] = set()
        #: (connection, head, status, payload, headers) of answers made
        #: off the loop, by the batcher or an admin thread; the loop
        #: writes them
        self._finished: Deque[Tuple[_Conn, RequestHead, int, Dict,
                                    Sequence[Tuple[str, str]]]] = deque()
        self._admin = ThreadPoolExecutor(ADMIN_THREADS,
                                         thread_name_prefix="repro-serve-admin")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_pending = False
        self._date = (0, "")
        self._selector = selectors.DefaultSelector()
        for sock, data in ((self._listener, None), (self._wake_r, _WAKE)):
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, data)
        self._wake_w.setblocking(False)
        self._accepting = True

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    @property
    def request_log(self):
        return self.batcher.request_log

    # -- lifecycle ------------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the event loop in the calling thread until
        :meth:`shutdown`."""
        with self._lifecycle:
            if self._stopping or self._loop_thread is not None:
                return
            self._loop_thread = threading.current_thread()
        try:
            self._run(poll_interval)
        finally:
            try:
                self._close_all()
            finally:
                self._loop_exited.set()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name="repro-serve-loop")
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop accepting and drain: every request already accepted is
        answered (later arrivals get ``503`` + ``Connection: close``),
        then every connection is closed."""
        with self._lifecycle:
            if self._stopping:
                return
            self._draining = True
        self._wake()
        self.batcher.stop()
        self._admin.shutdown(wait=True)
        with self._lifecycle:
            self._stopping = True
            loop = self._loop_thread
        self._wake()
        if loop is None:  # never served: no connection to close
            self._close_all()
        elif loop is not threading.current_thread():
            self._loop_exited.wait()

    def server_close(self) -> None:
        """Close the listening socket and the loop's own sockets."""
        self._listener.close()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    def close(self) -> None:
        """Graceful full stop (idempotent): drain, then close the
        socket."""
        if not self._closed:
            self._closed = True
            self.shutdown()
            self.server_close()

    # -- event loop -----------------------------------------------------------

    def _wake(self) -> None:
        """Wake the loop (any thread)."""
        if not self._wake_pending:
            self._wake_pending = True
            try:
                self._wake_w.send(b"\0")
            except OSError:  # a byte is already pending, or closed
                pass

    def _batch_done(self, conn: _Conn, head: RequestHead,
                    results: List[Prediction]) -> None:
        """``on_done`` of a /predict submission (batcher thread)."""
        if all(r.ok for r in results):
            status = 200
        elif all(r.expired for r in results):
            status = 504  # every request outlived its deadline
        else:
            status = 422
        self._finished.append(
            (conn, head, status,
             {"predictions": [r.as_dict() for r in results]}, ()))
        self._wake()

    def _offload(self, conn: _Conn, head: RequestHead,
                 work: Callable[[], Tuple[int, Dict]]) -> None:
        """Answer with ``work()`` -> ``(status, payload)``, run on an
        admin thread; the connection parses nothing more until the
        answer is written."""
        def run() -> None:
            try:
                status, payload = work()
            except Exception as exc:  # noqa: BLE001 — answer, don't hang
                traceback.print_exc(file=sys.stderr)
                status = 500
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            self._finished.append((conn, head, status, payload, ()))
            self._wake()

        try:
            self._admin.submit(run)
        except RuntimeError:  # shut down: the drain has begun
            self._reply(conn, head, 503, {"error": "server is shutting down",
                                          "status": "draining"})
        else:
            conn.busy = True

    def _take_wake(self) -> None:
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass
        # cleared after the read, before the deque is read: an answer
        # finishing in between sends a fresh byte
        self._wake_pending = False
        self._deliver()

    def _run(self, poll_interval: float) -> None:
        select = self._selector.select
        next_sweep = 0.0
        while not self._stopping:
            tick = min(poll_interval, self.idle_timeout_s / 4)
            for key, mask in select(tick):
                data = key.data
                if data is None:
                    self._accept()
                elif data is _WAKE:
                    self._take_wake()
                else:
                    if mask & selectors.EVENT_WRITE:
                        self._flush(data)
                    if mask & selectors.EVENT_READ:
                        self._on_readable(data)
            if self._draining and self._accepting:
                self._selector.unregister(self._listener)
                self._accepting = False
            now = time.monotonic()
            if now >= next_sweep:
                self._sweep(now)
                next_sweep = now + tick

    def _close_all(self) -> None:
        """Last step of a shutdown: write the drain's final answers,
        then close every connection without resetting it.

        An idle connection closes at once, after discarding any input
        already queued for it.  One that was just answered half-closes
        and lingers, discarding its input, until the client hangs up or
        :data:`LINGER_S` passes: closing a socket with unread input
        sends a reset, which can cost the client its last answer.
        """
        if self._accepting:
            self._selector.unregister(self._listener)
            self._accepting = False
        self._deliver()
        for conn in list(self._conns):
            if not conn.closing:
                self._discard_input(conn)
                self._drop(conn)
        deadline = time.monotonic() + LINGER_S
        while self._conns:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for key, mask in self._selector.select(remaining):
                conn = key.data
                if conn is _WAKE:
                    self._take_wake()
                    continue
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn)
                if mask & selectors.EVENT_READ:
                    self._on_readable(conn)
        for conn in list(self._conns):
            self._discard_input(conn)
            self._drop(conn)

    @staticmethod
    def _discard_input(conn: _Conn) -> None:
        """Read and drop whatever input is already queued."""
        if conn.sock is None:
            return
        try:
            while conn.sock.recv(65536):
                pass
        except OSError:  # nothing more queued (or the socket is gone)
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # out of descriptors: retry on the next event
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock, peer, time.monotonic())
            self._conns.add(conn)
            self._watch(conn)

    def _sweep(self, now: float) -> None:
        """Close connections silent for too long (and lingering ones
        past :data:`LINGER_S`)."""
        for conn in list(self._conns):
            if conn.busy:
                continue
            limit = (LINGER_S if conn.closing and not conn.wbuf
                     else self.idle_timeout_s)
            if now - conn.last_active > limit:
                self._drop(conn)

    def _watch(self, conn: _Conn) -> None:
        """Register the events the connection's state calls for."""
        if conn.sock is None:
            return
        want = ((0 if conn.paused else selectors.EVENT_READ)
                | (selectors.EVENT_WRITE if conn.wbuf else 0))
        if want == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, want, conn)
        elif not want:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, want, conn)
        conn.events = want

    def _drop(self, conn: _Conn) -> None:
        if conn.sock is None:
            return
        if conn.arrived:  # its body never came: stop holding the window
            conn.arrived = False
            self.batcher.depart()
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        conn.sock.close()
        conn.sock = None
        self._conns.discard(conn)

    def _on_readable(self, conn: _Conn) -> None:
        if conn.sock is None:
            return
        if conn.busy:
            conn.paused = True
            self._watch(conn)
            return
        try:
            chunk = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._drop(conn)
        elif not conn.closing:  # a closing connection's bytes are dropped
            conn.last_active = time.monotonic()
            conn.rbuf += chunk
            self._process(conn)
            self._watch(conn)

    def _send(self, conn: _Conn, data: bytes) -> None:
        if not conn.wbuf:
            try:
                sent = conn.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._drop(conn)
                return
            data = data[sent:]
        conn.wbuf += data
        self._written(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.sock is None:
            return
        try:
            sent = conn.sock.send(conn.wbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn)
            return
        del conn.wbuf[:sent]
        conn.last_active = time.monotonic()
        self._written(conn)

    def _written(self, conn: _Conn) -> None:
        if not conn.wbuf and conn.closing:
            conn.rbuf.clear()
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                self._drop(conn)
                return
            conn.last_active = time.monotonic()
        self._watch(conn)

    def _process(self, conn: _Conn) -> None:
        """Parse and route every complete request in the read buffer,
        one at a time: a /predict with the batcher pauses the rest."""
        while not (conn.busy or conn.closing) and conn.sock is not None:
            head = conn.head
            if head is None:
                end = conn.rbuf.find(b"\r\n\r\n")
                if end < 0:
                    if len(conn.rbuf) > MAX_HEAD_BYTES:
                        self._reply(conn, None, 431,
                                    {"error": "request head too large"})
                    return
                raw = bytes(conn.rbuf[:end]).lstrip(b"\r\n")
                del conn.rbuf[:end + 4]
                try:
                    head = parse_request_head(raw)
                except ProtocolError as exc:
                    self._reply(conn, None, 400, {"error": str(exc)})
                    return
                if self._draining:  # arrived after shutdown began
                    self._reply(conn, head, 503,
                                {"error": "server is shutting down",
                                 "status": "draining"})
                    return
                if len(conn.rbuf) < head.length:
                    conn.head = head
                    if head.method == "POST" and head.path == "/predict":
                        # the batch window waits for this body
                        self.batcher.arrive()
                        conn.arrived = True
                    if head.expect_continue:
                        self._send(conn, CONTINUE)
                    continue
            elif len(conn.rbuf) < head.length:
                return
            body = bytes(conn.rbuf[:head.length])
            del conn.rbuf[:head.length]
            conn.head = None
            try:
                self._route(conn, head, body)
            except Exception as exc:  # noqa: BLE001 — the loop lives on
                traceback.print_exc(file=sys.stderr)
                self._reply(conn, None, 500,
                            {"error": f"{type(exc).__name__}: {exc}"})

    def _reply(self, conn: _Conn, head: Optional[RequestHead], status: int,
               payload: Dict, headers: Sequence[Tuple[str, str]] = ()
               ) -> None:
        """Queue one JSON response.  The connection closes after it when
        the request asked to, could not be parsed (``head`` None), or
        the server is draining."""
        if conn.sock is None:
            return
        close = head is None or not head.keep_alive or self._draining
        if close:
            conn.closing = True
        now = int(time.time())
        if now != self._date[0]:
            self._date = (now, formatdate(now, usegmt=True))
        data = encode_response(
            status, json.dumps(payload).encode(),
            [("Server", SERVER_NAME), ("Date", self._date[1]),
             ("Content-Type", "application/json"), *headers], close=close)
        if self.verbose:
            line = head.request_line if head is not None else "-"
            sys.stderr.write(f"{conn.peer[0]} - - [{self._date[1]}] "
                             f"\"{line}\" {status} -\n")
        self._send(conn, data)

    def _deliver(self) -> None:
        """Write the answers made off the loop, then resume each
        connection's pipelined requests."""
        while self._finished:
            conn, head, status, payload, headers = self._finished.popleft()
            conn.busy = conn.paused = False
            if conn.sock is None:  # the client went away meanwhile
                continue
            self._reply(conn, head, status, payload, headers)
            self._process(conn)
            self._watch(conn)

    # -- routes ---------------------------------------------------------------

    def _route(self, conn: _Conn, head: RequestHead, body: bytes) -> None:
        """Answer one request.  Only ``/predict`` runs on the loop;
        every route that calls into the engine or the registry runs on
        an admin thread."""
        path = head.path
        if head.method == "GET":
            if path == "/health":
                self._offload(conn, head, self._health_reply)
            elif path == "/models":
                self._offload(conn, head, lambda: (
                    200, {"models": self.model_records()}))
            elif path == "/stats":
                self._offload(conn, head, lambda: (200, self.stats()))
            else:
                self._reply(conn, head, 404,
                            {"error": f"unknown path {path!r}"})
            return
        if head.method != "POST":
            self._reply(conn, head, 501,
                        {"error": f"unsupported method {head.method!r}"})
            return
        if path == "/predict":
            self._predict(conn, head, body)
        elif path == "/models/refresh":  # takes no parameters
            self.refresh_calls += 1
            self._offload(conn, head, self._refresh_reply)
        else:
            self._reply(conn, head, 404, {"error": f"unknown path {path!r}"})

    def _predict(self, conn: _Conn, head: RequestHead, body: bytes) -> None:
        batcher = self.batcher
        arrived, conn.arrived = conn.arrived, False
        try:
            data = _json_object(body)
            raw = data["requests"] if "requests" in data else [data]
            if not isinstance(raw, list) or not raw:
                raise ValueError("'requests' must be a non-empty list")
            requests = [PredictRequest.from_dict(item) for item in raw]
        except BaseException as exc:
            if arrived:
                batcher.depart()
            if not isinstance(exc, (TypeError, ValueError)):
                raise
            self._reply(conn, head, 400, {"error": str(exc)})
            return
        try:
            batcher.submit(requests, partial(self._batch_done, conn, head),
                           arrived=arrived)
        except QueueFullError as exc:  # overload: shed with a backoff hint
            self._reply(conn, head, 429,
                        {"error": "queue full, request shed",
                         "retry_after_s": exc.retry_after_s},
                        [("Retry-After", f"{exc.retry_after_s:.3f}")])
        except RuntimeError:  # shutting down: batcher drains, no new work
            self._reply(conn, head, 503,
                        {"error": "server is shutting down"})
        else:
            # its answer is written by _deliver, on this thread, later
            conn.busy = True

    # -- endpoint payloads ----------------------------------------------------

    def _health_reply(self) -> Tuple[int, Dict]:
        payload = self.health()
        # only "healthy" is a 200 so load balancers eject the node
        return (200 if payload["status"] == "healthy" else 503), payload

    def _refresh_reply(self) -> Tuple[int, Dict]:
        self.engine.refresh()
        return 200, {"ok": True}

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
