"""The store service: one HTTP process owning TraceStore + ModelRegistry.

``repro store serve --root DIR`` runs a :class:`StoreService` on a
workspace-layout root (``DIR/traces`` + ``DIR/registry``).  Every other
process — campaign runners, trainers, prediction servers, CLIs — talks
to it through :mod:`repro.remote.client` instead of sharing the
filesystem.

Wire format: JSON everywhere except bulk payloads, which move as raw
bytes (npz trace blobs, pickled model artifacts) with an
``X-Repro-SHA256`` trailer header the client verifies — a torn stream
is detected, retried once, then loudly rejected.  Mutations run under
the PR-8 advisory store lock *and* an in-process mutex (the advisory
lock is reentrant within one process, so two handler threads of this
very service would not serialize against each other without it).

The service runs on the threaded stdlib :class:`JsonServer`, one
handler thread per connection, not on the prediction server's event
loop: its long-polls and its store-lock waits of up to
``lock_timeout`` would stall a loop.

The event feed (``GET /events?since=seq``) long-polls a bounded
in-memory ring of monotonically sequenced events announcing every
publish/gc/trace-put; subscribers that fall behind the ring (``gap``)
or observe the sequence restart (``reset``) refresh defensively.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from ..flow.durable import StoreLockTimeout
from ..flow.tracestore import STORE_VERSION, TraceStore
from ..serve.registry import REGISTRY_VERSION, ModelRegistry
from ..sim.dta import DelayTrace
from ..testing import faults

#: Bump on incompatible wire-format changes; clients check it against
#: their own on first contact and fail loudly on skew.
PROTOCOL_VERSION = 1

#: Identifies this service in ``/meta`` (a client pointed at some other
#: HTTP server must get a typed error, not a confusing JSON mismatch).
SERVICE_NAME = "repro-store"

#: Cap on one long-poll's server-side wait.
MAX_POLL_TIMEOUT_S = 30.0

#: Torn-stream injection for the chaos suite: ``torn-write`` truncates
#: a streamed blob body (the checksum header still covers the full
#: bytes, so the client's verify must catch it).
SITE_STREAM = faults.register_site("remote.service.stream")


class EventFeed:
    """Bounded ring of sequenced events with long-poll support."""

    def __init__(self, maxlen: int = 1024) -> None:
        self._cond = threading.Condition()
        self._events: deque = deque(maxlen=maxlen)
        self._seq = 0
        self._closed = False

    @property
    def seq(self) -> int:
        with self._cond:
            return self._seq

    def emit(self, kind: str, **fields) -> Dict:
        with self._cond:
            self._seq += 1
            event = {"seq": self._seq, "kind": kind, **fields}
            self._events.append(event)
            self._cond.notify_all()
        return event

    def close(self) -> None:
        """Wake every long-poller so server shutdown never blocks on
        an idle subscriber."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def poll(self, since: int, timeout_s: float) -> Dict:
        """Events with ``seq > since``, waiting up to ``timeout_s``.

        ``since < 0`` is a baseline request: return the current
        sequence immediately with no events (new subscribers skip
        history).  ``reset`` flags a ``since`` ahead of the current
        sequence (the service restarted and renumbered); ``gap`` flags
        events aged out of the ring before this subscriber saw them.
        """
        timeout_s = max(0.0, min(float(timeout_s), MAX_POLL_TIMEOUT_S))
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                if since < 0:
                    return {"seq": self._seq, "events": []}
                if since > self._seq:
                    return {"seq": self._seq, "events": [], "reset": True}
                newer = [e for e in self._events if e["seq"] > since]
                if newer or self._closed:
                    oldest = (self._events[0]["seq"] if self._events
                              else self._seq + 1)
                    return {"seq": self._seq, "events": newer,
                            "gap": since + 1 < oldest}
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"seq": self._seq, "events": []}
                self._cond.wait(remaining)


class JsonHandler(BaseHTTPRequestHandler):
    """Keep-alive request handler of the store service."""

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


class _Handler(JsonHandler):
    server: "StoreService"

    def _send_bytes(self, body: bytes) -> None:
        digest = hashlib.sha256(body).hexdigest()
        if faults.trigger(SITE_STREAM) == "torn-write":
            body = body[: max(1, len(body) // 2)]
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-SHA256", digest)
        self.end_headers()
        self.wfile.write(body)

    def _json_header(self, name: str) -> Dict:
        raw = self.headers.get(name)
        if raw is None:
            raise ValueError(f"missing {name} header")
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError(f"{name} header must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        path = unquote(parsed.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        try:
            handled = self.server.handle_route(self, method, path, query)
        except ValueError as exc:
            self._send_json({"error": str(exc)}, 400)
            return
        except LookupError as exc:
            self._send_json({"error": str(exc)}, 404)
            return
        except StoreLockTimeout as exc:
            # another writer holds the store lock: advertise a backoff
            # so the shared transport retries instead of failing
            self._send_json({"error": str(exc), "retry_after_s": 0.5},
                            503, headers={"Retry-After": "0.5"})
            return
        except Exception as exc:  # noqa: BLE001 — wire boundary
            self._send_json({"error": f"{type(exc).__name__}: {exc}"}, 500)
            return
        if not handled:
            self._send_json({"error": f"unknown path {path!r}"}, 404)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class StoreService(JsonServer):
    """HTTP server owning one TraceStore + one ModelRegistry.

    ``root`` uses the workspace layout: traces under ``root/traces``,
    models under ``root/registry`` — a directory previously used by a
    local ``Workspace(root)`` serves as-is (and vice versa).  ``port=0``
    binds an ephemeral port (see :attr:`address`); call
    :meth:`serve_forever` (blocking) or :meth:`start_background`, stop
    with :meth:`close` (long-polls wake via :meth:`EventFeed.close`).
    """

    def __init__(self, root: Union[str, Path], host: str = "127.0.0.1",
                 port: int = 8730, *, lock_timeout: float = 10.0,
                 verbose: bool = False) -> None:
        self.root = Path(root)
        self.store = TraceStore(self.root / "traces",
                                lock_timeout=lock_timeout)
        self.registry = ModelRegistry(self.root / "registry",
                                      lock_timeout=lock_timeout)
        self.events = EventFeed()
        self._started = time.monotonic()
        # the advisory store lock is reentrant within one process: two
        # handler threads of this service must serialize here instead
        self._mutate = threading.Lock()
        super().__init__((host, port), _Handler, verbose=verbose)

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def drain(self) -> None:
        self.events.close()

    # -- routes ---------------------------------------------------------------

    def handle_route(self, h: _Handler, method: str, path: str,
                     query: Dict[str, str]) -> bool:
        """Serve one request; returns False for unknown paths."""
        if method == "GET":
            return self._handle_get(h, path, query)
        return self._handle_post(h, path, query)

    def _handle_get(self, h: _Handler, path: str,
                    query: Dict[str, str]) -> bool:
        if path == "/meta":
            h._send_json(self.meta())
        elif path == "/health":
            h._send_json({"status": "healthy", "service": SERVICE_NAME,
                          "uptime_s": round(
                              time.monotonic() - self._started, 3)})
        elif path == "/events":
            since = int(query.get("since", "-1"))
            timeout_s = float(query.get("timeout_s", "0"))
            h._send_json(self.events.poll(since, timeout_s))
        elif path == "/store/entries":
            h._send_json({"entries": self.store.entries()})
        elif path == "/store/stats":
            h._send_json(self.store_stats())
        elif path == "/store/throughput":
            h._send_json({"history": self.store.throughput_history()})
        elif path.startswith("/store/entry/"):
            key = path.rsplit("/", 1)[1]
            entry = self.store.entries().get(key)
            if entry is None:
                raise LookupError(f"no trace entry for key {key!r}")
            h._send_json({"key": key, "entry": entry})
        elif path.startswith("/store/blob/"):
            key = path.rsplit("/", 1)[1]
            blob = self.store.blob_path(key)
            if blob is None:
                raise LookupError(f"no trace blob for key {key!r}")
            h._send_bytes(blob.read_bytes())
        elif path.startswith("/store/journal/"):
            key = path.rsplit("/", 1)[1]
            h._send_bytes(self._journal_bytes(key, query))
        elif path == "/registry/models":
            records = self.registry.list_models(
                fu=query.get("fu"), kind=query.get("kind"))
            h._send_json({"models": [
                {"model_id": r.model_id, "entry": r.as_entry()}
                for r in records]})
        elif path == "/registry/fingerprint":
            length = int(query.get("length", "16"))
            h._send_json({
                "fingerprint": self.registry.manifest_fingerprint(length),
                "models": len(self.registry)})
        elif path.startswith("/registry/artifact/"):
            model_id = path[len("/registry/artifact/"):]
            h._send_bytes(self._artifact_bytes(model_id))
        else:
            return False
        return True

    def _handle_post(self, h: _Handler, path: str,
                     query: Dict[str, str]) -> bool:
        if path.startswith("/store/put/"):
            key = path.rsplit("/", 1)[1]
            entry = h._json_header("X-Repro-Entry")
            fname = self._put_trace(key, h._read_body(), entry)
            h._send_json({"ok": True, "file": fname})
        elif path == "/store/throughput/record":
            data = json.loads(h._read_body() or b"{}")
            with self._mutate:
                self.store.record_throughput(
                    str(data["fu"]), str(data["backend"]),
                    int(data["n_corners"]),
                    data["corner_cycles_per_s"],
                    alpha=float(data.get("alpha", 0.4)))
            h._send_json({"ok": True})
        elif path == "/store/throughput/get-many":
            data = json.loads(h._read_body() or b"{}")
            keys = [(str(f), str(b), int(n))
                    for f, b, n in data.get("keys", [])]
            h._send_json({"cps": [self.store.get_throughput(*k)
                                  for k in keys]})
        elif path == "/store/throughput/clear":
            with self._mutate:
                removed = self.store.clear_throughput()
            h._send_json({"removed": removed})
        elif path == "/store/gc":
            data = json.loads(h._read_body() or b"{}")
            with self._mutate:
                report = self.store.gc(
                    max_bytes=data.get("max_bytes"),
                    dry_run=bool(data.get("dry_run", False)))
            if not data.get("dry_run"):
                self.events.emit("store-gc",
                                 removed=len(report.removed_blobs),
                                 dropped=len(report.dropped_entries))
            h._send_json({"report": {
                "removed_blobs": report.removed_blobs,
                "dropped_entries": report.dropped_entries,
                "freed_bytes": report.freed_bytes,
                "kept_bytes": report.kept_bytes}})
        elif path.startswith("/store/journal-shard/"):
            key = path.rsplit("/", 1)[1]
            info = h._json_header("X-Repro-Journal")
            self._record_journal_shard(key, h._read_body(), info)
            h._send_json({"ok": True})
        elif path.startswith("/store/journal-clear/"):
            key = path.rsplit("/", 1)[1]
            with self._mutate:
                self.store.clear_journal(key)
            h._send_json({"ok": True})
        elif path == "/registry/publish":
            info = h._json_header("X-Repro-Publish")
            record = self._publish(h._read_body(), info)
            h._send_json({"model_id": record.model_id,
                          "entry": record.as_entry()})
        elif path == "/registry/gc":
            data = json.loads(h._read_body() or b"{}")
            with self._mutate:
                report = self.registry.gc(
                    keep=int(data.get("keep", 1)),
                    dry_run=bool(data.get("dry_run", False)))
            if not data.get("dry_run"):
                self.events.emit("registry-gc",
                                 removed=len(report.removed_files),
                                 dropped=len(report.dropped_entries))
            h._send_json({"report": {
                "removed_files": report.removed_files,
                "dropped_entries": report.dropped_entries,
                "freed_bytes": report.freed_bytes}})
        else:
            return False
        return True

    # -- payload helpers ------------------------------------------------------

    def meta(self) -> Dict:
        return {"service": SERVICE_NAME,
                "protocol": PROTOCOL_VERSION,
                "store_version": STORE_VERSION,
                "registry_version": REGISTRY_VERSION,
                "seq": self.events.seq,
                "root": str(self.root)}

    def store_stats(self) -> Dict:
        quarantined = len(list(self.store.root.glob("*.corrupt-*"))) \
            if self.store.root.is_dir() else 0
        return {"size_bytes": self.store.size_bytes(),
                "n_entries": len(self.store.entries()),
                "quarantined": quarantined}

    def _put_trace(self, key: str, body: bytes, entry: Dict) -> str:
        delays = np.load(io.BytesIO(body))["delays"]
        # conditions live client-side; put only consumes the matrix
        trace = DelayTrace(delays, [])
        with self._mutate:
            path = self.store.put(
                key, trace, fu_name=str(entry["fu"]),
                stream_name=str(entry["stream"]),
                library=str(entry["library"]),
                delay_model=str(entry.get("delay_model", "dta")),
                backend=str(entry.get("backend", "")))
        self.events.emit("trace-put", key=key, fu=str(entry["fu"]),
                         stream=str(entry["stream"]))
        return path.name

    def _record_journal_shard(self, key: str, body: bytes,
                              info: Dict) -> None:
        delays = np.load(io.BytesIO(body))["delays"]
        plan = [tuple(int(x) for x in s) for s in info["plan"]]
        shard = tuple(int(x) for x in info["shard"])
        with self._mutate:
            self.store.record_journal_shard(
                key, plan=plan, shard=shard, delays=delays,
                backend=str(info["backend"]),
                n_corners=int(info["n_corners"]),
                n_cycles=int(info["n_cycles"]))

    def _journal_bytes(self, key: str, query: Dict[str, str]) -> bytes:
        state = self.store.load_journal(
            key, backend=str(query.get("backend", "")),
            n_corners=int(query.get("n_corners", "0")),
            n_cycles=int(query.get("n_cycles", "0")))
        if state is None:
            raise LookupError(f"no resumable journal for key {key!r}")
        plan, done = state
        buf = io.BytesIO()
        meta = {"plan": [list(s) for s in plan],
                "shards": [list(s) for s, _ in done]}
        np.savez_compressed(
            buf, meta=np.array(json.dumps(meta)),
            **{f"part_{i}": arr for i, (_, arr) in enumerate(done)})
        return buf.getvalue()

    def _artifact_bytes(self, model_id: str) -> bytes:
        entry = self.registry._read()["models"].get(model_id)
        if entry is None:
            raise LookupError(f"no published model {model_id!r}")
        path = self.registry.root / entry["file"]
        if not path.is_file():
            raise LookupError(f"artifact for {model_id!r} is missing")
        return path.read_bytes()

    def _publish(self, body: bytes, info: Dict):
        model = pickle.loads(body)
        with self._mutate:
            record = self.registry.publish_fingerprinted(
                model, fu_name=str(info["fu_name"]),
                kind=str(info["kind"]), key=str(info["key"]),
                feature_spec=info.get("feature_spec"),
                corners=str(info.get("corners", "-")),
                train_stream=str(info.get("train_stream", "-")),
                metadata=info.get("metadata") or {})
        self.events.emit("publish", model_id=record.model_id,
                         fu=record.fu, model_kind=record.kind,
                         version=record.version, key=record.key)
        return record
