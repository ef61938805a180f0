"""Remote drop-ins for TraceStore and ModelRegistry.

Both classes speak to a running :class:`~repro.remote.service.
StoreService` over the shared retrying transport
(:class:`~repro.serve.http.HttpTransport`, the same plumbing
``ServeClient`` uses) and implement the duck-typed surface the local
classes expose, so ``CampaignRunner``, ``Workspace``,
``PredictionEngine`` and the CLIs take either interchangeably.

Key discipline — the reason remote and local runs fingerprint
byte-identically: **key derivation never crosses the wire.**  The
client holds the FU/stream/library objects and computes
``trace_key``/``model_key``/fingerprints locally with the exact same
code the local classes use; the service only performs the locked
write (and, for publishes, the under-lock version assignment).

Failure modes are loud and typed: :class:`RemoteStoreError` for
transport/HTTP failures, :class:`RemoteProtocolError` for version skew
or a URL that is not a store service, :class:`RemoteChecksumError`
when a streamed blob fails its SHA-256 (retried once, then raised).
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.model import loads_model
from ..flow.tracestore import (
    STORE_VERSION,
    GCReport,
    ShardRange,
    library_fingerprint,
)
from ..serve.http import HttpTransport, TransportError
from ..serve.registry import (
    MODEL_KINDS,
    REGISTRY_VERSION,
    ModelRecord,
    RegistryGCReport,
    corner_fingerprint,
    model_key,
    stream_fingerprint,
)
from ..sim.dta import DelayTrace
from ..testing import faults

#: Must match :data:`repro.remote.service.PROTOCOL_VERSION`.
PROTOCOL_VERSION = 1

_SERVICE_NAME = "repro-store"

#: Every wire request of both remote clients passes through this fault
#: point, so the chaos suite can kill a campaign mid-flight at the
#: store boundary.
SITE_REQUEST = faults.register_site("remote.store.request")


class RemoteStoreError(TransportError):
    """Store service unreachable or answered an HTTP error status."""


class RemoteProtocolError(RemoteStoreError):
    """The far end is not a compatible store service (wrong service,
    or store/registry/protocol version skew)."""


class RemoteChecksumError(RemoteStoreError):
    """A streamed blob failed checksum verification twice — the
    stream is torn (or the far end is corrupting data)."""


class _RemoteBase:
    """Transport + protocol handshake shared by both remote clients."""

    def __init__(self, url: str, *, timeout: float = 30.0,
                 retries: int = 2, backoff_s: float = 0.05,
                 jitter: float = 0.25) -> None:
        self.url = url.rstrip("/")
        self._transport = HttpTransport(
            self.url, timeout=timeout, retries=retries,
            backoff_s=backoff_s, jitter=jitter,
            error_cls=RemoteStoreError)
        self._meta: Optional[Dict] = None

    @property
    def root(self) -> str:
        """The service URL — the duck-typed analogue of the local
        classes' root path.  ``str(root)`` round-trips through
        :func:`~repro.flow.tracestore.open_trace_store` /
        :func:`~repro.serve.registry.open_model_registry`, and is what
        ``repro store list --url`` prints."""
        return self.url

    # -- wire -----------------------------------------------------------------

    def _request_bytes(self, path: str, data: Optional[bytes] = None,
                       headers: Optional[Dict[str, str]] = None
                       ) -> Tuple[bytes, Dict[str, str]]:
        faults.fault_point(SITE_REQUEST)
        self._check_meta()
        return self._transport.request_bytes(path, data, headers=headers)

    def _call(self, path: str, payload: Optional[Dict] = None) -> Dict:
        faults.fault_point(SITE_REQUEST)
        if path != "/meta":
            self._check_meta()
        return self._transport.call(path, payload)

    def _check_meta(self) -> None:
        """One-time handshake: loud, typed error on version skew."""
        if self._meta is not None:
            return
        try:
            meta = self._transport.call("/meta")
        except RemoteStoreError as exc:
            if exc.status and 400 <= exc.status < 500:
                # something answered, but it has no /meta — a web
                # server, maybe, just not a repro store service
                raise RemoteProtocolError(
                    f"{self.url} is not a repro store service "
                    f"(GET /meta answered {exc.status})") from None
            raise
        if meta.get("service") != _SERVICE_NAME:
            raise RemoteProtocolError(
                f"{self.url} is not a repro store service "
                f"(service={meta.get('service')!r})")
        skew = []
        for name, ours in (("protocol", PROTOCOL_VERSION),
                           ("store_version", STORE_VERSION),
                           ("registry_version", REGISTRY_VERSION)):
            theirs = meta.get(name)
            if theirs != ours:
                skew.append(f"{name}: service={theirs!r} client={ours!r}")
        if skew:
            raise RemoteProtocolError(
                f"version skew against {self.url}: {'; '.join(skew)}")
        self._meta = meta

    def _fetch_checked(self, path: str) -> bytes:
        """GET raw bytes, verifying the streamed checksum.

        A mismatch (torn stream) is retried exactly once; a second
        mismatch raises :class:`RemoteChecksumError`.
        """
        for _ in range(2):
            body, headers = self._request_bytes(path)
            declared = headers.get("x-repro-sha256")
            if (declared is None
                    or hashlib.sha256(body).hexdigest() == declared):
                return body
        raise RemoteChecksumError(
            f"torn blob stream from {self.url}{path}: "
            f"checksum mismatch on 2 attempts")

    def _is_404(self, exc: RemoteStoreError) -> bool:
        return exc.status == 404

    def poll_events(self, since: int = -1,
                    timeout_s: float = 0.0) -> Dict:
        """One ``/events`` long-poll (``since=-1`` returns the current
        sequence immediately — the baseline for a new subscriber)."""
        return self._call(f"/events?since={int(since)}"
                          f"&timeout_s={float(timeout_s)}")

    def subscribe_events(self, callback, **kwargs):
        """Start an :class:`~repro.remote.events.EventSubscriber`
        invoking ``callback()`` on every publish/gc announcement."""
        from .events import EventSubscriber
        return EventSubscriber(self, callback, **kwargs)


class RemoteTraceStore(_RemoteBase):
    """TraceStore surface over the wire (see module docstring)."""

    def entries(self) -> Dict[str, Dict]:
        return self._call("/store/entries")["entries"]

    def __contains__(self, key: str) -> bool:
        try:
            self._call(f"/store/entry/{key}")
        except RemoteStoreError as exc:
            if self._is_404(exc):
                return False
            raise
        return True

    # -- traces ---------------------------------------------------------------

    def get(self, key: str, conditions: Sequence, inputs=None
            ) -> Optional[DelayTrace]:
        """Fetch + decode the blob for ``key``, or None on a miss.

        The delays matrix comes off the wire; conditions/inputs are
        the caller's local objects (exactly the split the local
        ``get`` performs against its manifest)."""
        try:
            body = self._fetch_checked(f"/store/blob/{key}")
        except RemoteChecksumError:
            raise
        except RemoteStoreError as exc:
            if self._is_404(exc):
                return None
            raise
        delays = np.load(io.BytesIO(body))["delays"]
        return DelayTrace(delays, list(conditions), inputs=inputs)

    def put(self, key: str, trace: DelayTrace, *, fu_name: str,
            stream_name: str, library, delay_model: str = "dta",
            backend: str = "") -> str:
        entry = {
            "fu": fu_name,
            "stream": stream_name,
            "library": (library if isinstance(library, str)
                        else library_fingerprint(library)),
            "delay_model": delay_model,
            "backend": backend,
        }
        buf = io.BytesIO()
        np.savez_compressed(buf, delays=trace.delays)
        self._request_bytes(
            f"/store/put/{key}", buf.getvalue(),
            headers={"X-Repro-Entry": json.dumps(entry),
                     "Content-Type": "application/octet-stream"})
        return f"{self.url}/store/blob/{key}"

    # -- throughput history ---------------------------------------------------

    def record_throughput(self, fu_name: str, backend: str,
                          n_corners: int, corner_cycles_per_s: float,
                          alpha: float = 0.4) -> None:
        self._call("/store/throughput/record",
                   {"fu": fu_name, "backend": backend,
                    "n_corners": int(n_corners),
                    "corner_cycles_per_s": corner_cycles_per_s,
                    "alpha": alpha})

    def get_throughput(self, fu_name: str, backend: str,
                       n_corners: int) -> Optional[float]:
        body = self._call("/store/throughput/get-many",
                          {"keys": [[fu_name, backend, int(n_corners)]]})
        (cps,) = body["cps"]
        return None if cps is None else float(cps)

    def throughput_history(self) -> Dict[str, Dict]:
        return self._call("/store/throughput")["history"]

    def clear_throughput(self) -> int:
        return int(self._call("/store/throughput/clear", {})["removed"])

    # -- size / gc ------------------------------------------------------------

    def size_bytes(self) -> int:
        return int(self._call("/store/stats")["size_bytes"])

    def stats(self) -> Dict:
        return self._call("/store/stats")

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> GCReport:
        body = self._call("/store/gc", {"max_bytes": max_bytes,
                                        "dry_run": dry_run})
        return GCReport(**body["report"])

    # -- campaign journals ----------------------------------------------------

    def record_journal_shard(self, key: str, *,
                             plan: Sequence[ShardRange],
                             shard: ShardRange, delays: np.ndarray,
                             backend: str, n_corners: int,
                             n_cycles: int) -> None:
        info = {"plan": [list(int(x) for x in s) for s in plan],
                "shard": [int(x) for x in shard],
                "backend": backend, "n_corners": int(n_corners),
                "n_cycles": int(n_cycles)}
        buf = io.BytesIO()
        np.savez_compressed(buf, delays=np.ascontiguousarray(delays))
        self._request_bytes(
            f"/store/journal-shard/{key}", buf.getvalue(),
            headers={"X-Repro-Journal": json.dumps(info),
                     "Content-Type": "application/octet-stream"})

    def load_journal(self, key: str, *, backend: str, n_corners: int,
                     n_cycles: int
                     ) -> Optional[Tuple[List[ShardRange],
                                         List[Tuple[ShardRange,
                                                    np.ndarray]]]]:
        try:
            body = self._fetch_checked(
                f"/store/journal/{key}?backend={backend}"
                f"&n_corners={int(n_corners)}&n_cycles={int(n_cycles)}")
        except RemoteChecksumError:
            raise
        except RemoteStoreError as exc:
            if self._is_404(exc):
                return None
            raise
        with np.load(io.BytesIO(body)) as data:
            meta = json.loads(data["meta"].item())
            plan = [tuple(int(x) for x in s) for s in meta["plan"]]
            done = [(tuple(int(x) for x in shard),
                     np.array(data[f"part_{i}"]))
                    for i, shard in enumerate(meta["shards"])]
        return plan, done

    def clear_journal(self, key: str) -> None:
        self._call(f"/store/journal-clear/{key}", {})


class RemoteModelRegistry(_RemoteBase):
    """ModelRegistry surface over the wire (see module docstring)."""

    def list_models(self, fu: Optional[str] = None,
                    kind: Optional[str] = None) -> List[ModelRecord]:
        query = []
        if fu is not None:
            query.append(f"fu={fu}")
        if kind is not None:
            query.append(f"kind={kind}")
        path = "/registry/models" + ("?" + "&".join(query) if query else "")
        return [ModelRecord.from_entry(m["model_id"], m["entry"])
                for m in self._call(path)["models"]]

    def __len__(self) -> int:
        return int(self._call("/registry/fingerprint")["models"])

    def manifest_fingerprint(self, length: int = 16) -> str:
        return self._call(
            f"/registry/fingerprint?length={int(length)}")["fingerprint"]

    # -- publish / resolve ----------------------------------------------------

    def publish(self, model: Any, fu, kind: str = "tevot",
                conditions=None, train_stream=None,
                metadata: Optional[Dict] = None) -> ModelRecord:
        """Publish over the wire with client-side key derivation.

        Everything identity-bearing (FU fingerprint, corner grid,
        stream bytes, feature-spec tag → ``model_key``) is computed
        here with the exact code the local registry uses; the service
        assigns the version under its lock.
        """
        if kind not in MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {kind!r}; expected one of "
                f"{', '.join(MODEL_KINDS)}")
        fu_name = fu if isinstance(fu, str) else fu.name
        spec = getattr(model, "spec", None)
        spec_tag = spec.version_tag() if spec is not None else "-"
        info = {
            "fu_name": fu_name,
            "kind": kind,
            "key": model_key(fu, kind, conditions, train_stream, spec_tag),
            "feature_spec": None if spec is None else {
                "operand_width": spec.operand_width,
                "include_history": spec.include_history,
                "tag": spec_tag,
            },
            "corners": corner_fingerprint(conditions),
            "train_stream": stream_fingerprint(train_stream),
            "metadata": dict(metadata or {}),
        }
        body, _ = self._request_bytes(
            "/registry/publish", pickle.dumps(model),
            headers={"X-Repro-Publish": json.dumps(info),
                     "Content-Type": "application/octet-stream"})
        resp = json.loads(body)
        return ModelRecord.from_entry(resp["model_id"], resp["entry"])

    def resolve(self, fu: str, kind: str = "tevot",
                key: Optional[str] = None,
                version: Optional[int] = None) -> Tuple[Any, ModelRecord]:
        candidates = self.list_models(fu=fu, kind=kind)
        if key is not None:
            candidates = [r for r in candidates if r.key == key]
        if version is not None:
            candidates = [r for r in candidates if r.version == version]
        for record in candidates:  # newest first
            try:
                body = self._fetch_checked(
                    f"/registry/artifact/{record.model_id}")
            except RemoteStoreError as exc:
                if self._is_404(exc):
                    continue  # artifact gone server-side; next-newest
                raise
            model, _ = loads_model(body, source=record.model_id)
            return model, record
        raise LookupError(
            f"no published model for fu={fu!r} kind={kind!r}"
            + (f" key={key!r}" if key else "")
            + (f" version={version}" if version else ""))

    def gc(self, keep: int = 1, dry_run: bool = False) -> RegistryGCReport:
        body = self._call("/registry/gc",
                          {"keep": int(keep), "dry_run": dry_run})
        return RegistryGCReport(**body["report"])
