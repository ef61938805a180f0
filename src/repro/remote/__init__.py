"""Remote store access: one process owns the stores, the rest dial in.

The bliss/conductor pattern applied to this repo's persistence layer:

* :mod:`repro.remote.service` — :class:`StoreService`, a stdlib HTTP
  server (``repro store serve --root DIR``) owning a local
  :class:`~repro.flow.tracestore.TraceStore` +
  :class:`~repro.serve.registry.ModelRegistry` under the advisory
  store lock, exposing their full surface (trace get/put with npz blob
  streaming, throughput history, model publish/resolve/list/gc,
  manifest fingerprints) plus a long-poll event feed
  (``/events?since=seq``) announcing every publish/gc;
* :mod:`repro.remote.client` — :class:`RemoteTraceStore` and
  :class:`RemoteModelRegistry`, duck-typed drop-ins for the local
  classes: byte-identical cache/model keys (key derivation stays
  client-side), retry/backoff shared with
  :class:`~repro.serve.client.ServeClient` via
  :mod:`repro.serve.http`, and loud typed errors on version skew
  (:class:`RemoteProtocolError`) or torn blob streams
  (:class:`RemoteChecksumError`);
* :mod:`repro.remote.events` — :class:`EventSubscriber`, the
  daemon-thread long-poller behind push-based model rollout:
  ``PredictionEngine`` refreshes on publish events instead of waiting
  for a manual ``POST /models/refresh``.

``Workspace("http://host:port")`` routes the whole
characterize → train → publish → predict flow through these clients,
so a box that shares no filesystem with the store runs the full flow.
"""

from .client import (
    PROTOCOL_VERSION,
    RemoteChecksumError,
    RemoteModelRegistry,
    RemoteProtocolError,
    RemoteStoreError,
    RemoteTraceStore,
)
from .events import EventSubscriber
from .service import StoreService

__all__ = [
    "EventSubscriber",
    "PROTOCOL_VERSION",
    "RemoteChecksumError",
    "RemoteModelRegistry",
    "RemoteProtocolError",
    "RemoteStoreError",
    "RemoteTraceStore",
    "StoreService",
]
