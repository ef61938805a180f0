"""Online inference: model registry + micro-batching prediction serving.

The offline pipeline trains delay regressors; this package serves them:

* :mod:`repro.serve.registry` — versioned on-disk
  :class:`ModelRegistry` (``publish`` / ``resolve`` / ``list`` /
  ``gc``), keyed by FU, corner grid, training-stream fingerprint, and
  feature-spec version;
* :mod:`repro.serve.engine` — long-lived :class:`PredictionEngine`
  keeping models hot, chaining per-stream history, micro-batching
  mixed-corner requests into single forest passes, and falling back to
  gate-level simulation for unpublished FUs;
* :mod:`repro.serve.requestlog` — append-only sealed JSONL
  :class:`RequestLog` of every executed batch, and :func:`replay_log`
  (``repro serve --replay``) re-driving it bit-exact;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — stdlib
  HTTP/JSON server (``repro serve``, one process, one in-process
  engine) and :class:`ServeClient`, the one retrying client, which
  raises :class:`ServeError`; both ends share the HTTP/1.1 codec in
  :mod:`repro.serve.http`.

The request path is bounded end to end: the queue sheds overload with
``429`` + ``Retry-After``, and per-request deadlines expire to ``504``
instead of executing stale work.
"""

from .client import ServeClient, ServeError
from .engine import (
    EngineStats,
    Prediction,
    PredictionEngine,
    PredictRequest,
    expired_prediction,
    validate_request,
)
from .registry import (
    MODEL_KINDS,
    ModelRecord,
    ModelRegistry,
    RegistryGCReport,
    corner_fingerprint,
    fu_fingerprint,
    model_key,
    stream_fingerprint,
)
from .requestlog import (
    ReplayMismatch,
    ReplayReport,
    RequestLog,
    read_request_log,
    replay_log,
)
from .server import (
    MicroBatcher,
    PredictionServer,
    QueueFullError,
)

__all__ = [
    "EngineStats",
    "MODEL_KINDS",
    "MicroBatcher",
    "ModelRecord",
    "ModelRegistry",
    "Prediction",
    "PredictionEngine",
    "PredictionServer",
    "PredictRequest",
    "QueueFullError",
    "RegistryGCReport",
    "ReplayMismatch",
    "ReplayReport",
    "RequestLog",
    "ServeClient",
    "ServeError",
    "corner_fingerprint",
    "expired_prediction",
    "fu_fingerprint",
    "model_key",
    "read_request_log",
    "replay_log",
    "stream_fingerprint",
    "validate_request",
]
