"""Long-lived prediction engine: hot models + micro-batched inference.

The paper's query-time claim is that one trained delay regressor
replaces gate-level simulation for any workload, corner, and clock.
:class:`PredictionEngine` operationalizes that:

* resolved models stay **hot** in an LRU cache instead of being
  re-unpickled per request (the one-shot ``predict`` CLI reloads from
  scratch every call);
* per-stream **history state** is maintained server-side — the Eq.-3
  feature vector needs ``x[t-1]``, so the engine remembers the last
  operands seen on each ``(FU, stream_id)`` and chains requests into
  exactly the feature rows offline
  :func:`~repro.core.features.build_feature_matrix` would build.
  Served predictions are therefore bit-identical to offline ones;
* incoming requests are **micro-batched**: any mix of corners, clocks,
  and streams for one model collapses into a single vectorized
  ``RandomForestRegressor`` pass, because voltage and temperature are
  feature columns, not separate models;
* when no published model matches an FU the engine **falls back to
  gate-level simulation** through
  :class:`~repro.flow.campaign.CampaignRunner`, chaining each stream's
  requests into a short operand stream — slower, but never wrong.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit, build_functional_unit
from ..core.features import operand_bits
from ..flow.campaign import DEFAULT_BACKEND, CampaignJob, CampaignRunner
from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream
from .registry import ModelRegistry, open_model_registry


@dataclass
class PredictRequest:
    """One (FU, condition, operands, clock) inference request.

    ``stream_id`` names the logical operand stream the request belongs
    to; the engine keeps the previous operands per (FU, stream) so the
    history features chain across requests.  ``prev_a``/``prev_b``
    override the stored history explicitly (e.g. stateless replay).
    ``clock_period`` (ps) is optional — when given, the response also
    carries the paper's timing-error classification.

    ``deadline_ms`` is the request's total latency budget, relative to
    its arrival at the server (clients derive it from their own
    timeout).  A request still queued when the budget runs out is
    answered *expired* (HTTP 504) instead of silently computed into the
    void; ``None`` defers to the server's ``default_deadline_ms``.
    """

    fu: str
    a: int
    b: int
    voltage: float
    temperature: float
    clock_period: Optional[float] = None
    stream_id: str = "default"
    prev_a: Optional[int] = None
    prev_b: Optional[int] = None
    deadline_ms: Optional[float] = None

    def condition(self) -> OperatingCondition:
        return OperatingCondition(self.voltage, self.temperature)

    def as_dict(self) -> Dict:
        """Plain-JSON payload; ``from_dict`` reconstructs it exactly."""
        return {"fu": self.fu, "a": self.a, "b": self.b,
                "voltage": self.voltage, "temperature": self.temperature,
                "clock_period": self.clock_period,
                "stream_id": self.stream_id,
                "prev_a": self.prev_a, "prev_b": self.prev_b,
                "deadline_ms": self.deadline_ms}

    @classmethod
    def from_dict(cls, data: Dict) -> "PredictRequest":
        try:
            return cls(
                fu=str(data["fu"]), a=int(data["a"]), b=int(data["b"]),
                voltage=float(data["voltage"]),
                temperature=float(data["temperature"]),
                clock_period=(None if data.get("clock_period") is None
                              else float(data["clock_period"])),
                stream_id=str(data.get("stream_id", "default")),
                prev_a=(None if data.get("prev_a") is None
                        else int(data["prev_a"])),
                prev_b=(None if data.get("prev_b") is None
                        else int(data["prev_b"])),
                deadline_ms=(None if data.get("deadline_ms") is None
                             else float(data["deadline_ms"])))
        except KeyError as exc:
            raise ValueError(f"predict request missing field {exc}") from None


#: ``Prediction.source`` value marking a request whose deadline ran out
#: before it executed — the HTTP layer maps it to 504 and
#: the request log records it as a non-executed ``dropped`` entry.
EXPIRED_SOURCE = "expired"


def expired_prediction() -> "Prediction":
    """The canonical answer for a request that outlived its deadline."""
    return Prediction(ok=False, source=EXPIRED_SOURCE,
                      message="deadline exceeded")


@dataclass
class Prediction:
    """Engine answer for one request."""

    ok: bool
    delay_ps: Optional[float] = None
    timing_error: Optional[bool] = None
    source: str = ""            # "model", "sim", or "expired"
    model_id: Optional[str] = None
    message: str = ""

    @property
    def expired(self) -> bool:
        return self.source == EXPIRED_SOURCE

    def as_dict(self) -> Dict:
        return {"ok": self.ok, "delay_ps": self.delay_ps,
                "timing_error": self.timing_error, "source": self.source,
                "model_id": self.model_id, "message": self.message}


@dataclass
class EngineStats:
    """Counters since engine construction (or :meth:`reset_stats`)."""

    requests: int = 0
    batches: int = 0
    served_by_model: int = 0
    served_by_sim: int = 0
    failed: int = 0
    model_cache_hits: int = 0
    model_cache_misses: int = 0
    per_fu: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {"requests": self.requests, "batches": self.batches,
                "served_by_model": self.served_by_model,
                "served_by_sim": self.served_by_sim, "failed": self.failed,
                "model_cache_hits": self.model_cache_hits,
                "model_cache_misses": self.model_cache_misses,
                "per_fu": dict(self.per_fu)}


def validate_request(request: PredictRequest, fu_lookup) -> Optional[str]:
    """Validate one request; return the failure message or None.

    Runs before any history advances, so a rejected request never
    touches per-stream state.
    """
    try:
        request.condition()  # validates the (V, T) ranges
        fu_lookup(request.fu)
        clock, deadline = request.clock_period, request.deadline_ms
        # chained comparisons are False for NaN, so NaN fails too
        if clock is not None and not 0 < clock < math.inf:
            raise ValueError(f"clock_period must be finite and positive, "
                             f"got {clock!r}")
        if deadline is not None and not 0 < deadline < math.inf:
            raise ValueError(f"deadline_ms must be finite and positive, "
                             f"got {deadline!r}")
    except (ValueError, KeyError) as exc:
        return str(exc)
    return None


class PredictionEngine:
    """Serves delay predictions from a registry, with sim fallback.

    Parameters
    ----------
    registry:
        A :class:`~repro.serve.registry.ModelRegistry` or its root
        directory.  ``None`` disables model serving entirely (every
        request uses the simulation fallback).
    kind:
        Which published model kind to serve (default ``"tevot"``).
    sim_fallback:
        Run gate-level simulation for FUs with no published model.
    backend:
        Simulation backend for the fallback path.
    max_hot_models:
        LRU capacity of the resolved-model cache.
    max_streams:
        LRU capacity of the per-stream history state — bounds server
        memory when clients mint fresh ``stream_id`` values forever.

    A remote registry (one exposing ``subscribe_events``) is subscribed
    to on construction: every publish/gc the store service announces
    triggers :meth:`refresh`, so new versions roll out by push.
    """

    def __init__(self, registry: Union[ModelRegistry, str, None] = None,
                 kind: str = "tevot", sim_fallback: bool = True,
                 backend: str = DEFAULT_BACKEND,
                 max_hot_models: int = 8,
                 max_streams: int = 4096) -> None:
        if max_hot_models < 1:
            raise ValueError("max_hot_models must be >= 1")
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if registry is None or not isinstance(registry, (str, Path)):
            self.registry = registry  # a registry object (local or remote)
        else:
            self.registry = open_model_registry(registry)
        self.kind = kind
        self.sim_fallback = sim_fallback
        # fallback runner: cache disabled — two-row serving streams
        # would churn the shared characterization store
        self._runner = CampaignRunner(backend=backend, use_cache=False)
        self.max_hot_models = max_hot_models
        self.max_streams = max_streams
        self._hot: "OrderedDict[str, Tuple[object, object]]" = OrderedDict()
        # FUs known to have no published model; cleared by refresh()
        self._unpublished: set = set()
        self._history: "OrderedDict[Tuple[str, str], Tuple[int, int]]" \
            = OrderedDict()
        self._fus: Dict[str, FunctionalUnit] = {}
        self._lock = threading.Lock()
        self.stats = EngineStats()
        self._push = None
        subscribe = getattr(self.registry, "subscribe_events", None)
        if callable(subscribe):
            self._push = subscribe(self.refresh)

    def close(self) -> None:
        """Stop the push subscriber (idempotent; no-op without one)."""
        if self._push is not None:
            self._push.close()
            self._push = None

    # -- model / FU resolution ------------------------------------------------

    def _functional_unit(self, fu_name: str) -> FunctionalUnit:
        fu = self._fus.get(fu_name)
        if fu is None:
            fu = build_functional_unit(fu_name)
            self._fus[fu_name] = fu
        return fu

    def _resolve_model(self, fu_name: str):
        """Hot model + record for an FU, or None when unpublished.

        Both outcomes are cached until :meth:`refresh` — a fallback-only
        FU must not re-read the registry manifest on every batch.
        """
        entry = self._hot.get(fu_name)
        if entry is not None:
            self._hot.move_to_end(fu_name)
            self.stats.model_cache_hits += 1
            return entry
        if fu_name in self._unpublished:
            self.stats.model_cache_hits += 1
            return None
        self.stats.model_cache_misses += 1
        if self.registry is None:
            self._unpublished.add(fu_name)
            return None
        try:
            model, record = self.registry.resolve(fu_name, kind=self.kind)
        except LookupError:
            self._unpublished.add(fu_name)
            return None
        self._hot[fu_name] = (model, record)
        while len(self._hot) > self.max_hot_models:
            self._hot.popitem(last=False)
        return model, record

    def refresh(self) -> None:
        """Drop hot models and negative-resolution entries so newly
        published versions get picked up."""
        with self._lock:
            self._hot.clear()
            self._unpublished.clear()

    def reset_stream(self, fu: Optional[str] = None,
                     stream_id: Optional[str] = None) -> None:
        """Forget stored history (all streams, or one FU/stream)."""
        with self._lock:
            self._history = OrderedDict(
                (k, v) for k, v in self._history.items()
                if (fu is not None and k[0] != fu)
                or (stream_id is not None and k[1] != stream_id))

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = EngineStats()

    # -- inference ------------------------------------------------------------

    def predict_one(self, request: PredictRequest) -> Prediction:
        """Single-request convenience; raises on failure."""
        result = self.predict_batch([request])[0]
        if not result.ok:
            raise ValueError(result.message or "prediction failed")
        return result

    def predict_batch(self, requests: Sequence[PredictRequest]
                      ) -> List[Prediction]:
        """Serve a micro-batch in one pass per distinct model.

        Results align with ``requests``.  Requests sharing a
        ``(fu, stream_id)`` chain their history in list order; requests
        for different FUs or corners batch freely — V and T are feature
        columns, so a single forest pass covers a corner mix.
        """
        with self._lock:
            return self._predict_batch_locked(list(requests))

    def _predict_batch_locked(self, requests: List[PredictRequest]
                              ) -> List[Prediction]:
        results: List[Optional[Prediction]] = [None] * len(requests)
        self.stats.batches += 1
        self.stats.requests += len(requests)

        # validate + group by FU, preserving request order per group
        groups: Dict[str, List[int]] = {}
        for i, req in enumerate(requests):
            failure = validate_request(req, self._functional_unit)
            if failure is not None:
                results[i] = Prediction(ok=False, message=failure)
                self.stats.failed += 1
                continue
            groups.setdefault(req.fu, []).append(i)
            self.stats.per_fu[req.fu] = self.stats.per_fu.get(req.fu, 0) + 1

        for fu_name, idxs in groups.items():
            resolved = self._resolve_model(fu_name)
            try:
                if resolved is not None:
                    model, record = resolved
                    batch = self._predict_with_model(
                        fu_name, model, [requests[i] for i in idxs])
                    for pred in batch:
                        pred.model_id = record.model_id
                    self.stats.served_by_model += len(idxs)
                elif self.sim_fallback:
                    batch = self._predict_with_sim(
                        fu_name, [requests[i] for i in idxs])
                    self.stats.served_by_sim += len(idxs)
                else:
                    raise LookupError(
                        f"no published {self.kind!r} model for FU "
                        f"{fu_name!r} and simulation fallback is disabled")
            except (LookupError, ValueError) as exc:
                batch = [Prediction(ok=False, message=str(exc))
                         for _ in idxs]
                self.stats.failed += len(idxs)
            for i, pred in zip(idxs, batch):
                results[i] = pred
        return results  # type: ignore[return-value]

    def _chain_history(self, fu_name: str, requests: List[PredictRequest],
                       width: int):
        """Current/previous operand arrays, advancing stored state.

        Request i's history is (in priority order) its explicit
        ``prev_*``, the previous request on the same stream within this
        batch, the stored cross-batch state, or — for a stream's very
        first request — its own operands (a steady input: no
        transition, matching a two-row stream ``[x, x]``).
        """
        mask = (1 << width) - 1
        cur_a = np.empty(len(requests), dtype=np.uint64)
        cur_b = np.empty(len(requests), dtype=np.uint64)
        prev_a = np.empty(len(requests), dtype=np.uint64)
        prev_b = np.empty(len(requests), dtype=np.uint64)
        for i, req in enumerate(requests):
            a, b = req.a & mask, req.b & mask
            state_key = (fu_name, req.stream_id)
            if req.prev_a is not None or req.prev_b is not None:
                pa = (req.prev_a if req.prev_a is not None else a) & mask
                pb = (req.prev_b if req.prev_b is not None else b) & mask
            else:
                pa, pb = self._history.get(state_key, (a, b))
            cur_a[i], cur_b[i] = a, b
            prev_a[i], prev_b[i] = pa, pb
            self._history[state_key] = (a, b)
            self._history.move_to_end(state_key)
        while len(self._history) > self.max_streams:
            self._history.popitem(last=False)
        return cur_a, cur_b, prev_a, prev_b

    def _predict_with_model(self, fu_name: str, model,
                            requests: List[PredictRequest]
                            ) -> List[Prediction]:
        """One vectorized regressor pass over the whole group."""
        spec = model.spec
        width = spec.operand_width
        cur_a, cur_b, prev_a, prev_b = self._chain_history(
            fu_name, requests, width)

        parts = [operand_bits(cur_a, width), operand_bits(cur_b, width)]
        if spec.include_history:
            parts += [operand_bits(prev_a, width),
                      operand_bits(prev_b, width)]
        volts = np.array([r.voltage for r in requests],
                         dtype=np.float32)[:, None]
        temps = np.array([r.temperature for r in requests],
                         dtype=np.float32)[:, None]
        X = np.concatenate(parts + [volts, temps], axis=1)

        delays = model.predict_delay(X)
        return [self._finish(req, float(d), "model")
                for req, d in zip(requests, delays)]

    def _predict_with_sim(self, fu_name: str,
                          requests: List[PredictRequest]
                          ) -> List[Prediction]:
        """Gate-level fallback: chain each stream into one sim job.

        Consecutive same-stream requests share one operand stream (one
        simulated cycle each); the unique corners of the group become
        the job's condition axis and each request reads its own
        ``(corner row, cycle)`` cell of the resulting delay matrix.
        """
        fu = self._functional_unit(fu_name)
        width = fu.operand_width
        cur_a, cur_b, prev_a, prev_b = self._chain_history(
            fu_name, requests, width)

        # split into chained segments: a segment breaks where a
        # request's history is not the previous request's operands
        segments: List[List[int]] = []
        seg_stream: Dict[str, int] = {}
        for i, req in enumerate(requests):
            seg_idx = seg_stream.get(req.stream_id)
            if (seg_idx is not None
                    and prev_a[i] == cur_a[segments[seg_idx][-1]]
                    and prev_b[i] == cur_b[segments[seg_idx][-1]]):
                segments[seg_idx].append(i)
            else:
                seg_stream[req.stream_id] = len(segments)
                segments.append([i])

        conditions = []
        cond_row: Dict[OperatingCondition, int] = {}
        for req in requests:
            cond = req.condition()
            if cond not in cond_row:
                cond_row[cond] = len(conditions)
                conditions.append(cond)

        jobs = []
        for seg in segments:
            a = np.concatenate(([prev_a[seg[0]]], cur_a[seg]))
            b = np.concatenate(([prev_b[seg[0]]], cur_b[seg]))
            stream = OperandStream(
                f"serve_{fu_name}_{requests[seg[0]].stream_id}", a, b)
            jobs.append(CampaignJob(fu, stream, conditions))
        traces = self._runner.run(jobs)

        results: List[Optional[Prediction]] = [None] * len(requests)
        for seg, trace in zip(segments, traces):
            for cycle, i in enumerate(seg):
                req = requests[i]
                delay = float(trace.delays[cond_row[req.condition()], cycle])
                results[i] = self._finish(req, delay, "sim")
        return [r for r in results if r is not None]

    @staticmethod
    def _finish(req: PredictRequest, delay: float,
                source: str) -> Prediction:
        # clock_period was validated up front, before history advanced
        timing_error = (None if req.clock_period is None
                        else bool(delay > req.clock_period))
        return Prediction(ok=True, delay_ps=delay,
                          timing_error=timing_error, source=source)

    # -- introspection --------------------------------------------------------

    def stats_dict(self) -> Dict:
        with self._lock:
            stats = self.stats.as_dict()
        if self._push is not None:
            stats["push"] = self._push.stats()
        return stats
