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
  and streams for one model collapses into a single regressor pass,
  because voltage and temperature are feature columns, not separate
  models.  A batch small enough for the forest to walk row by row
  (at most its ``walk_max_rows``, a few requests) is built as Python
  float rows by :func:`~repro.core.features.feature_row` and never
  becomes a numpy array; a larger one is one float32 feature matrix
  descended in numpy rounds;
* when no published model matches an FU the engine **falls back to
  gate-level simulation** through
  :class:`~repro.flow.campaign.CampaignRunner`, chaining each stream's
  requests into a short operand stream — slower, but never wrong.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict
from itertools import chain
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit, build_functional_unit
from ..core.features import feature_row, operand_bits
from ..flow.campaign import DEFAULT_BACKEND, CampaignJob, CampaignRunner
from ..timing.corners import OperatingCondition, check_condition
from ..workloads.streams import OperandStream
from .registry import ModelRegistry


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
        """Rebuild a request from its JSON form.  Operands must be JSON
        integers: a float, bool or string raises ValueError instead of
        being truncated or coerced."""
        try:
            return cls(
                fu=str(data["fu"]), a=_operand(data, "a"),
                b=_operand(data, "b"),
                voltage=float(data["voltage"]),
                temperature=float(data["temperature"]),
                clock_period=(None if data.get("clock_period") is None
                              else float(data["clock_period"])),
                stream_id=str(data.get("stream_id", "default")),
                prev_a=_operand(data, "prev_a", optional=True),
                prev_b=_operand(data, "prev_b", optional=True),
                deadline_ms=(None if data.get("deadline_ms") is None
                             else float(data["deadline_ms"])))
        except KeyError as exc:
            raise ValueError(f"predict request missing field {exc}") from None


def _operand(data: Dict, name: str, optional: bool = False
             ) -> Optional[int]:
    value = data.get(name) if optional else data[name]
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


def validate_request(request: PredictRequest, fu_lookup,
                     operand_width: Optional[int] = None) -> Optional[str]:
    """Validate one request; return the failure message or None.

    Operands (``a``, ``b`` and any ``prev_*``) must lie in
    ``[0, 2**operand_width)``, by default the FU's width; the engine
    passes the width of the model that serves the FU.  Runs before any
    history advances, so a rejected request never touches per-stream
    state.
    """
    try:
        check_condition(request.voltage, request.temperature)
        fu = fu_lookup(request.fu)
        width = operand_width or fu.operand_width
        for name in ("a", "b", "prev_a", "prev_b"):
            value = getattr(request, name)
            if value is not None and not 0 <= value < 1 << width:
                raise ValueError(f"{name} must be in [0, 2**{width}), "
                                 f"got {value!r}")
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
        if isinstance(registry, (str, Path)):
            registry = ModelRegistry(registry)
        self.registry = registry
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
        #: set by refresh(); the next batch drops the model caches
        self._stale = False
        self.stats = EngineStats()
        #: counters as of the last finished batch, for stats_dict()
        self._stats_view = self.stats.as_dict()

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
        published versions get picked up.

        Never waits on a running batch: the caches are dropped when the
        next batch starts.
        """
        self._stale = True

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
            self._stats_view = self.stats.as_dict()

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
            try:
                return self._predict_batch_locked(list(requests))
            finally:
                self._stats_view = self.stats.as_dict()

    def _predict_batch_locked(self, requests: List[PredictRequest]
                              ) -> List[Prediction]:
        if self._stale:  # cleared first: a refresh from now on counts
            self._stale = False
            self._hot.clear()
            self._unpublished.clear()
        results: List[Optional[Prediction]] = [None] * len(requests)
        self.stats.batches += 1
        self.stats.requests += len(requests)

        # validate + group by FU, preserving request order per group
        models: Dict[str, object] = {}
        groups: Dict[str, List[int]] = {}
        for i, req in enumerate(requests):
            failure = validate_request(req, self._functional_unit,
                                       self._serving_width(req.fu, models))
            if failure is not None:
                results[i] = Prediction(ok=False, message=failure)
                self.stats.failed += 1
                continue
            groups.setdefault(req.fu, []).append(i)

        for fu_name, idxs in groups.items():
            per_fu = self.stats.per_fu
            per_fu[fu_name] = per_fu.get(fu_name, 0) + len(idxs)
            resolved = models[fu_name]
            try:
                if resolved is not None:
                    model, record = resolved
                    batch = self._predict_with_model(
                        fu_name, model, record.model_id,
                        [requests[i] for i in idxs])
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

    def _serving_width(self, fu_name: str, models: Dict[str, object]
                       ) -> Optional[int]:
        """Operand width ``fu_name`` is served at: its model's, else the
        FU's; None for an unknown FU (validation reports it).  Resolves
        the model once per batch into ``models``."""
        if fu_name not in models:
            try:
                self._functional_unit(fu_name)
            except (KeyError, ValueError):
                return None
            models[fu_name] = self._resolve_model(fu_name)
        resolved = models[fu_name]
        if resolved is not None:
            return resolved[0].spec.operand_width
        return self._functional_unit(fu_name).operand_width

    def _chain_history(self, fu_name: str, requests: List[PredictRequest]
                       ) -> List[Tuple[int, int, int, int]]:
        """``(a, b, prev_a, prev_b)`` of each request as Python ints,
        advancing stored state.

        Request i's history is (in priority order) its explicit
        ``prev_*``, the previous request on the same stream within this
        batch, the stored cross-batch state, or — for a stream's very
        first request — its own operands (a steady input: no
        transition, matching a two-row stream ``[x, x]``).  Operands
        were range-checked by :func:`validate_request`.
        """
        history = self._history
        words = []
        for req in requests:
            a, b = int(req.a), int(req.b)
            state_key = (fu_name, req.stream_id)
            if req.prev_a is not None or req.prev_b is not None:
                pa = int(req.prev_a) if req.prev_a is not None else a
                pb = int(req.prev_b) if req.prev_b is not None else b
            else:
                pa, pb = history.get(state_key, (a, b))
            words.append((a, b, pa, pb))
            history[state_key] = (a, b)
            history.move_to_end(state_key)
        while len(history) > self.max_streams:
            history.popitem(last=False)
        return words

    def _predict_with_model(self, fu_name: str, model, model_id: str,
                            requests: List[PredictRequest]
                            ) -> List[Prediction]:
        """One regressor pass over the whole group.

        A group the model walks row by row (at most its
        ``walk_max_rows`` requests) is built as Python float rows by
        :func:`~repro.core.features.feature_row`; a larger one as one
        float32 matrix by :func:`~repro.core.features.operand_bits`.
        Both hold the values of the offline feature rows.
        """
        spec = model.spec
        width = spec.operand_width
        n_words = 4 if spec.include_history else 2
        words = self._chain_history(fu_name, requests)
        n = len(requests)
        if n <= getattr(model, "walk_max_rows", 0):
            X = [feature_row(w[:n_words], req.voltage, req.temperature,
                             width)
                 for w, req in zip(words, requests)]
        else:
            flat = np.fromiter(chain.from_iterable(words), np.uint64, 4 * n)
            bits = operand_bits(flat.reshape(n, 4)[:, :n_words].ravel(),
                                width)
            volts = np.array([req.voltage for req in requests], np.float32)
            temps = np.array([req.temperature for req in requests],
                             np.float32)
            X = np.concatenate((bits.reshape(n, -1), volts[:, None],
                                temps[:, None]), axis=1)

        delays = np.asarray(model.predict_delay(X)).tolist()
        return [self._finish(req, float(d), "model", model_id)
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
        words = self._chain_history(fu_name, requests)

        # split into chained segments: a segment breaks where a
        # request's history is not the previous request's operands
        segments: List[List[int]] = []
        seg_stream: Dict[str, int] = {}
        for i, req in enumerate(requests):
            seg_idx = seg_stream.get(req.stream_id)
            if (seg_idx is not None
                    and words[i][2:] == words[segments[seg_idx][-1]][:2]):
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
            # the first request's history, then each request's operands
            first = words[seg[0]]
            a = np.array([first[2]] + [words[i][0] for i in seg], np.uint64)
            b = np.array([first[3]] + [words[i][1] for i in seg], np.uint64)
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
    def _finish(req: PredictRequest, delay: float, source: str,
                model_id: Optional[str] = None) -> Prediction:
        # clock_period was validated up front, before history advanced
        timing_error = (None if req.clock_period is None
                        else bool(delay > req.clock_period))
        # positional: a keyword call costs about as much as the rest
        return Prediction(True, delay, timing_error, source, model_id)

    # -- introspection --------------------------------------------------------

    def stats_dict(self) -> Dict:
        """Counters as of the last finished batch; never waits on a
        running one."""
        return dict(self._stats_view)
