"""Benchmark-side tracing: timing shims around each layer's entry points.

:class:`Tracer` swaps the public entry points of the program's layers for
thin wrappers that record one :class:`Span` per call, keeps the spans in
memory, and puts the originals back when tracing stops.  Nothing under
``src/`` changes; in-program spans are a separate, later piece of work.

Self time is computed on the timeline, not per call tree, because the
serving workload runs the engine on the server's batcher thread while
the client thread waits: every instant of a traced window goes to the deepest
span active at that instant, or to ``unattributed`` when none is.  Within
one thread that is the classic "duration minus the time child spans
cover"; across threads it makes the layer self times plus the
unattributed remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core import features
from repro.core.model import TEVoT
from repro.flow.campaign import CampaignRunner
from repro.flow.tracestore import TraceStore
from repro.serve.client import ServeClient
from repro.serve.engine import PredictionEngine
from repro.serve.registry import ModelRegistry
from repro.sim.compile import CompiledNetlist

#: (owner, attribute, layer).  Layer names follow the module that owns
#: the entry point; ``serve.server`` is one client POST, so its self time
#: is everything the HTTP front end and batcher add around the engine.
SHIM_TARGETS = (
    (CompiledNetlist, "__init__", "sim.compile.lower"),
    (CampaignRunner, "run", "flow.campaign.run"),
    (TraceStore, "put", "flow.tracestore.put"),
    (features, "build_training_set", "core.features.build"),
    (TEVoT, "fit", "ml.fit"),
    (TEVoT, "predict_delay", "ml.predict"),
    (ModelRegistry, "publish", "serve.registry.publish"),
    (ModelRegistry, "resolve", "serve.registry.resolve"),
    (PredictionEngine, "predict_batch", "serve.engine.batch"),
    (ServeClient, "predict_many", "serve.server"),
)


@dataclass
class Span:
    layer: str
    start: float
    end: float
    #: nesting depth on the timeline: call depth within the thread, plus
    #: one on threads other than the one that started the tracer (server
    #: threads work on behalf of a client span that is already open).
    depth: int


@dataclass
class CampaignRun:
    """What one traced ``CampaignRunner.run`` reported in its stats."""

    sim_s: float
    wall_s: float
    shards: int
    workers: int


class Tracer:
    """In-memory span recorder; :meth:`start`/:meth:`stop` bracket a
    traced window and install/remove the shims."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.windows: List[Tuple[float, float]] = []
        self.campaign_runs: List[CampaignRun] = []
        self.last_fit = None  # the most recently fitted TEVoT
        self._owner = None  # the thread that issues workload operations
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []
        self._window_start = None

    def start(self) -> None:
        if self._window_start is not None:
            raise RuntimeError("tracer already started")
        self._owner = threading.get_ident()
        for owner, attr, layer in SHIM_TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        self._window_start = time.perf_counter()

    def stop(self) -> None:
        if self._window_start is None:
            raise RuntimeError("tracer not started")
        self.windows.append((self._window_start, time.perf_counter()))
        self._window_start = None
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            depth = len(stack) + (
                0 if threading.get_ident() == tracer._owner else 1)
            stack.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(layer, start, end, depth))
            if layer == "flow.campaign.run":
                runner = args[0]
                tracer.campaign_runs.append(CampaignRun(
                    runner.stats.sim_seconds, runner.stats.wall_seconds,
                    runner.stats.total_shards, runner.n_workers))
            elif layer == "ml.fit":
                tracer.last_fit = result
            return result

        return shim

    # -- reduction -------------------------------------------------------------

    def wall_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    def self_times(self) -> Tuple[List[float], float]:
        """Per-span self time (aligned with :attr:`spans`) and the traced
        wall time no span covers."""
        events = []
        for i, span in enumerate(self.spans):
            events.append((span.start, 1, i))
            events.append((span.end, 0, i))
        events.sort()
        own = [0.0] * len(self.spans)
        active: Dict[int, Span] = {}
        prev = None
        for t, opening, i in events:
            if active and t > prev:
                top = max(active, key=lambda k: (active[k].depth,
                                                 active[k].start))
                own[top] += t - prev
            prev = t
            if opening:
                active[i] = self.spans[i]
            else:
                del active[i]
        return own, self.wall_s() - sum(own)

    def layer_summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: call count, total duration and total self time (s),
        plus an ``unattributed`` entry; self times and the remainder sum
        to :meth:`wall_s`."""
        own, unattributed = self.self_times()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, own):
            entry = out[span.layer]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += self_s
        out["unattributed"]["self_s"] = unattributed
        return dict(out)
