"""The ``Workspace`` facade: one front door over the whole flow.

A :class:`Workspace` owns the on-disk state of a deployment — the
characterization :class:`~repro.flow.tracestore.TraceStore` and the
serving :class:`~repro.serve.registry.ModelRegistry` — and executes
declarative :mod:`repro.api.specs` against it:

* :meth:`characterize` — the campaign path (what ``repro campaign``
  / ``repro characterize`` run; ``spec.cache=False`` bypasses the
  trace store);
* :meth:`train` — characterize a training stream, fit TEVoT, save and
  optionally publish the artifact;
* :meth:`predict` — TER estimates for a saved artifact over a workload
  spec;
* :meth:`experiment` — the full Fig.-2 protocol
  (:func:`repro.core.pipeline.experiment_impl`);
* :meth:`serve` — build the micro-batching HTTP server over the
  workspace registry.

Spec-driven runs produce byte-identical trace-store cache keys and
model fingerprints to the equivalent hand-built
:class:`~repro.flow.campaign.CampaignRunner` / CLI-flag invocations:
the facade builds the very same streams, conditions, and jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..circuits.functional_units import FunctionalUnit, build_functional_unit
from ..core.features import build_training_set
from ..core.model import TEVoT
from ..core.pipeline import ExperimentResult, experiment_impl
from ..flow.campaign import (
    CampaignJob,
    CampaignRunner,
    CampaignStats,
    error_free_clocks,
)
from ..flow.pool import WorkerPool
from ..flow.tracestore import TraceStore
from ..sim.dta import DelayTrace
from ..timing.cells import CellLibrary, DEFAULT_LIBRARY
from ..timing.corners import sped_up_clock
from ..workloads.streams import OperandStream
from .specs import (
    CampaignSpec,
    ExperimentSpec,
    PredictSpec,
    ServeSpec,
    ShardSpec,
    SimSpec,
    SpecError,
    TrainSpec,
)

__all__ = [
    "CampaignResult",
    "PredictResult",
    "TrainResult",
    "Workspace",
]


@dataclass
class CampaignResult:
    """Traces plus run bookkeeping from one campaign spec."""

    spec: CampaignSpec
    jobs: List[CampaignJob]
    traces: List[DelayTrace]
    stats: CampaignStats

    def __iter__(self):
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)


@dataclass
class TrainResult:
    """A trained model plus where it went."""

    spec: TrainSpec
    model: TEVoT
    n_rows: int
    train_trace: DelayTrace
    stream: OperandStream
    path: Optional[Path] = None
    record: Optional[object] = None  # ModelRecord when published


@dataclass
class PredictResult:
    """Per-corner TER estimates for one workload/model pair."""

    spec: PredictSpec
    ters: Dict  # OperatingCondition -> estimated TER at the sped-up clock
    clocks: Dict  # OperatingCondition -> error-free clock period (ps)


class Workspace:
    """Owns stores + runners; executes specs.

    Also owns the persistent warm :class:`~repro.flow.pool.WorkerPool`
    used by multi-worker campaigns (``ShardSpec(workers > 1)``),
    shared across every spec run so worker program caches stay warm
    between calls.  Use the workspace as a context manager (or call
    :meth:`close`) to reap the workers deterministically.

    Parameters
    ----------
    root:
        Directory holding the workspace state: traces under
        ``root/traces``, published models under ``root/registry``.
        ``None`` (default) uses the global cache directory
        (``REPRO_CACHE_DIR``) for traces and has no registry unless
        ``registry`` names one.
    store / registry:
        Explicit overrides for either location (path or an already
        constructed :class:`TraceStore` /
        :class:`~repro.serve.registry.ModelRegistry`).
    library:
        Cell library used for every characterization.
    lock_timeout:
        Seconds workspace-built stores wait on the inter-process store
        lock before raising
        :class:`~repro.flow.durable.StoreLockTimeout` (naming the
        holder).  Raise it for workspaces shared by many concurrent
        writers; ignored for already-constructed ``store``/``registry``
        objects, which carry their own.
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 store=None, registry=None,
                 library: CellLibrary = DEFAULT_LIBRARY,
                 lock_timeout: float = 10.0) -> None:
        self.root = Path(root) if root is not None else None
        if store is None and self.root is not None:
            store = self.root / "traces"
        self._store = store
        if registry is None and self.root is not None:
            registry = self.root / "registry"
        self._registry = registry
        self.library = library
        self.lock_timeout = lock_timeout
        self._fus: Dict[str, FunctionalUnit] = {}
        self._pools: Dict[int, WorkerPool] = {}

    # -- lifecycle ------------------------------------------------------------

    def pool(self, workers: int) -> WorkerPool:
        """The workspace-owned persistent :class:`WorkerPool` of this
        width (created on first use, shared by every spec run until
        :meth:`close`).  Sharing the pool across campaigns is what
        keeps worker program caches warm between ``characterize`` /
        ``train`` / ``predict`` calls on the same FUs."""
        pool = self._pools.get(workers)
        if pool is None or pool.closed:
            pool = WorkerPool(workers)
            self._pools[workers] = pool
        return pool

    def close(self) -> None:
        """Reap every workspace-owned worker pool (idempotent).

        Also runs on ``with Workspace(...) as ws:`` exit; pools are
        additionally backstopped by a GC finalizer, so leaking a
        Workspace cannot orphan worker processes.
        """
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- owned components -----------------------------------------------------

    @property
    def store(self):
        """The workspace :class:`TraceStore` (built on first use)."""
        if self._store is None or isinstance(self._store, (str, Path)):
            self._store = TraceStore(self._store,
                                     lock_timeout=self.lock_timeout)
        return self._store

    @property
    def registry(self):
        """The workspace model registry, or None when unconfigured."""
        from ..serve.registry import ModelRegistry

        if isinstance(self._registry, (str, Path)):
            self._registry = ModelRegistry(self._registry,
                                           lock_timeout=self.lock_timeout)
        return self._registry

    def _registry_for(self, path: Optional[str]):
        """Registry override from a spec, else the workspace's own."""
        from ..serve.registry import ModelRegistry

        if path is not None:
            return ModelRegistry(path, lock_timeout=self.lock_timeout)
        return self.registry

    def resolve_path(self, path: Union[str, Path]) -> Path:
        """Anchor a relative spec path at the workspace root (if any)."""
        path = Path(path)
        if self.root is not None and not path.is_absolute():
            return self.root / path
        return path

    def functional_unit(self, name: str) -> FunctionalUnit:
        """Build (and memoize) an FU by name."""
        fu = self._fus.get(name)
        if fu is None:
            fu = build_functional_unit(name)
            self._fus[name] = fu
        return fu

    def runner(self, sim: Optional[SimSpec] = None,
               shards: Optional[ShardSpec] = None,
               cache: bool = True,
               store: Optional[str] = None) -> CampaignRunner:
        """A :class:`CampaignRunner` configured from spec fragments."""
        sim = sim or SimSpec()
        shards = shards or ShardSpec()
        # levelized_ref is an audit of the compiled kernels: reading a
        # (bit-identical, compiled-produced) cache entry would skip the
        # reference simulation entirely, so audits always run fresh
        use_cache = cache and sim.backend != "levelized_ref"
        runner_store = None
        if use_cache:
            runner_store = (TraceStore(store, lock_timeout=self.lock_timeout)
                            if store is not None else self.store)
        pool = self.pool(shards.workers) if shards.workers > 1 else None
        return CampaignRunner(
            backend=sim.backend,
            store=runner_store,
            n_workers=shards.workers,
            use_cache=use_cache,
            shard_cycles=shards.shard_cycles,
            shard_corners=shards.shard_corners,
            pool=pool)

    # -- campaign -------------------------------------------------------------

    def jobs(self, spec: CampaignSpec) -> List[CampaignJob]:
        """The campaign's job list (FU x stream x corners)."""
        conditions = spec.corners.conditions()
        jobs = []
        for name in spec.resolved_fus():
            fu = self.functional_unit(name)
            stream = spec.stream.build(name)
            jobs.append(CampaignJob(fu, stream, conditions, self.library))
        return jobs

    def characterize(self, spec: CampaignSpec) -> CampaignResult:
        """Run a campaign spec, through the trace store unless
        ``spec.cache`` is False."""
        runner = self.runner(spec.sim, spec.shards, cache=spec.cache,
                             store=spec.store)
        jobs = self.jobs(spec)
        traces = runner.run(jobs)
        return CampaignResult(spec=spec, jobs=jobs, traces=traces,
                              stats=runner.stats)

    # -- training -------------------------------------------------------------

    def train(self, spec: TrainSpec) -> TrainResult:
        """Characterize the training stream and fit a TEVoT model.

        Mirrors the ``repro train`` flag path exactly (same stream,
        conditions, and feature build), so artifacts and registry keys
        are byte-identical between the two.  ``spec.output`` saves the
        artifact; ``spec.publish`` also publishes it — into
        ``spec.registry`` when set, else the workspace registry.
        """
        if not spec.fu:
            raise SpecError("TrainSpec.fu must name a functional unit")
        conditions = spec.corners.conditions()
        fu = self.functional_unit(spec.fu)
        stream = spec.stream.build(spec.fu)
        runner = self.runner(spec.sim, spec.shards)
        trace = runner.run([CampaignJob(fu, stream, conditions,
                                        self.library)])[0]
        X, y = build_training_set(stream, conditions, trace.delays,
                                  max_rows=spec.max_rows)
        model = TEVoT().fit(X, y)
        result = TrainResult(spec=spec, model=model, n_rows=int(X.shape[0]),
                             train_trace=trace, stream=stream)
        if spec.output:
            path = Path(spec.output)
            model.save(path, metadata={"fu": spec.fu,
                                       "cycles": spec.stream.cycles,
                                       "seed": spec.stream.seed,
                                       "spec": spec.fingerprint()})
            result.path = path
        if spec.publish:
            registry = self._registry_for(spec.registry)
            if registry is None:
                raise SpecError(
                    "TrainSpec.publish requires a registry: set "
                    "TrainSpec.registry (CLI --publish DIR) or configure "
                    "the workspace (Workspace(root=...) / "
                    "Workspace(registry=...))")
            result.record = registry.publish(
                model, fu=fu, conditions=conditions, train_stream=stream)
        return result

    # -- prediction -----------------------------------------------------------

    def predict(self, spec: PredictSpec) -> PredictResult:
        """TER estimates at a sped-up clock, like ``repro predict``.

        Characterizes the workload spec for ground-truth error-free
        clocks, then queries the saved model at each corner.
        """
        if not spec.fu:
            raise SpecError("PredictSpec.fu must name a functional unit")
        if not spec.model:
            raise SpecError("PredictSpec.model must name a saved artifact")
        model = TEVoT.load(spec.model)
        conditions = spec.corners.conditions()
        fu = self.functional_unit(spec.fu)
        workload = spec.stream.build(spec.fu)
        runner = self.runner(spec.sim, spec.shards)
        trace = runner.run([CampaignJob(fu, workload, conditions,
                                        self.library)])[0]
        clocks = error_free_clocks(trace)
        ters = {}
        for cond in conditions:
            tclk = sped_up_clock(clocks[cond], spec.speedup)
            ters[cond] = model.timing_error_rate(workload, cond, tclk)
        return PredictResult(spec=spec, ters=ters, clocks=clocks)

    # -- experiments ----------------------------------------------------------

    def experiment(self, spec: ExperimentSpec) -> ExperimentResult:
        """Full Fig.-2 protocol from a declarative spec."""
        fu = self.functional_unit(spec.fu)
        train_stream = spec.train_stream.build(spec.fu)
        test_stream = spec.test_stream.build(spec.fu)
        runner = self.runner(spec.sim, spec.shards, cache=spec.cache)
        registry = self.registry if spec.publish else None
        if spec.publish and registry is None:
            raise SpecError(
                "ExperimentSpec.publish requires a workspace registry")
        return experiment_impl(
            fu, train_stream, test_stream, spec.corners.conditions(),
            self.library, max_train_rows=spec.max_rows,
            speedups=spec.speedups, seed=spec.seed, runner=runner,
            registry=registry)

    # -- serving --------------------------------------------------------------

    def engine(self, spec: ServeSpec):
        """The spec's in-process :class:`~repro.serve.PredictionEngine`."""
        from ..serve.engine import PredictionEngine

        return PredictionEngine(registry=self._registry_for(spec.registry),
                                kind=spec.kind,
                                sim_fallback=spec.fallback,
                                backend=spec.sim.backend)

    def serve(self, spec: ServeSpec):
        """A ready-to-run :class:`~repro.serve.server.PredictionServer`.

        The server is constructed (socket bound) but not serving;
        call ``serve_forever()`` or ``start_background()`` on it and
        stop it with ``close()`` (drains queued requests, then closes
        the socket and the engine).  ``spec.request_log`` opens a
        :class:`~repro.serve.requestlog.RequestLog` recording every
        executed batch for :meth:`replay`.
        """
        from ..serve.requestlog import RequestLog
        from ..serve.server import PredictionServer

        request_log = None
        if spec.request_log is not None:
            request_log = RequestLog(
                self.resolve_path(spec.request_log),
                config={"kind": spec.kind, "fallback": spec.fallback,
                        "registry": spec.registry})
        return PredictionServer(self.engine(spec), host=spec.host,
                                port=spec.port,
                                batch_window_ms=spec.batch_window_ms,
                                max_batch=spec.max_batch,
                                max_queue=spec.max_queue,
                                default_deadline_ms=spec.default_deadline_ms,
                                verbose=spec.verbose,
                                request_log=request_log)

    def replay(self, spec: ServeSpec, path):
        """Re-drive a recorded request log; see
        :func:`repro.serve.requestlog.replay_log`.

        Builds a fresh engine per the spec, replays the log bit-exact
        against it, and returns the
        :class:`~repro.serve.requestlog.ReplayReport`.
        """
        from ..serve.requestlog import replay_log

        return replay_log(self.resolve_path(path),
                          self.engine(spec).predict_batch)
