"""DTA campaigns: characterize FUs across workloads and corners.

A campaign runs a simulation engine over operand streams at many
operating conditions, yielding the delay matrices that feed training,
baselines, and every bench.  The unit of work is a
:class:`CampaignJob` — one (FU, stream, corner-grid, library) tuple —
and a :class:`CampaignRunner` executes a batch of jobs:

* results persist in a versioned
  :class:`~repro.flow.tracestore.TraceStore` keyed by netlist, stream,
  corners, **and library**, so reruns are cache hits;
* each cache miss is cut into a 2-D **corner × cycle shard grid**
  (:func:`plan_shards`): cycle ``t`` of the DTA arrival pass depends
  only on input rows ``t`` and ``t+1``, and corner rows of the delay
  matrix are computed independently, so a job splits along either
  axis (corners keep wide grids parallel even when streams are short);
* one worker runs the shards inline, more run them on a persistent
  warm :class:`~repro.flow.pool.WorkerPool` that returns each job's
  stitched matrix — both through
  :func:`~repro.flow.pool.simulate_shard`, so results are
  bit-identical for every ``n_workers`` and shard shape;
* the shard grid comes from one static heuristic over the job's
  size and the worker count, so the same job always plans the same
  grid;
* completed shards of multi-shard jobs are journaled through the
  store, so a killed campaign's rerun resumes where it stopped;
* the engine is one of the three names in
  :data:`repro.sim.engine.ENGINES`; the default is the compiled
  level-parallel engine, ``levelized_ref`` re-runs the same DTA on the
  per-gate reference loop (bit-identical delays, for audits), and
  ``event`` adds glitches.

Describe runs with :mod:`repro.api` specs and go through
:meth:`repro.api.Workspace.characterize`, or build
:class:`CampaignJob` batches for :meth:`CampaignRunner.run`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit
from ..sim.compile import KernelBuffers
from ..sim.dta import DelayTrace
from ..sim.engine import (
    CYCLE_SHARDABLE,
    DEFAULT_BACKEND,
    check_engine,
    delay_model,
)
from ..timing.cells import CellLibrary, DEFAULT_LIBRARY
from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream
from .durable import StoreLockTimeout
from .pool import JobProgram, WorkerPool, simulate_shard
from .tracestore import TraceStore, trace_key

__all__ = [
    "DEFAULT_BACKEND",
    "CampaignJob",
    "CampaignRunner",
    "CampaignStats",
    "MIN_SHARD_CYCLES",
    "ShardExec",
    "error_free_clocks",
    "plan_shards",
]

#: Smallest cycle-axis shard the auto planner will produce; jobs below
#: twice this never split along the cycle axis.  Every run of a compiled
#: program pays a fixed cost for its per-level dispatch loop whatever
#: its cycle count (~3.5 ms on ``int_mul`` at one corner, one chunk), so
#: few-corner shards shorter than this are mostly overhead: on
#: ``int_mul`` at one corner a 256-cycle shard costs ~1.4x its share of
#: a 1024-cycle run, a 128-cycle one ~2.3x.  Wide grids amortize it
#: better (~1.2x for 256 cycles at 100 corners), so a 1000-cycle,
#: 100-corner campaign job splits into four ~250-cycle shards that keep
#: all corners together, which the toggle-compacted arrival pass
#: needs.
MIN_SHARD_CYCLES = 256

#: Shard bounds: (corner_start, corner_stop, cycle_start, cycle_stop).
Shard = Tuple[int, int, int, int]


def _even_bounds(length: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[0, length)`` into ``parts`` near-equal contiguous ranges."""
    parts = max(1, min(parts, length))
    base, extra = divmod(length, parts)
    bounds = []
    start = 0
    for k in range(parts):
        stop = start + base + (1 if k < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def plan_shards(n_cycles: int, n_corners: int = 1, *,
                shard_cycles: Optional[int] = None,
                shard_corners: Optional[int] = None,
                n_workers: int = 1,
                cycle_shardable: bool = True) -> List[Shard]:
    """Plan a 2-D corner × cycle shard grid for one job.

    Each shard ``(c0, c1, t0, t1)`` covers corners ``c0 .. c1-1`` of
    cycles ``t0 .. t1-1`` and must be simulated from input rows
    ``[t0, t1 + 1)`` (one leading state row) with delay-matrix rows
    ``c0:c1`` — cycle ``t`` depends only on input rows ``t``/``t+1``
    and corner rows are elementwise-independent, which is why stitching
    the shard delay matrices back into place is bit-identical to the
    unsharded run.  Shards are returned corner-major, cycle-minor.

    Explicit ``shard_cycles``/``shard_corners`` (each ``>= 1``) fix
    the grid pitch along their own axis (ragged tails allowed); an
    axis left ``None`` is planned automatically.  A single worker
    never splits; with more, the cycle axis is cut at a fixed pitch of
    at least :data:`MIN_SHARD_CYCLES` aiming at two shards per worker
    (cycle splits are preferred: corner shards repeat the
    corner-independent settled-value pass), and the corner axis is
    split evenly only when the cycle axis alone cannot feed the pool,
    so short streams over wide grids still saturate it.
    ``cycle_shardable=False`` pins the cycle axis to a single span (for
    engines outside :data:`~repro.sim.engine.CYCLE_SHARDABLE`).
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if n_corners < 1:
        raise ValueError("n_corners must be >= 1")
    if shard_cycles is not None and shard_cycles < 1:
        raise ValueError("shard_cycles must be >= 1")
    if shard_corners is not None and shard_corners < 1:
        raise ValueError("shard_corners must be >= 1")

    if not cycle_shardable:
        pitch = n_cycles
    elif shard_cycles is not None:
        pitch = shard_cycles
    elif n_workers > 1 and n_cycles >= 2 * MIN_SHARD_CYCLES:
        pitch = max(MIN_SHARD_CYCLES, -(-n_cycles // (2 * n_workers)))
    else:
        pitch = n_cycles
    cycle_bounds = [(t0, min(t0 + pitch, n_cycles))
                    for t0 in range(0, n_cycles, pitch)]

    if shard_corners is not None:
        corner_bounds = [(c0, min(c0 + shard_corners, n_corners))
                         for c0 in range(0, n_corners, shard_corners)]
    else:
        corner_splits = 1
        if n_workers > 1 and len(cycle_bounds) < 2 * n_workers:
            corner_splits = min(n_corners,
                                -(-2 * n_workers // len(cycle_bounds)))
        corner_bounds = _even_bounds(n_corners, corner_splits)
    return [(c0, c1, t0, t1)
            for c0, c1 in corner_bounds
            for t0, t1 in cycle_bounds]


@dataclass
class CampaignJob:
    """One characterization work item."""

    fu: FunctionalUnit
    stream: OperandStream
    conditions: Sequence[OperatingCondition]
    library: CellLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)

    def key(self, delay_model: str = "dta") -> str:
        return trace_key(self.fu, self.stream, list(self.conditions),
                         self.library, delay_model)


@dataclass
class ShardExec:
    """Execution record of one shard (an entry of
    :attr:`CampaignStats.shard_log`)."""

    #: job index in the ``run()`` batch.
    job: int
    #: shard bounds (corner_start, corner_stop, cycle_start, cycle_stop).
    shard: Shard
    #: worker-side simulation seconds for this shard.
    seconds: float
    #: whether the executing worker already held the netlist's compiled
    #: program (pool runs only; None inline).
    warm: Optional[bool] = None
    #: pool slot that ran the shard (pool runs only).
    worker: Optional[int] = None


@dataclass
class CampaignStats:
    """Bookkeeping from the latest :meth:`CampaignRunner.run`.

    Per-job dicts are keyed by the job's index in the ``run()`` batch
    and only cover cache misses (cached jobs never simulate).
    ``sim_seconds`` is worker-side simulation time summed over shards —
    with sharding across a pool it exceeds ``wall_seconds``, and the
    ratio is the effective parallel speedup.
    """

    hits: int = 0
    misses: int = 0
    #: wall-clock seconds spent executing the cache-miss batch.
    wall_seconds: float = 0.0
    #: worker-side simulation seconds summed over all shards.
    sim_seconds: float = 0.0
    #: job index -> worker-side simulation seconds for that job.
    job_seconds: Dict[int, float] = field(default_factory=dict)
    #: job index -> number of shards in the job's corner × cycle grid.
    job_shards: Dict[int, int] = field(default_factory=dict)
    #: job index -> simulated cycles (the stream's cycle count).
    job_cycles: Dict[int, int] = field(default_factory=dict)
    #: job index -> corner-grid size.
    job_corners: Dict[int, int] = field(default_factory=dict)
    #: job index -> (corner_splits, cycle_splits) of the planned grid.
    job_grids: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: per-shard execution records, in completion order.
    shard_log: List[ShardExec] = field(default_factory=list)
    #: shards skipped because a journaled checkpoint from an earlier
    #: (killed) run already held their results.
    resumed_shards: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def total_shards(self) -> int:
        return sum(self.job_shards.values())

    def job_cycles_per_s(self, i: int) -> Optional[float]:
        """Effective cycles/s of job ``i`` (simulated cycles over
        worker-side sim seconds), or None for cached/instant jobs."""
        seconds = self.job_seconds.get(i)
        cycles = self.job_cycles.get(i)
        if not seconds or not cycles:
            return None
        return cycles / seconds


class CampaignRunner:
    """Executes batches of characterization jobs with caching.

    Parameters
    ----------
    backend:
        Engine name, one of :data:`repro.sim.engine.ENGINES`.
    store:
        A :class:`TraceStore`, a directory path for one, or None for
        the default cache directory.  Ignored when ``use_cache`` is
        False.
    n_workers:
        Worker count for cache misses: 1 runs inline, more run on a
        persistent warm :class:`~repro.flow.pool.WorkerPool`.  The
        pool outlives ``run()`` calls — use ``close()`` (or the runner
        as a context manager, or a pool-owning
        :class:`~repro.api.Workspace`) to reap workers.
    use_cache:
        Disable all persistence when False.
    shard_cycles / shard_corners:
        Explicit shard-grid pitch along the cycle / corner axis (the
        cycle pitch only on engines in
        :data:`~repro.sim.engine.CYCLE_SHARDABLE`).  Each fixes only its
        own axis; an axis left None (default) is sized from the job and
        ``n_workers`` (:func:`plan_shards`).
        Results are bit-identical for every shard shape and worker
        count.
    pool:
        An externally owned :class:`~repro.flow.pool.WorkerPool` to
        run on (e.g. shared across runners by a Workspace).  The
        runner never closes a pool it was given; without one it
        lazily creates and owns a pool sized ``n_workers``.

    With a store, completed shards of multi-shard jobs are journaled
    through it (see :meth:`TraceStore.record_journal_shard`) so a
    killed campaign's rerun resumes instead of re-simulating
    (``CampaignStats.resumed_shards``); the journal never affects
    results.
    """

    def __init__(self, backend: str = DEFAULT_BACKEND,
                 store: Union[TraceStore, str, Path, None] = None,
                 n_workers: int = 1, use_cache: bool = True,
                 shard_cycles: Optional[int] = None,
                 shard_corners: Optional[int] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if shard_cycles is not None and shard_cycles < 1:
            raise ValueError("shard_cycles must be >= 1")
        if shard_corners is not None and shard_corners < 1:
            raise ValueError("shard_corners must be >= 1")
        check_engine(backend)
        self.backend = backend
        if not use_cache:
            self.store = None
        elif store is None or isinstance(store, (str, Path)):
            self.store = TraceStore(store)
        else:
            self.store = store
        self.n_workers = n_workers
        self.shard_cycles = shard_cycles
        self.shard_corners = shard_corners
        self._pool = pool
        self._owns_pool = False
        self.stats = CampaignStats()

    # -- pool lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(self.n_workers)
            self._owns_pool = True
        return self._pool

    def close(self) -> None:
        """Reap the runner-owned worker pool, if any (idempotent).

        Externally supplied pools are left running — their owner
        closes them.
        """
        if self._owns_pool and self._pool is not None:
            self._pool.close()
        self._pool = None
        self._owns_pool = False

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _plan_job(self, n_cycles: int, n_corners: int) -> List[Shard]:
        """Shard plan for one job on this runner's engine."""
        return plan_shards(
            n_cycles, n_corners,
            shard_cycles=self.shard_cycles,
            shard_corners=self.shard_corners,
            n_workers=self.n_workers,
            cycle_shardable=self.backend in CYCLE_SHARDABLE)

    def run(self, jobs: Sequence[CampaignJob]) -> List[DelayTrace]:
        """Execute a batch of jobs, in order, returning their traces.

        Cached jobs load from the store; the rest are simulated (in
        parallel when ``n_workers > 1``) and persisted.  The result
        list is aligned with ``jobs`` and is bit-identical whatever
        the worker count or shard grid — workers only ever compute
        independent jobs, independent cycle ranges, or independent
        corner rows.
        """
        jobs = list(jobs)
        model = delay_model(self.backend)
        results: List[Optional[DelayTrace]] = [None] * len(jobs)
        pending: List[Tuple[int, CampaignJob, str, np.ndarray]] = []
        self.stats = CampaignStats()

        for i, job in enumerate(jobs):
            if not job.conditions:
                raise ValueError("need at least one operating condition")
            inputs = job.stream.bit_matrix(job.fu)
            key = job.key(model)
            if self.store is not None:
                cached = self.store.get(key, list(job.conditions),
                                        inputs=inputs)
                if cached is not None:
                    results[i] = cached
                    self.stats.hits += 1
                    # a journal left by a run killed after the blob
                    # landed (but before its own cleanup) is stale now
                    self.store.clear_journal(key)
                    continue
            pending.append((i, job, key, inputs))
        if not pending:
            return results  # type: ignore[return-value]

        batch_start = time.perf_counter()
        grids: List[Tuple[int, int]] = [  # (n_cycles, n_corners)
            (inputs.shape[0] - 1, len(job.conditions))
            for _, job, _, inputs in pending]
        plans = [self._plan_job(*grid) for grid in grids]

        # checkpoint/resume: a killed campaign's rerun reuses the
        # journaled shard plan (a fresh plan need not tile the same
        # way) and skips the shards whose parts survived
        done_parts: List[List[Tuple[Shard, np.ndarray]]] = [
            [] for _ in pending]
        if self.store is not None:
            for pos, (i, job, key, inputs) in enumerate(pending):
                n_cycles, n_corners = grids[pos]
                state = self.store.load_journal(
                    key, backend=self.backend,
                    n_corners=n_corners, n_cycles=n_cycles)
                if state is not None:
                    plans[pos], done_parts[pos] = state
        self.stats.resumed_shards = sum(len(d) for d in done_parts)

        # one task per (job, not-yet-done shard)
        tasks: List[Tuple[int, Shard]] = []
        for pos, shards in enumerate(plans):
            done = {s for s, _ in done_parts[pos]}
            tasks.extend((pos, s) for s in shards if s not in done)

        # journal only multi-shard jobs: a single-shard job's
        # checkpoint could never save work over plain re-simulation
        journal_pos = {pos for pos in range(len(pending))
                       if self.store is not None and len(plans[pos]) > 1}
        seconds = [0.0] * len(pending)

        def shard_done(pos: int, shard: Shard, delays: np.ndarray,
                       secs: float, warm: Optional[bool],
                       worker: Optional[int]) -> None:
            seconds[pos] += secs
            self.stats.shard_log.append(ShardExec(
                job=pending[pos][0], shard=shard, seconds=secs,
                warm=warm, worker=worker))
            if pos not in journal_pos:
                return
            n_cycles_, n_corners_ = grids[pos]
            try:
                self.store.record_journal_shard(
                    pending[pos][2], plan=plans[pos], shard=shard,
                    delays=delays, backend=self.backend,
                    n_corners=n_corners_, n_cycles=n_cycles_)
            except StoreLockTimeout:
                pass  # progress not saved; the run itself continues

        if self.n_workers > 1 and len(tasks) > 1:
            matrices = self._run_on_pool(pending, tasks, shard_done)
        else:
            matrices = self._run_inline(pending, grids, tasks, shard_done)

        for pos, (i, job, key, inputs) in enumerate(pending):
            shards = plans[pos]
            n_cycles, n_corners = grids[pos]
            delays = matrices[pos]
            # the executors only saw the shards still to run; resumed
            # regions come from the journal
            for (c0, c1, t0, t1), part in done_parts[pos]:
                delays[c0:c1, t0:t1] = part
            trace = DelayTrace(delays, list(job.conditions),
                               inputs=inputs)
            if self.store is not None:
                self.store.put(key, trace, fu_name=job.fu.name,
                               stream_name=job.stream.name,
                               library=job.library,
                               delay_model=model,
                               backend=self.backend)
                if pos in journal_pos or done_parts[pos]:
                    self.store.clear_journal(key)
            results[i] = trace
            self.stats.misses += 1
            self.stats.job_seconds[i] = seconds[pos]
            self.stats.job_shards[i] = len(shards)
            self.stats.job_cycles[i] = n_cycles
            self.stats.job_corners[i] = n_corners
            self.stats.job_grids[i] = (
                len({(c0, c1) for c0, c1, _, _ in shards}),
                len({(t0, t1) for _, _, t0, t1 in shards}))
        self.stats.sim_seconds = sum(seconds)
        self.stats.wall_seconds = time.perf_counter() - batch_start
        return results  # type: ignore[return-value]

    def _run_inline(self, pending, grids, tasks, shard_done
                    ) -> List[np.ndarray]:
        """Run every task in this process, in order; returns one delay
        matrix per pending job.  ``shard_done(pos, shard, delays,
        seconds, warm, worker)`` fires after each shard.  Every shard
        of the batch runs in one kernel scratch set, dropped with the
        batch."""
        matrices = [np.empty((n_corners, n_cycles), dtype=np.float32)
                    for n_cycles, n_corners in grids]
        delay_matrices = [job.library.delay_matrix(job.fu.netlist,
                                                   list(job.conditions))
                          for _, job, _, _ in pending]
        buffers = KernelBuffers()
        for pos, shard in tasks:
            _, job, _, inputs = pending[pos]
            delays, secs = simulate_shard(
                job.fu.netlist, inputs, delay_matrices[pos],
                self.backend, shard, buffers)
            c0, c1, t0, t1 = shard
            matrices[pos][c0:c1, t0:t1] = delays
            shard_done(pos, shard, delays, secs, None, None)
        return matrices

    def _run_on_pool(self, pending, tasks, shard_done) -> List[np.ndarray]:
        """Run the tasks on the persistent warm pool; returns one
        stitched delay matrix per pending job.

        Registers each pending job once as its description (stream,
        library, corners, backend; the netlist goes by the FU's
        once-per-unit content fingerprint, so reruns hit the workers'
        warm caches and pickle nothing), and the workers build the
        delay matrices.  Shard descriptors go out longest-first by
        estimated cost, corners x cycles x the netlist's gate count
        (a stable sort, so equal-cost shards keep plan order), which
        keeps a dearer FU's shards off the tail.  ``shard_done`` fires
        as each shard completes, with a view of the shard's region in
        the job's stitched matrix.
        """
        pool = self._ensure_pool()
        progs: Dict[str, JobProgram] = {}
        pos_key: List[str] = []
        for pos, (i, job, key, inputs) in enumerate(pending):
            nl_key, nl_bytes = job.fu.netlist_fingerprint()
            job_key = f"{key}:{self.backend}"
            pos_key.append(job_key)
            if job_key not in progs:  # duplicate jobs share one program
                progs[job_key] = JobProgram(
                    netlist=job.fu.netlist, netlist_key=nl_key,
                    inputs=inputs, library=job.library,
                    conditions=list(job.conditions),
                    backend=self.backend, netlist_bytes=nl_bytes)

        # cost-weighted longest-processing-time-first dispatch order
        gates = [job.fu.netlist.n_gates for _, job, _, _ in pending]
        order = sorted(tasks, key=lambda t: -((t[1][1] - t[1][0])
                                              * (t[1][3] - t[1][2])
                                              * gates[t[0]]))

        def on_result(j, tres, delays):
            shard_done(order[j][0], tres.shard, delays, tres.seconds,
                       tres.warm, tres.worker)

        res = pool.run_tasks(progs,
                             [(pos_key[pos], shard) for pos, shard in order],
                             on_result=on_result)
        return [res.job_delays[job_key] for job_key in pos_key]


def error_free_clocks(trace: DelayTrace) -> Dict[OperatingCondition, float]:
    """Fastest error-free clock per condition (paper Sec. V-A).

    Defined as the maximum dynamic delay observed during offline
    characterization — speeding up beyond it guarantees "the output has
    timing errors".
    """
    return {condition: float(trace.delays[k].max())
            for k, condition in enumerate(trace.conditions)}
