"""Persistent warm worker pool: the multi-worker campaign executor.

:class:`~repro.flow.campaign.CampaignRunner` runs a single worker
inline and anything wider on this pool.  Both simulate a shard through
:func:`simulate_shard`, so a shard's delays do not depend on where it
ran.  The pool keeps workers alive across batches so that a task costs
a small descriptor, not a pickled netlist and stream plus a fresh
lowering of the program:

* **Warm program state.**  Workers are forked once per pool and cache
  the unpickled netlist (and therefore the lowered
  :class:`~repro.sim.compile.CompiledNetlist`) per *netlist
  fingerprint*, and the job's input stream and delay matrix per *job
  fingerprint*.  Each worker keeps one
  :class:`~repro.sim.compile.KernelBuffers` set for its whole life,
  shared by every program it runs, so its kernels stop faulting in
  fresh scratch pages once the first shard of each shape has run.  A
  job travels as its description (input bits, cell library, corner
  list, backend); each worker
  builds the job's delay matrix once, at its first shard of the job,
  with the same :meth:`~repro.timing.cells.CellLibrary.delay_matrix`
  the inline path calls.  Registrations are delivered lazily, once
  per (worker, fingerprint); after that a task is a tiny
  ``(job_key, corner_range, cycle_range)`` descriptor.
* **One stitched matrix per job.**  :meth:`WorkerPool.run_tasks`
  returns the full ``(n_corners, n_cycles)`` float32 delay matrix of
  every job.  Every registration and every shard result travels
  through the worker pipe; the parent writes each shard into its
  job's matrix as it lands.
* **Crash robustness.**  A worker that dies mid-task (OOM-killed,
  segfault) is respawned in place and its task reissued; a fresh
  worker starts with an empty registration set, so re-registration is
  automatic.  A task that repeatedly kills workers raises instead of
  looping.  ``close()`` (also via ``with`` or garbage collection —
  a ``weakref.finalize`` backstop) reaps every worker, so nothing
  survives the parent.
* **Hung-worker watchdog.**  A worker that neither answers nor dies
  would wedge ``connection.wait`` forever; with ``task_timeout_s``
  set (ctor arg or ``REPRO_POOL_TASK_TIMEOUT_S``; 0 = off, the
  default — campaign shards may legitimately run long), a worker
  holding one task past the bound is SIGKILLed and the task reissued
  through the same path a crashed worker's would be
  (:func:`kill_worker`).

* **Worker errors keep their type.**  A shard that raises in a worker
  re-raises the same exception in the parent, with the worker's
  traceback attached as a note, so a bad input fails the same way on
  the pool as inline.  Only an exception that does not survive
  pickling arrives as a ``RuntimeError`` carrying the traceback.

A task runs :func:`repro.sim.engine.run_delays` single-threaded on the
registered job's slice (parallelism comes from the workers alone), so
all three engines, including the event engine's corner-only
sharding, run on it unchanged.  Fork-started workers also inherit any
programs already compiled in the parent, making the first shard of a
parent-warm netlist warm too.
"""

from __future__ import annotations

import math
import os
import pickle
import secrets
import time
import traceback
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..sim.compile import KernelBuffers
from ..sim.engine import run_delays
from ..testing import faults

__all__ = [
    "JobProgram",
    "PoolRunResult",
    "TASK_TIMEOUT_ENV",
    "TaskResult",
    "WorkerPool",
    "simulate_shard",
]

#: Env default for :class:`WorkerPool`'s per-task watchdog (seconds;
#: 0 disables — the shipped default).
TASK_TIMEOUT_ENV = "REPRO_POOL_TASK_TIMEOUT_S"

#: A task that sees its worker die this many times is abandoned with a
#: RuntimeError — the task itself is almost certainly the killer.
MAX_REISSUES = 2

#: Per-worker job cache (LRU, parent-coordinated): enough to keep a
#: whole paper campaign warm without letting a long-lived pool
#: accumulate every stream it ever saw.
_WORKER_JOB_CACHE = 8

#: Fault point hit at task receipt in every worker (see
#: :mod:`repro.testing.faults`; exercises the respawn/reissue path).
SITE_TASK = faults.register_site("pool.worker.task")

Shard = Tuple[int, int, int, int]


@dataclass
class JobProgram:
    """Everything a worker needs to simulate shards of one job.

    ``netlist_key`` fingerprints the netlist alone (lowering is
    library-independent), so jobs sharing a netlist share the worker's
    compiled program; the job key used in :meth:`WorkerPool.run_tasks`
    fingerprints the full (netlist, stream, corners, library, backend)
    tuple.  Each worker builds the job's delay matrix from ``library``
    and ``conditions`` once per registration.
    """

    netlist: object  # repro.circuits.netlist.Netlist
    netlist_key: str
    inputs: np.ndarray  # (n_cycles + 1, n_inputs) uint8
    library: object     # repro.timing.cells.CellLibrary
    conditions: Sequence  # OperatingCondition per corner
    backend: str
    #: pre-pickled netlist (callers that fingerprinted the pickle pass
    #: it along so registration does not pickle a second time).
    netlist_bytes: Optional[bytes] = None

    @property
    def n_cycles(self) -> int:
        return self.inputs.shape[0] - 1

    @property
    def n_corners(self) -> int:
        return len(self.conditions)


@dataclass
class TaskResult:
    """Execution record of one shard task."""

    job_key: str
    shard: Shard
    seconds: float
    #: the worker already held this netlist's compiled program when the
    #: task arrived (False exactly for a worker's first contact with a
    #: netlist after spawn/respawn).
    warm: bool
    #: pool slot that ran the shard.
    worker: int


@dataclass
class PoolRunResult:
    """One :meth:`WorkerPool.run_tasks` batch.

    ``job_delays`` maps every job key of the batch to its stitched
    ``(n_corners, n_cycles)`` float32 delay matrix.  Cells no task
    covered are uninitialised.
    """

    job_delays: Dict[str, np.ndarray]
    tasks: List[TaskResult]


# -- worker side ---------------------------------------------------------------


def _pool_worker_main(conn) -> None:
    """Worker loop: registration + task messages until stop/EOF.

    State lives for the worker's lifetime: ``netlists`` pins the
    unpickled netlist objects (and thereby their cached compiled
    programs), ``jobs`` the per-job description and, from its first
    shard on, its delay matrix, and ``buffers`` the one kernel scratch
    set every shard of every program runs in (tasks run one at a time,
    so they never share it concurrently).
    The parent coordinates eviction (``release``), so the two sides
    never disagree about what is registered.
    """
    netlists: Dict[str, object] = {}
    warm_keys = set()  # netlist keys this worker has simulated before
    jobs: Dict[str, Dict] = {}
    buffers = KernelBuffers()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "netlist":
                _, nl_key, blob = msg
                netlists[nl_key] = pickle.loads(blob)
            elif kind == "job":
                _, job_key, nl_key, inputs, library, conditions, \
                    backend = msg
                jobs[job_key] = {"nl_key": nl_key, "inputs": inputs,
                                 "library": library,
                                 "conditions": conditions,
                                 "backend": backend}
            elif kind == "release":
                jobs.pop(msg[1], None)
            elif kind == "run":
                _, task_id, job_key, shard = msg
                # deterministic crash hook (the fault plan rides the
                # env, so forked workers honor it): see repro.testing.faults
                faults.fault_point(SITE_TASK)
                try:
                    result = _run_shard(netlists, warm_keys, jobs,
                                        job_key, shard, buffers)
                except BaseException as exc:
                    conn.send(("err", task_id, _portable_error(exc)))
                else:
                    conn.send(("done", task_id) + result)
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _portable_error(exc: BaseException) -> Union[BaseException, str]:
    """``exc`` with the worker's traceback attached as a note, or the
    traceback text alone when ``exc`` does not survive a pickle round
    trip (the parent then raises a ``RuntimeError`` carrying it)."""
    tb = traceback.format_exc()
    exc.add_note("raised in a campaign pool worker:\n" + tb)
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return tb
    return exc


def simulate_shard(netlist, inputs: np.ndarray, delay_matrix: np.ndarray,
                   backend: str, shard: Shard,
                   buffers: Optional[KernelBuffers] = None
                   ) -> Tuple[np.ndarray, float]:
    """Simulate shard ``(c0, c1, t0, t1)`` of one job; returns
    ``(delays, seconds)``.

    The shard runs input rows ``[t0, t1 + 1)`` (one leading state row)
    against delay rows ``c0:c1``.  Cycle ``t`` depends only on input
    rows ``t`` and ``t + 1``, and corner rows are independent, so
    writing ``delays`` at ``[c0:c1, t0:t1]`` of the job's matrix is
    bit-identical to the unsharded run.  ``buffers`` is the caller's
    kernel scratch set (see :func:`~repro.sim.engine.run_delays`).
    """
    c0, c1, t0, t1 = shard
    start = time.perf_counter()
    delays = run_delays(backend, netlist, inputs[t0:t1 + 1],
                        delay_matrix[c0:c1], buffers)
    return delays, time.perf_counter() - start


def _run_shard(netlists: Dict[str, object], warm_keys: set,
               jobs: Dict[str, Dict], job_key: str, shard: Shard,
               buffers: KernelBuffers) -> Tuple[float, bool, np.ndarray]:
    job = jobs[job_key]
    nl_key = job["nl_key"]
    warm = nl_key in warm_keys
    if "delay_matrix" not in job:
        # built once per registration, outside the shard's timing; a
        # bad library fails here and reaches the parent as an "err"
        job["delay_matrix"] = job["library"].delay_matrix(
            netlists[nl_key], job["conditions"])
    delays, seconds = simulate_shard(
        netlists[nl_key], job["inputs"], job["delay_matrix"],
        job["backend"], shard, buffers)
    warm_keys.add(nl_key)
    return seconds, warm, delays


# -- parent side ---------------------------------------------------------------


class _Worker:
    """Parent-side handle for one pool slot."""

    __slots__ = ("slot", "process", "conn", "netlists", "jobs", "current",
                 "overdue_at")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.netlists = set()              # registered netlist keys
        self.jobs = OrderedDict()          # registered job keys (LRU)
        self.current: Optional[int] = None  # in-flight task index
        self.overdue_at: Optional[float] = None  # watchdog bound (monotonic)


def kill_worker(process, join_timeout: float = 2.0) -> None:
    """Forcibly stop a hung worker process (SIGKILL, then join).

    SIGTERM is deliberately not tried first: a hung process may hold
    the very lock its signal handler would need, and the caller has
    already decided the worker's output is worthless.  Idempotent and
    tolerant of the worker dying on its own between the liveness check
    and the kill.
    """
    try:
        if process.is_alive():
            process.kill()
    except (OSError, ValueError):  # pragma: no cover - already reaped
        pass
    process.join(timeout=join_timeout)


def _shutdown_workers(workers: List[_Worker]) -> None:
    """Finalizer body: reap workers.  Idempotent and free of references
    to the pool object (weakref.finalize contract).
    """
    for w in workers:
        try:
            if w.process.is_alive():
                w.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for w in workers:
        w.process.join(timeout=1.0)
        if w.process.is_alive():
            w.process.terminate()
            w.process.join(timeout=1.0)
        try:
            w.conn.close()
        except OSError:
            pass
    workers.clear()


def _task_timeout(value: Optional[float]) -> float:
    """The watchdog bound from the ctor argument, or from
    :data:`TASK_TIMEOUT_ENV` when it is None.  Anything but a finite
    number >= 0 is rejected: NaN would kill every busy worker at the
    first wait, infinity overflows ``connection.wait``."""
    source = "task_timeout_s"
    if value is None:
        source = TASK_TIMEOUT_ENV
        value = os.environ.get(TASK_TIMEOUT_ENV, "") or 0.0
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(f"{source} must be a finite number of seconds "
                         f">= 0 (0 disables), got {value!r}")
    return seconds


class WorkerPool:
    """A fixed-width pool of persistent warm simulation workers.

    Parameters
    ----------
    n_workers:
        Number of worker processes (spawned eagerly, ``fork`` start
        method when available so children inherit parent-warm program
        caches).
    task_timeout_s:
        Per-task watchdog bound in seconds: a worker holding one task
        longer is presumed hung, SIGKILLed, and the task reissued.
        None reads ``REPRO_POOL_TASK_TIMEOUT_S``; 0 disables (the
        default).  NaN, infinity or a non-numeric env value raise
        ``ValueError``.  Kills are counted in :attr:`watchdog_kills`.
    """

    def __init__(self, n_workers: int,
                 task_timeout_s: Optional[float] = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.task_timeout_s = _task_timeout(task_timeout_s)
        self.watchdog_kills = 0
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = get_context()
        self._uid = secrets.token_hex(4)
        self._workers: List[_Worker] = []
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._workers)
        for slot in range(n_workers):
            self._workers.append(self._spawn(slot))

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Reap every worker (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def n_alive(self) -> int:
        """Live worker processes (tests/leak checks)."""
        return sum(1 for w in self._workers if w.process.is_alive())

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,),
            name=f"repro-pool-{self._uid}-{slot}", daemon=True)
        process.start()
        child_conn.close()
        return _Worker(slot, process, parent_conn)

    def _respawn(self, worker: _Worker) -> _Worker:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
        worker.process.join(timeout=1.0)
        fresh = self._spawn(worker.slot)
        self._workers[worker.slot] = fresh
        return fresh

    # -- registration ---------------------------------------------------------

    def _ensure_registered(self, worker: _Worker, job_key: str,
                           progs: Dict[str, JobProgram]) -> None:
        prog = progs[job_key]
        nl_key = prog.netlist_key
        if nl_key not in worker.netlists:
            blob = prog.netlist_bytes
            if blob is None:
                blob = pickle.dumps(prog.netlist,
                                    protocol=pickle.HIGHEST_PROTOCOL)
            worker.conn.send(("netlist", nl_key, blob))
            worker.netlists.add(nl_key)
        if job_key not in worker.jobs:
            worker.conn.send(("job", job_key, nl_key, prog.inputs,
                              prog.library, list(prog.conditions),
                              prog.backend))
            worker.jobs[job_key] = True
            while len(worker.jobs) > _WORKER_JOB_CACHE:
                evicted, _ = worker.jobs.popitem(last=False)
                worker.conn.send(("release", evicted))
        else:
            worker.jobs.move_to_end(job_key)

    # -- execution ----------------------------------------------------------

    def run_tasks(self, progs: Dict[str, JobProgram],
                  tasks: Sequence[Tuple[str, Shard]],
                  on_result=None) -> PoolRunResult:
        """Execute shard tasks across the pool.

        ``tasks`` is an ordered list of ``(job_key, shard)`` pairs
        (keys index ``progs``); the returned ``tasks`` list is aligned
        with it, and ``job_delays`` holds the stitched matrix of every
        job in ``progs``.

        ``on_result(idx, task_result, delays)`` fires as each task
        completes (``idx`` indexes ``tasks``): the campaign layer
        journals finished shards through it.  ``delays`` is a view of
        the shard's region in the job's matrix.  Callback exceptions
        propagate and abort the batch.

        A task that raises in its worker re-raises the worker's
        exception here (a ``RuntimeError`` carrying the traceback when
        it does not pickle); a task that keeps killing or hanging its
        worker raises ``RuntimeError``.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        tasks = list(tasks)
        if not tasks:
            return PoolRunResult({}, [])
        for key, _ in tasks:
            if key not in progs:
                raise KeyError(f"task references unknown job {key!r}")

        job_delays = {key: np.empty((prog.n_corners, prog.n_cycles),
                                    dtype=np.float32)
                      for key, prog in progs.items()}
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        pending = deque(range(len(tasks)))
        reissues: Dict[int, int] = {}
        # a worker's own exception, or the text of a RuntimeError
        error: Union[BaseException, str, None] = None

        def fail(idx: int, why: str) -> Optional[int]:
            """Requeue a task whose worker died, or give up."""
            reissues[idx] = reissues.get(idx, 0) + 1
            if reissues[idx] > MAX_REISSUES:
                return idx
            pending.appendleft(idx)
            return None

        while True:
            if error is None:
                for w in list(self._workers):
                    if not pending:
                        break
                    if w.current is not None:
                        continue
                    idx = pending.popleft()
                    key, shard = tasks[idx]
                    try:
                        self._ensure_registered(w, key, progs)
                        w.conn.send(("run", idx, key, tuple(shard)))
                        w.current = idx
                        w.overdue_at = (
                            time.monotonic() + self.task_timeout_s
                            if self.task_timeout_s else None)
                    except (BrokenPipeError, OSError):
                        # worker died between tasks: respawn (fresh
                        # registration state) and retry elsewhere
                        if fail(idx, "dispatch") is not None:
                            error = (f"worker died {MAX_REISSUES + 1}x "
                                     f"dispatching task {idx}")
                        self._respawn(w)
            busy = [w for w in self._workers if w.current is not None]
            if not busy:
                if pending and error is None:
                    continue
                break
            wait_s = None
            bounds = [w.overdue_at for w in busy
                      if w.overdue_at is not None]
            if bounds:
                wait_s = max(0.0, min(bounds) - time.monotonic())
            ready = connection.wait([w.conn for w in busy],
                                    timeout=wait_s)
            if not ready:
                # watchdog: a worker blew its per-task bound — it
                # neither answered nor died, so kill it and reissue
                # its task through the same path a crash would take
                now = time.monotonic()
                for w in busy:
                    if w.overdue_at is None or now < w.overdue_at:
                        continue
                    idx = w.current
                    w.current = None
                    self.watchdog_kills += 1
                    kill_worker(w.process)
                    self._respawn(w)
                    if idx is not None and error is None:
                        if fail(idx, "hang") is not None:
                            error = (
                                f"task {idx} ({tasks[idx][0]!r} shard "
                                f"{tasks[idx][1]}) hung its worker "
                                f"{MAX_REISSUES + 1} times")
                continue
            for conn_ in ready:
                w = next(x for x in busy if x.conn is conn_)
                try:
                    msg = w.conn.recv()
                except (EOFError, OSError):
                    idx = w.current
                    w.current = None
                    self._respawn(w)
                    if idx is not None and error is None:
                        if fail(idx, "crash") is not None:
                            error = (
                                f"task {idx} ({tasks[idx][0]!r} shard "
                                f"{tasks[idx][1]}) killed its worker "
                                f"{MAX_REISSUES + 1} times")
                    continue
                if msg[0] == "done":
                    _, idx, seconds, warm, delays = msg
                    key, shard = tasks[idx]
                    c0, c1, t0, t1 = shard
                    region = job_delays[key][c0:c1, t0:t1]
                    region[...] = delays
                    results[idx] = TaskResult(
                        job_key=key, shard=tuple(shard),
                        seconds=seconds, warm=warm, worker=w.slot)
                    w.current = None
                    if on_result is not None:
                        on_result(idx, results[idx], region)
                elif msg[0] == "err":
                    _, idx, failure = msg
                    w.current = None
                    if error is None:
                        error = failure
        if isinstance(error, BaseException):
            raise error
        if error is not None:
            raise RuntimeError(f"worker pool task failed: {error}")
        return PoolRunResult(job_delays, results)  # type: ignore[arg-type]
