"""Persistent warm worker pool: the multi-worker campaign executor.

:class:`~repro.flow.campaign.CampaignRunner` runs a single worker
inline and anything wider on this pool.  Both simulate a shard through
:func:`simulate_shard`, so a shard's delays do not depend on where it
ran.  The pool keeps workers alive across batches so that a task costs
a small descriptor, not a pickled netlist and stream plus a fresh
lowering of the program:

* **Warm program state.**  Workers are forked once per pool and cache
  the unpickled netlist (and therefore the lowered
  :class:`~repro.sim.compile.CompiledNetlist`, its delay tiles, and its
  corner-major arrival scratch — all single-slot-cached on the program)
  per *netlist fingerprint*, and the shard payload (input stream +
  delay matrix) per *job fingerprint*.  Registrations are delivered
  lazily, once per (worker, fingerprint); after that a task is a tiny
  ``(job_key, corner_range, cycle_range)`` descriptor.
* **One stitched matrix per job.**  :meth:`WorkerPool.run_tasks`
  returns the full ``(n_corners, n_cycles)`` float32 delay matrix of
  every job.  A job whose matrix crosses :data:`SHM_MIN_RESULT_BYTES`
  gets a ``multiprocessing.shared_memory`` segment that workers write
  their shards into at their corner × cycle offset.  Smaller jobs
  return shards pickled through the worker pipe, and the parent writes
  each into the job's matrix as it lands.  Registration payloads ride
  the same transport (one write, N reads).
* **Pickle fallback.**  When shared memory is unavailable (no
  ``fork`` start method, ``/dev/shm`` unusable, ``REPRO_POOL_NO_SHM``)
  every payload and result travels through the worker pipes —
  bit-identical either way.
* **Crash robustness.**  A worker that dies mid-task (OOM-killed,
  segfault) is respawned in place and its task reissued; a fresh
  worker starts with an empty registration set, so re-registration is
  automatic.  A task that repeatedly kills workers raises instead of
  looping.  ``close()`` (also via ``with`` or garbage collection —
  a ``weakref.finalize`` backstop) reaps every worker and unlinks
  every segment, so nothing survives the parent.
* **Hung-worker watchdog.**  A worker that neither answers nor dies
  would wedge ``connection.wait`` forever; with ``task_timeout_s``
  set (ctor arg or ``REPRO_POOL_TASK_TIMEOUT_S``; 0 = off, the
  default — campaign shards may legitimately run long), a worker
  holding one task past the bound is SIGKILLed and the task reissued
  through the same path a crashed worker's would be
  (:func:`kill_worker`).

The pool is deliberately backend-agnostic: a task runs
``get_backend(name).run_delays`` on the registered payload slice, so
every capability-gated backend (including the event engine's
corner-only sharding) works unchanged.  Fork-started workers also
inherit any programs already compiled in the parent, making the first
shard of a parent-warm netlist warm too.
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - stdlib since 3.8, but keep a soft gate
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

from ..sim.engine import get_backend
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

#: Result matrices smaller than this return via the pickle path even
#: when shared memory is available — below the crossover the one-copy
#: win cannot repay segment create/attach/unlink syscalls.
SHM_MIN_RESULT_BYTES = 64 * 1024

#: Registration blobs smaller than this travel through the worker pipe
#: (same crossover reasoning as :data:`SHM_MIN_RESULT_BYTES`).
SHM_MIN_BLOB_BYTES = 64 * 1024

#: A task that sees its worker die this many times is abandoned with a
#: RuntimeError — the task itself is almost certainly the killer.
MAX_REISSUES = 2

#: Per-worker registration caches (LRU, parent-coordinated): enough to
#: keep a whole paper campaign warm without letting a long-lived pool
#: accumulate every stream it ever saw.
_WORKER_JOB_CACHE = 8
_PARENT_BLOB_CACHE = 8

#: Env var naming a crash-token file: a worker that consumes a token at
#: task receipt hard-kills itself mid-task.  The file holds a decimal
#: token count (any other content means 1); consuming the last token
#: removes the file (atomically — concurrent consumers race on the
#: ``os.remove`` and exactly one wins).  Deterministic test hook for
#: the respawn/reissue path — see tests/flow/test_pool.py.
CRASH_FILE_ENV = "REPRO_POOL_CRASH_FILE"

#: Fault point hit at task receipt in every worker (see
#: :mod:`repro.testing.faults`; exercises the respawn/reissue path).
SITE_TASK = faults.register_site("pool.worker.task")

#: ``/dev/shm`` segment name prefix; CI's leak check globs for it.
SHM_PREFIX = "repro_pool_"

Shard = Tuple[int, int, int, int]


@dataclass
class JobProgram:
    """Everything a worker needs to simulate shards of one job.

    ``netlist_key`` fingerprints the netlist alone (lowering is
    library-independent), so jobs sharing a netlist share the worker's
    compiled program; the job key used in :meth:`WorkerPool.run_tasks`
    fingerprints the full (netlist, stream, corners, library, backend)
    tuple.
    """

    netlist: object  # repro.circuits.netlist.Netlist
    netlist_key: str
    inputs: np.ndarray        # (n_cycles + 1, n_inputs) uint8
    delay_matrix: np.ndarray  # (n_corners, n_gates) float
    backend: str
    chunk_cycles: Optional[int] = None
    threads: Optional[int] = None
    #: pre-pickled netlist (callers that fingerprinted the pickle pass
    #: it along so registration does not pickle a second time).
    netlist_bytes: Optional[bytes] = None

    @property
    def n_cycles(self) -> int:
        return self.inputs.shape[0] - 1

    @property
    def n_corners(self) -> int:
        return self.delay_matrix.shape[0]


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
    ``(n_corners, n_cycles)`` float32 delay matrix, whichever transport
    its shards returned on.  Cells no task covered are uninitialised.
    """

    job_delays: Dict[str, np.ndarray]
    tasks: List[TaskResult]


# -- worker side ---------------------------------------------------------------


def _read_blob(transport) -> bytes:
    if transport[0] == "raw":
        return transport[1]
    _, name, nbytes = transport
    seg = shared_memory.SharedMemory(name=name)
    try:
        return bytes(seg.buf[:nbytes])
    finally:
        seg.close()


def _pool_worker_main(conn) -> None:
    """Worker loop: registration + task messages until stop/EOF.

    State lives for the worker's lifetime: ``netlists`` pins the
    unpickled netlist objects (and thereby their cached compiled
    programs, delay tiles, and scratch), ``jobs`` the per-job payloads.
    The parent coordinates eviction (``release``), so the two sides
    never disagree about what is registered.
    """
    netlists: Dict[str, object] = {}
    warm_keys = set()  # netlist keys this worker has simulated before
    jobs: Dict[str, Dict] = {}
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
                _, nl_key, transport = msg
                netlists[nl_key] = pickle.loads(_read_blob(transport))
            elif kind == "job":
                _, job_key, nl_key, transport = msg
                payload = pickle.loads(_read_blob(transport))
                payload["nl_key"] = nl_key
                jobs[job_key] = payload
            elif kind == "release":
                jobs.pop(msg[1], None)
            elif kind == "run":
                _, task_id, job_key, shard, out = msg
                # deterministic crash hooks (fault plan rides the env,
                # so forked workers honor it): see repro.testing.faults
                faults.fault_point(SITE_TASK)
                faults.crash_token_hook(CRASH_FILE_ENV)
                try:
                    result = _run_shard(netlists, warm_keys, jobs,
                                        job_key, shard, out)
                    conn.send(("done", task_id) + result)
                except BaseException:
                    conn.send(("err", task_id, traceback.format_exc()))
    finally:
        try:
            conn.close()
        except OSError:
            pass


def simulate_shard(netlist, inputs: np.ndarray, delay_matrix: np.ndarray,
                   backend: str, shard: Shard,
                   chunk_cycles: Optional[int] = None,
                   threads: Optional[int] = None
                   ) -> Tuple[np.ndarray, float]:
    """Simulate shard ``(c0, c1, t0, t1)`` of one job; returns
    ``(delays, seconds)``.

    The shard runs input rows ``[t0, t1 + 1)`` (one leading state row)
    against delay rows ``c0:c1``.  Cycle ``t`` depends only on input
    rows ``t`` and ``t + 1``, and corner rows are independent, so
    writing ``delays`` at ``[c0:c1, t0:t1]`` of the job's matrix is
    bit-identical to the unsharded run.
    """
    c0, c1, t0, t1 = shard
    start = time.perf_counter()
    delays = get_backend(backend).run_delays(
        netlist, inputs[t0:t1 + 1], delay_matrix[c0:c1],
        chunk_cycles=chunk_cycles, threads=threads).delays
    return delays, time.perf_counter() - start


def _run_shard(netlists: Dict[str, object], warm_keys: set,
               jobs: Dict[str, Dict], job_key: str, shard: Shard, out
               ) -> Tuple[float, bool, Optional[np.ndarray]]:
    job = jobs[job_key]
    nl_key = job["nl_key"]
    warm = nl_key in warm_keys
    delays, seconds = simulate_shard(
        netlists[nl_key], job["inputs"], job["delay_matrix"],
        job["backend"], shard, job["chunk_cycles"], job["threads"])
    warm_keys.add(nl_key)
    if out is None:
        return seconds, warm, delays
    name, n_corners, n_cycles = out
    seg = shared_memory.SharedMemory(name=name)
    try:
        c0, c1, t0, t1 = shard
        np.ndarray((n_corners, n_cycles), dtype=np.float32,
                   buffer=seg.buf)[c0:c1, t0:t1] = delays
    finally:
        seg.close()  # parent owns the segment; never unlink here
    return seconds, warm, None


# -- parent side ---------------------------------------------------------------


class _Blob:
    """A pickled registration payload, in shared memory or raw bytes."""

    __slots__ = ("raw", "seg", "nbytes")

    def __init__(self, raw: Optional[bytes], seg, nbytes: int) -> None:
        self.raw = raw
        self.seg = seg
        self.nbytes = nbytes

    def transport(self):
        if self.seg is not None:
            return ("shm", self.seg.name, self.nbytes)
        return ("raw", self.raw)

    def unlink(self) -> None:
        if self.seg is not None:
            try:
                self.seg.close()
                self.seg.unlink()
            except (FileNotFoundError, OSError):
                pass
            self.seg = None


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


def _shutdown_workers(workers: List[_Worker],
                      blob_maps: List[Dict[str, _Blob]]) -> None:
    """Finalizer body: reap workers, unlink segments.  Idempotent and
    free of references to the pool object (weakref.finalize contract).
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
    for blobs in blob_maps:
        for blob in blobs.values():
            blob.unlink()
        blobs.clear()


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
        caches and the shared resource tracker).
    use_shm:
        Force the shared-memory transport on/off; None (default)
        auto-detects (requires ``fork`` + a working
        ``multiprocessing.shared_memory``; the ``REPRO_POOL_NO_SHM``
        env var vetoes).  Falls back to pickle per payload below the
        crossover thresholds either way.
    task_timeout_s:
        Per-task watchdog bound in seconds: a worker holding one task
        longer is presumed hung, SIGKILLed, and the task reissued.
        None reads ``REPRO_POOL_TASK_TIMEOUT_S``; 0 disables (the
        default).  NaN, infinity or a non-numeric env value raise
        ``ValueError``.  Kills are counted in :attr:`watchdog_kills`.
    """

    def __init__(self, n_workers: int,
                 use_shm: Optional[bool] = None,
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
        fork = self._ctx.get_start_method() == "fork"
        no_shm_env = os.environ.get("REPRO_POOL_NO_SHM", "") not in ("", "0")
        auto = fork and shared_memory is not None and not no_shm_env
        self.use_shm = auto if use_shm is None else (use_shm and auto)
        if self.use_shm:
            # start the parent's resource tracker *before* forking so
            # every worker inherits it: a worker-local tracker would
            # try to clean segments the parent still owns at worker
            # exit (harmless but noisy); one shared tracker's
            # registration set is idempotent across processes
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        self._uid = secrets.token_hex(4)
        self._seq = 0
        self._workers: List[_Worker] = []
        self._netlist_blobs: "OrderedDict[str, _Blob]" = OrderedDict()
        self._job_blobs: "OrderedDict[str, _Blob]" = OrderedDict()
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._workers,
            [self._netlist_blobs, self._job_blobs])
        for slot in range(n_workers):
            self._workers.append(self._spawn(slot))

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Reap every worker and unlink every segment (idempotent)."""
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

    # -- registration transport ---------------------------------------------

    def _shm_name(self) -> str:
        self._seq += 1
        return f"{SHM_PREFIX}{os.getpid()}_{self._uid}_{self._seq}"

    def _make_blob(self, data: bytes) -> _Blob:
        if self.use_shm and len(data) >= SHM_MIN_BLOB_BYTES:
            try:
                seg = shared_memory.SharedMemory(
                    create=True, name=self._shm_name(),
                    size=max(1, len(data)))
            except OSError:
                self.use_shm = False  # /dev/shm unusable: pickle-only
            else:
                seg.buf[:len(data)] = data
                return _Blob(None, seg, len(data))
        return _Blob(data, None, len(data))

    def _cached_blob(self, cache: "OrderedDict[str, _Blob]", key: str,
                     build) -> _Blob:
        blob = cache.get(key)
        if blob is None:
            blob = self._make_blob(build())
            cache[key] = blob
            while len(cache) > _PARENT_BLOB_CACHE:
                cache.popitem(last=False)[1].unlink()
        cache.move_to_end(key)
        return blob

    def _ensure_registered(self, worker: _Worker, job_key: str,
                           progs: Dict[str, JobProgram]) -> None:
        prog = progs[job_key]
        nl_key = prog.netlist_key
        if nl_key not in worker.netlists:
            blob = self._cached_blob(
                self._netlist_blobs, nl_key,
                lambda: prog.netlist_bytes if prog.netlist_bytes is not None
                else pickle.dumps(prog.netlist,
                                  protocol=pickle.HIGHEST_PROTOCOL))
            worker.conn.send(("netlist", nl_key, blob.transport()))
            worker.netlists.add(nl_key)
        if job_key not in worker.jobs:
            blob = self._cached_blob(
                self._job_blobs, job_key,
                lambda: pickle.dumps(
                    {"inputs": prog.inputs,
                     "delay_matrix": prog.delay_matrix,
                     "backend": prog.backend,
                     "chunk_cycles": prog.chunk_cycles,
                     "threads": prog.threads},
                    protocol=pickle.HIGHEST_PROTOCOL))
            worker.conn.send(("job", job_key, nl_key, blob.transport()))
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
        the shard's region in the job's matrix — on the shared-memory
        path a view into the live segment, valid only during the
        callback.  Callback exceptions propagate and abort the batch.
        """
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        tasks = list(tasks)
        if not tasks:
            return PoolRunResult({}, [])
        for key, _ in tasks:
            if key not in progs:
                raise KeyError(f"task references unknown job {key!r}")

        # every job's matrix: a view of its result segment, or a
        # parent-side array its pickled shards are written into
        out_segs: Dict[str, object] = {}
        job_delays: Dict[str, np.ndarray] = {}
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        try:
            for key, prog in progs.items():
                shape = (prog.n_corners, prog.n_cycles)
                seg = None
                nbytes = shape[0] * shape[1] * 4
                if self.use_shm and nbytes >= SHM_MIN_RESULT_BYTES:
                    try:
                        seg = shared_memory.SharedMemory(
                            create=True, name=self._shm_name(),
                            size=nbytes)
                    except OSError:
                        pass  # per-job fallback to pickle return
                if seg is None:
                    job_delays[key] = np.empty(shape, dtype=np.float32)
                else:
                    out_segs[key] = seg
                    job_delays[key] = np.ndarray(
                        shape, dtype=np.float32, buffer=seg.buf)

            pending = deque(range(len(tasks)))
            reissues: Dict[int, int] = {}
            error: Optional[str] = None

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
                            out = None
                            if key in out_segs:
                                out = ((out_segs[key].name,)
                                       + job_delays[key].shape)
                            w.conn.send(("run", idx, key,
                                         tuple(shard), out))
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
                        if delays is not None:  # pickle return path
                            region[...] = delays
                        results[idx] = TaskResult(
                            job_key=key, shard=tuple(shard),
                            seconds=seconds, warm=warm, worker=w.slot)
                        w.current = None
                        if on_result is not None:
                            on_result(idx, results[idx], region)
                    elif msg[0] == "err":
                        _, idx, tb = msg
                        w.current = None
                        if error is None:
                            error = tb
            if error is not None:
                raise RuntimeError(f"worker pool task failed: {error}")

            for key in out_segs:  # detach from segments unlinked below
                job_delays[key] = job_delays[key].copy()
            return PoolRunResult(job_delays, results)  # type: ignore[arg-type]
        finally:
            for seg in out_segs.values():
                try:
                    seg.close()
                    seg.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
