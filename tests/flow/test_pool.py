"""Tests for the persistent warm worker pool and its campaign wiring.

Covers byte-identical stitched results (including 1-cycle streams and
1-corner grids), per-job cell libraries, pool-lifecycle robustness
(mid-task worker death, respawn + reissue, orphan-free shutdown),
watchdog validation, capability gating through the pool, and Workspace
pool ownership.
"""

import hashlib
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.api import ShardSpec, Workspace
from repro.circuits import build_functional_unit
from repro.flow import CampaignJob, CampaignRunner, JobProgram, WorkerPool
from repro.flow.pool import MAX_REISSUES, TASK_TIMEOUT_ENV
from repro.sim import run_delays
from repro.testing import faults
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.timing.cells import CellLibrary
from repro.workloads import random_stream

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


def _pool_children():
    """Live pool worker processes of this test process."""
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-pool-")]


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must leave zero pool workers."""
    yield
    assert _pool_children() == []


def _prog(fu, stream, backend="compiled", conds=CONDS):
    blob = pickle.dumps(fu.netlist)
    return JobProgram(netlist=fu.netlist,
                      netlist_key=hashlib.sha1(blob).hexdigest(),
                      inputs=stream.bit_matrix(fu), library=DEFAULT_LIBRARY,
                      conditions=list(conds), backend=backend,
                      netlist_bytes=blob)


def _reference(prog):
    delay_matrix = prog.library.delay_matrix(prog.netlist, prog.conditions)
    return run_delays(prog.backend, prog.netlist, prog.inputs, delay_matrix)


def _whole(prog):
    return (0, prog.n_corners, 0, prog.n_cycles)


def _halves(prog):
    mid = prog.n_cycles // 2
    return [(0, prog.n_corners, 0, mid),
            (0, prog.n_corners, mid, prog.n_cycles)]


class TestWorkerPool:
    def test_big_and_small_jobs_byte_identical(self):
        # a 9000-cycle job split in halves and a 40-cycle job in one
        # shard, in one batch: both must match the inline reference
        fu = build_functional_unit("int_add", width=8)
        big = _prog(fu, random_stream(9000, operand_width=8, seed=0))
        small = _prog(fu, random_stream(40, operand_width=8, seed=1))
        with WorkerPool(2) as pool:
            tasks = ([("big", s) for s in _halves(big)]
                     + [("small", _whole(small))])
            res = pool.run_tasks({"big": big, "small": small}, tasks)
        np.testing.assert_array_equal(res.job_delays["big"],
                                      _reference(big))
        np.testing.assert_array_equal(res.job_delays["small"],
                                      _reference(small))

    def test_single_cycle_stream_and_single_corner(self):
        fu = build_functional_unit("int_add", width=8)
        one_cycle = _prog(fu, random_stream(1, operand_width=8, seed=3))
        one_corner = _prog(fu, random_stream(50, operand_width=8, seed=4),
                           conds=CONDS[:1])
        with WorkerPool(2) as pool:
            res = pool.run_tasks(
                {"cyc": one_cycle, "cor": one_corner},
                [("cyc", _whole(one_cycle)), ("cor", _whole(one_corner))])
        np.testing.assert_array_equal(res.job_delays["cyc"],
                                      _reference(one_cycle))
        np.testing.assert_array_equal(res.job_delays["cor"],
                                      _reference(one_corner))

    def test_warm_flags_track_program_reuse(self):
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(60, operand_width=8, seed=5))
        with WorkerPool(1) as pool:
            first = pool.run_tasks({"j": prog}, [("j", _whole(prog))])
            again = pool.run_tasks({"j": prog}, [("j", _whole(prog))])
        assert [t.warm for t in first.tasks] == [False]
        assert [t.warm for t in again.tasks] == [True]

    def test_close_is_idempotent_and_reaps(self):
        pool = WorkerPool(2)
        assert pool.n_alive() == 2
        assert len(_pool_children()) == 2
        pool.close()
        assert pool.closed
        assert pool.n_alive() == 0
        pool.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_tasks({}, [("j", (0, 1, 0, 1))])

    def test_unknown_job_key_rejected(self):
        with WorkerPool(1) as pool:
            with pytest.raises(KeyError, match="unknown job"):
                pool.run_tasks({}, [("nope", (0, 1, 0, 1))])

    def test_killed_worker_respawned_between_runs(self):
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(60, operand_width=8, seed=6))
        with WorkerPool(2) as pool:
            pool.run_tasks({"j": prog}, [("j", _whole(prog))])
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (pool._workers[0].process.is_alive()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            res = pool.run_tasks({"j": prog},
                                 [("j", s) for s in _halves(prog)])
            np.testing.assert_array_equal(res.job_delays["j"],
                                          _reference(prog))
            assert pool.n_alive() == 2  # slot was respawned

    def test_mid_task_crash_reissued_and_completes(self, monkeypatch,
                                                   tmp_path):
        # the marker directory makes the rule fire once across workers
        state = tmp_path / "fault-state"
        monkeypatch.setenv(faults.PLAN_ENV, "pool.worker.task:exit:1")
        monkeypatch.setenv(faults.STATE_ENV, str(state))
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(120, operand_width=8, seed=7))
        with WorkerPool(2) as pool:  # workers inherit the env at fork
            res = pool.run_tasks({"j": prog},
                                 [("j", s) for s in _halves(prog)])
            np.testing.assert_array_equal(res.job_delays["j"],
                                          _reference(prog))
            assert pool.n_alive() == 2
        assert len(list(state.iterdir())) == 1  # exactly one worker died

    def test_on_result_callback_sees_every_shard(self):
        fu = build_functional_unit("int_add", width=8)
        big = _prog(fu, random_stream(9000, operand_width=8, seed=14))
        small = _prog(fu, random_stream(40, operand_width=8, seed=15))
        seen = {}

        def on_result(idx, tres, delays):
            seen[idx] = (tres.job_key, tres.shard,
                         np.array(delays, copy=True))

        with WorkerPool(2) as pool:
            tasks = ([("big", s) for s in _halves(big)]
                     + [("small", _whole(small))])
            pool.run_tasks({"big": big, "small": small}, tasks,
                           on_result=on_result)
        assert set(seen) == {0, 1, 2}
        refs = {"big": _reference(big), "small": _reference(small)}
        for idx, (key, shard, delays) in seen.items():
            assert (key, shard) == (tasks[idx][0], tuple(tasks[idx][1]))
            c0, c1, t0, t1 = shard
            np.testing.assert_array_equal(delays, refs[key][c0:c1, t0:t1])

    def test_library_error_fails_the_task_not_the_worker(self):
        # a library without timing for the netlist's cells raises while
        # the worker builds the delay matrix: the worker's own KeyError
        # comes back as a task failure, not as a crash-and-reissue loop
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(40, operand_width=8, seed=18))
        prog.library = CellLibrary(timings={})
        with WorkerPool(1) as pool:
            with pytest.raises(KeyError,
                               match="no timing for cell type") as info:
                pool.run_tasks({"j": prog}, [("j", _whole(prog))])
            assert "pool worker" in "".join(info.value.__notes__)
            assert pool.n_alive() == 1

    def test_unpicklable_worker_error_becomes_runtime_error(self,
                                                            monkeypatch):
        class Local(Exception):  # a local class cannot be pickled
            pass

        def boom(*args):
            raise Local("unpicklable boom")

        # forked workers inherit the patched dispatch
        monkeypatch.setattr("repro.flow.pool.run_delays", boom)
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(40, operand_width=8, seed=18))
        with WorkerPool(1) as pool:
            with pytest.raises(RuntimeError, match="unpicklable boom"):
                pool.run_tasks({"j": prog}, [("j", _whole(prog))])
            assert pool.n_alive() == 1

    def test_on_result_exception_aborts_batch(self):
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(40, operand_width=8, seed=17))

        def boom(idx, tres, delays):
            raise ValueError("callback boom")

        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="callback boom"):
                pool.run_tasks({"j": prog}, [("j", _whole(prog))],
                               on_result=boom)

    def test_hung_worker_is_killed_and_task_reissued(self, monkeypatch,
                                                     tmp_path):
        """A worker wedged mid-task (hang fault) trips the deadline
        watchdog: the pool SIGKILLs it, respawns the slot, reissues the
        shard, and the stitched result is still bit-exact."""
        from repro.testing import faults

        monkeypatch.setenv(faults.PLAN_ENV, "pool.worker.task:hang:1")
        # one global firing: the reissued task must run clean
        monkeypatch.setenv(faults.STATE_ENV, str(tmp_path / "fstate"))
        monkeypatch.setenv(faults.HANG_ENV, "60")
        faults.reset()
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(120, operand_width=8, seed=21))
        with WorkerPool(2, task_timeout_s=1.0) as pool:
            res = pool.run_tasks({"j": prog},
                                 [("j", s) for s in _halves(prog)])
            np.testing.assert_array_equal(res.job_delays["j"],
                                          _reference(prog))
            assert pool.watchdog_kills >= 1
            assert pool.n_alive() == 2
        faults.reset()

    def test_watchdog_disabled_by_default(self):
        pool = WorkerPool(1)
        try:
            assert pool.task_timeout_s == 0.0
        finally:
            pool.close()

    def test_negative_task_timeout_rejected(self, monkeypatch):
        # NaN slips past a plain `< 0` check and would SIGKILL every
        # busy worker at the first wait; infinity overflows
        # connection.wait
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="task_timeout_s"):
                WorkerPool(1, task_timeout_s=bad)
        # a non-numeric env value must not turn the watchdog off silently
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
            WorkerPool(1)

    def test_repeatedly_killed_task_raises(self, monkeypatch):
        # without a marker directory the rule fires in every freshly
        # forked worker, so every dispatch of the task kills its worker:
        # the pool must give up with a RuntimeError after MAX_REISSUES
        # instead of looping forever
        monkeypatch.delenv(faults.STATE_ENV, raising=False)
        monkeypatch.setenv(faults.PLAN_ENV, "pool.worker.task:exit:1")
        fu = build_functional_unit("int_add", width=8)
        prog = _prog(fu, random_stream(40, operand_width=8, seed=8))
        with WorkerPool(1) as pool:
            with pytest.raises(RuntimeError,
                               match=f"killed its worker {MAX_REISSUES + 1}"):
                pool.run_tasks({"j": prog}, [("j", _whole(prog))])


class TestPersistentRunner:
    def _trace(self, **kwargs):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(300, operand_width=8, seed=9)
        runner = CampaignRunner(use_cache=False, **kwargs)
        with runner:
            return runner.run([CampaignJob(fu, stream, CONDS)])[0]

    def test_pool_matches_unsharded_and_inline_shards(self):
        ref = self._trace(n_workers=1)
        pooled = self._trace(n_workers=2, shard_cycles=64)
        inline = self._trace(n_workers=1, shard_cycles=64)
        np.testing.assert_array_equal(pooled.delays, ref.delays)
        np.testing.assert_array_equal(inline.delays, ref.delays)

    def test_event_backend_corner_shards_through_pool(self):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(40, operand_width=8, seed=10)
        ref = CampaignRunner(backend="event", use_cache=False).run(
            [CampaignJob(fu, stream, CONDS)])[0]
        with CampaignRunner(backend="event", use_cache=False,
                            n_workers=2, shard_corners=1) as runner:
            pooled = runner.run([CampaignJob(fu, stream, CONDS)])[0]
            assert runner.stats.job_shards == {0: 2}
        np.testing.assert_array_equal(pooled.delays, ref.delays)

    def test_stats_shard_log_and_grids(self):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(100, operand_width=8, seed=11)
        with CampaignRunner(use_cache=False, n_workers=2,
                            shard_cycles=50, shard_corners=1) as runner:
            runner.run([CampaignJob(fu, stream, CONDS)])
            stats = runner.stats
        assert stats.job_grids == {0: (2, 2)}
        assert len(stats.shard_log) == 4
        assert {s.shard for s in stats.shard_log} == {
            (0, 1, 0, 50), (0, 1, 50, 100),
            (1, 2, 0, 50), (1, 2, 50, 100)}
        assert all(s.worker in (0, 1) for s in stats.shard_log)
        assert all(s.warm in (True, False) for s in stats.shard_log)

    def test_runner_reuses_pool_across_runs(self):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(200, operand_width=8, seed=12)
        with CampaignRunner(use_cache=False, n_workers=2,
                            shard_cycles=50) as runner:
            runner.run([CampaignJob(fu, stream, CONDS)])
            first_pool = runner._pool
            runner.run([CampaignJob(fu, stream, CONDS)])
            assert runner._pool is first_pool
            # second run reuses warm workers: every shard warm
            assert all(s.warm for s in runner.stats.shard_log)

    def test_external_pool_not_closed_by_runner(self):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(100, operand_width=8, seed=13)
        with WorkerPool(2) as pool:
            with CampaignRunner(use_cache=False, n_workers=2,
                                shard_cycles=50, pool=pool) as runner:
                runner.run([CampaignJob(fu, stream, CONDS)])
            assert not pool.closed  # runner.close() left it alone
            assert pool.n_alive() == 2


class TestWorkspacePool:
    def test_workspace_owns_shares_and_reaps(self, tmp_path):
        with Workspace(tmp_path) as ws:
            pool = ws.pool(2)
            assert ws.pool(2) is pool  # shared across calls
            runner = ws.runner(shards=ShardSpec(workers=2))
            assert runner._pool is pool
            assert len(_pool_children()) == 2
        assert pool.closed
        assert _pool_children() == []

    def test_single_worker_spec_skips_pool(self, tmp_path):
        with Workspace(tmp_path) as ws:
            runner = ws.runner(shards=ShardSpec(workers=1))
            assert runner._pool is None
            assert ws._pools == {}
