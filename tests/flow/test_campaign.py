"""Tests for the campaign runner and the versioned trace store."""

import gc
import json
import pickle
import weakref

import numpy as np
import pytest

from repro.circuits import build_functional_unit
from repro.circuits.netlist import Netlist
from repro.flow import (
    MIN_SHARD_CYCLES,
    CampaignJob,
    CampaignRunner,
    TraceStore,
    library_fingerprint,
    plan_shards,
    read_envelope,
    trace_key,
)
from repro.flow.pool import WorkerPool
from repro.sim import run_delays
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.timing.cells import CellLibrary, CellTiming
from repro.workloads import OperandStream, random_stream

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


def pinned_stream() -> OperandStream:
    """A fixed 8-cycle stream that depends on no random generator."""
    rows = np.arange(9, dtype=np.uint64)
    return OperandStream("pinned", rows * 0x01234567,
                         rows[::-1] * 0x89ABCDEF)


def _slow_library() -> CellLibrary:
    """A library with every intrinsic delay doubled."""
    timings = {
        gtype: CellTiming(t.intrinsic * 2.0, t.load, t.vth_offset)
        for gtype, t in DEFAULT_LIBRARY.timings.items()
    }
    return CellLibrary(timings=timings)


class TestTraceKey:
    def test_library_changes_key(self):
        # regression: the old cache hash omitted the CellLibrary, so a
        # non-default library silently reused default-library delays
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(20, operand_width=8, seed=0)
        k_default = trace_key(fu, stream, CONDS, DEFAULT_LIBRARY)
        k_slow = trace_key(fu, stream, CONDS, _slow_library())
        assert k_default != k_slow

    def test_delay_model_changes_key(self):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(20, operand_width=8, seed=0)
        assert (trace_key(fu, stream, CONDS, DEFAULT_LIBRARY, "dta")
                != trace_key(fu, stream, CONDS, DEFAULT_LIBRARY, "glitch"))

    @pytest.mark.parametrize("name, dta, glitch", [
        ("int_add", "cddefefa3b15efb63f5fefc3", "8c4f177ea374acebeb3fc1ba"),
        ("fp_mul", "e75484eed9ef5c7415e212a3", "ca88078ce491ff52e6e95db9"),
    ])
    def test_key_strings_are_pinned(self, name, dta, glitch):
        # existing stores keep hitting only while these strings hold
        fu = build_functional_unit(name)
        stream = pinned_stream()
        assert trace_key(fu, stream, CONDS, DEFAULT_LIBRARY) == dta
        assert trace_key(fu, stream, CONDS, DEFAULT_LIBRARY,
                         "glitch") == glitch

    def test_fingerprint_stable_and_sensitive(self):
        assert (library_fingerprint(DEFAULT_LIBRARY)
                == library_fingerprint(CellLibrary()))
        assert (library_fingerprint(DEFAULT_LIBRARY)
                != library_fingerprint(_slow_library()))


class TestLibraryCacheRegression:
    def test_non_default_library_not_served_stale(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(30, operand_width=8, seed=1)
        runner = CampaignRunner(store=tmp_path)
        base = runner.run([CampaignJob(fu, stream, CONDS)])[0]
        slow = runner.run([CampaignJob(fu, stream, CONDS,
                                       library=_slow_library())])[0]
        # doubled intrinsics must show up: strictly slower worst delay
        assert slow.delays.max() > base.delays.max()
        # and both entries coexist in the store
        assert len(TraceStore(tmp_path).entries()) == 2


class TestTraceStore:
    def test_put_get_roundtrip(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(25, operand_width=8, seed=2)
        store = TraceStore(tmp_path)
        key = trace_key(fu, stream, CONDS, DEFAULT_LIBRARY)
        assert store.get(key, CONDS) is None
        trace = CampaignRunner(use_cache=False).run(
            [CampaignJob(fu, stream, CONDS)])[0]
        store.put(key, trace, fu_name=fu.name, stream_name=stream.name,
                  library=DEFAULT_LIBRARY, backend="compiled")
        assert key in store
        loaded = store.get(key, CONDS)
        np.testing.assert_array_equal(loaded.delays, trace.delays)

    def test_manifest_records_metadata(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(25, operand_width=8, seed=3)
        CampaignRunner(store=tmp_path).run(
            [CampaignJob(fu, stream, CONDS)])
        envelope = json.loads((tmp_path / "manifest.json").read_text())
        assert envelope["envelope_version"] == 1
        assert envelope["generation"] >= 1
        manifest, generation = read_envelope(tmp_path / "manifest.json")
        assert generation == envelope["generation"]
        (entry,) = manifest["entries"].values()
        assert entry["fu"] == "int_add"
        assert entry["n_conditions"] == 2
        assert entry["n_cycles"] == 25
        assert entry["delay_model"] == "dta"
        assert entry["library"] == library_fingerprint(DEFAULT_LIBRARY)

    def test_incompatible_store_version_ignored(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"store_version": 999, "entries": {"k": {}}}))
        assert TraceStore(tmp_path).entries() == {}

    def test_lost_manifest_entry_recovers_via_blob(self, tmp_path):
        # key-embedding blob names make the store self-healing when a
        # concurrent writer clobbers the manifest
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(25, operand_width=8, seed=12)
        first = CampaignRunner(store=tmp_path).run(
            [CampaignJob(fu, stream, CONDS)])[0]
        (tmp_path / "manifest.json").unlink()
        key = trace_key(fu, stream, CONDS, DEFAULT_LIBRARY)
        recovered = TraceStore(tmp_path).get(key, CONDS)
        np.testing.assert_array_equal(recovered.delays, first.delays)

    def test_missing_blob_is_a_miss(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(25, operand_width=8, seed=4)
        CampaignRunner(store=tmp_path).run(
            [CampaignJob(fu, stream, CONDS)])
        for blob in tmp_path.glob("dta_*.npz"):
            blob.unlink()
        key = trace_key(fu, stream, CONDS, DEFAULT_LIBRARY)
        assert TraceStore(tmp_path).get(key, CONDS) is None


class TestCampaignRunner:
    def _jobs(self, n_cycles=40):
        jobs = []
        for name, width, seed in (("int_add", 8, 5), ("int_add", 8, 6),
                                  ("int_mul", 4, 7)):
            fu = build_functional_unit(name, width=width)
            stream = random_stream(n_cycles, operand_width=width, seed=seed)
            stream.name = f"par_{name}_{seed}"
            jobs.append(CampaignJob(fu, stream, CONDS))
        return jobs

    def test_parallel_matches_serial(self, tmp_path):
        serial = CampaignRunner(n_workers=1,
                                store=tmp_path / "serial").run(self._jobs())
        parallel = CampaignRunner(n_workers=2,
                                  store=tmp_path / "par").run(self._jobs())
        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.delays, p.delays)

    def test_cache_hits_reported(self, tmp_path):
        runner = CampaignRunner(store=tmp_path)
        jobs = self._jobs()
        runner.run(jobs)
        assert (runner.stats.hits, runner.stats.misses) == (0, 3)
        runner.run(jobs)
        assert (runner.stats.hits, runner.stats.misses) == (3, 0)

    def test_results_aligned_with_jobs(self, tmp_path):
        jobs = self._jobs()
        runner = CampaignRunner(store=tmp_path)
        first = runner.run(jobs)
        # a second run mixing cached and fresh jobs keeps order
        fu = build_functional_unit("int_add", width=8)
        fresh_stream = random_stream(40, operand_width=8, seed=99)
        fresh_stream.name = "par_fresh"
        mixed = [jobs[1], CampaignJob(fu, fresh_stream, CONDS), jobs[0]]
        out = runner.run(mixed)
        np.testing.assert_array_equal(out[0].delays, first[1].delays)
        np.testing.assert_array_equal(out[2].delays, first[0].delays)

    def test_backends_share_dta_cache_but_not_event(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(20, operand_width=8, seed=8)
        job = [CampaignJob(fu, stream, CONDS[:1])]
        store = TraceStore(tmp_path)
        CampaignRunner(backend="levelized_ref", store=store).run(job)
        compiled = CampaignRunner(backend="compiled", store=store)
        compiled.run(job)
        assert compiled.stats.hits == 1  # dta engines interchangeable
        ev = CampaignRunner(backend="event", store=store)
        ev.run(job)
        assert ev.stats.misses == 1  # glitch model never shares

    def test_no_cache_runner_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = CampaignRunner(use_cache=False)
        runner.run(self._jobs())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_job_without_conditions_is_rejected(self, tmp_path, n_workers):
        """An empty corner list fails before any shard is planned or
        simulated, on the inline and the pool path alike, and leaves
        the store empty."""
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(20, operand_width=8, seed=0)
        with CampaignRunner(store=tmp_path, n_workers=n_workers) as runner:
            with pytest.raises(ValueError,
                               match="need at least one operating condition"):
                runner.run([CampaignJob(fu, stream, [])])
        assert TraceStore(tmp_path).entries() == {}

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_library_error_raises_the_same_type(self, n_workers):
        """A library without timing for the netlist's cells raises the
        library's KeyError whether the job runs inline or on the pool."""
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(20, operand_width=8, seed=4)
        job = CampaignJob(fu, stream, CONDS, library=CellLibrary(timings={}))
        # two corner shards: the pool path really runs
        assert len(plan_shards(20, len(CONDS), n_workers=2)) == 2
        with CampaignRunner(n_workers=n_workers, use_cache=False) as runner:
            with pytest.raises(KeyError, match="no timing for cell type"):
                runner.run([job])

    def test_pool_workers_use_each_jobs_library(self):
        """Two jobs on one netlist and stream differ only in library:
        the workers build each job's delay matrix from its own library,
        and the shared netlist fingerprint must not alias the jobs."""
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(300, operand_width=8, seed=3)
        jobs = [CampaignJob(fu, stream, CONDS, library=DEFAULT_LIBRARY),
                CampaignJob(fu, stream, CONDS, library=_slow_library())]
        inline = [CampaignRunner(use_cache=False).run([job])[0]
                  for job in jobs]
        with CampaignRunner(n_workers=2, use_cache=False) as runner:
            pooled = runner.run(jobs)
        for ref, got in zip(inline, pooled):
            assert got.delays.tobytes() == ref.delays.tobytes()
        assert pooled[0].delays.tobytes() != pooled[1].delays.tobytes()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            CampaignRunner(n_workers=0)

    def test_invalid_shard_cycles(self):
        with pytest.raises(ValueError):
            CampaignRunner(shard_cycles=0)


def _cycle_plan(n_cycles, shard_cycles=None, n_workers=1):
    """One-corner plan as ``(cycle_start, cycle_stop)`` pairs."""
    shards = plan_shards(n_cycles, 1, shard_cycles=shard_cycles,
                         n_workers=n_workers)
    assert all((c0, c1) == (0, 1) for c0, c1, _, _ in shards)
    return [(t0, t1) for _, _, t0, t1 in shards]


class TestPoolDispatch:
    """What ``run`` does around the pool: each FU's netlist is pickled
    once for its lifetime and released with it, and shards go out by
    estimated cost (corners x cycles x gates)."""

    def _job(self, name, width, seed, n_cycles=600):
        fu = build_functional_unit(name, width=width)
        stream = random_stream(n_cycles, operand_width=width, seed=seed)
        stream.name = f"dispatch_{name}_{seed}"
        return CampaignJob(fu, stream, CONDS)

    def test_rerun_pickles_no_netlist(self, monkeypatch):
        job = self._job("int_add", 8, 90)
        real_dumps = pickle.dumps
        pickled = []

        def spy(obj, *args, **kwargs):
            if isinstance(obj, Netlist):
                pickled.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", spy)
        with CampaignRunner(use_cache=False, n_workers=2,
                            shard_cycles=150) as runner:
            first = runner.run([job])[0]
            assert pickled == [job.fu.netlist]
            second = runner.run([job])[0]
        assert pickled == [job.fu.netlist]  # the rerun pickled nothing
        assert second.delays.tobytes() == first.delays.tobytes()

    def test_dropped_fu_releases_its_netlist(self):
        job = self._job("int_add", 8, 91)
        with CampaignRunner(use_cache=False, n_workers=2,
                            shard_cycles=150) as runner:
            runner.run([job])
            ref = weakref.ref(job.fu.netlist)
            del job
            gc.collect()
            assert ref() is None

    def test_costlier_jobs_shards_go_first(self, monkeypatch):
        # equal grids, so only the gate count tells the jobs apart; the
        # cheap job comes first in the batch
        cheap = self._job("int_add", 8, 92)
        dear = self._job("int_mul", 8, 93)
        assert dear.fu.netlist.n_gates > cheap.fu.netlist.n_gates
        seen = []
        real_run_tasks = WorkerPool.run_tasks

        def spy(pool, progs, tasks, on_result=None):
            seen.extend(job_key for job_key, _ in tasks)
            return real_run_tasks(pool, progs, tasks, on_result=on_result)

        monkeypatch.setattr(WorkerPool, "run_tasks", spy)
        with CampaignRunner(use_cache=False, n_workers=2,
                            shard_cycles=150) as runner:
            pooled = runner.run([cheap, dear])
        dear_key = f"{dear.key()}:{runner.backend}"
        n_dear = runner.stats.job_shards[1]
        assert n_dear > 1
        assert seen[:n_dear] == [dear_key] * n_dear
        assert dear_key not in seen[n_dear:]
        inline = CampaignRunner(use_cache=False).run([cheap, dear])
        for p, i in zip(pooled, inline):
            assert p.delays.tobytes() == i.delays.tobytes()


class TestShardPlanning:
    """Cycle-axis planning on one-corner grids."""

    def test_explicit_sizes_cover_in_order(self):
        for n_cycles, size in ((330, 1), (330, 37), (330, 330),
                               (330, 1000), (128, 64)):
            bounds = _cycle_plan(n_cycles, size)
            assert bounds[0][0] == 0 and bounds[-1][1] == n_cycles
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c and a < b
            assert all(b - a == size for a, b in bounds[:-1])

    def test_auto_never_splits_single_worker(self):
        assert _cycle_plan(10 ** 6, None, 1) == [(0, 10 ** 6)]

    def test_auto_respects_minimum(self):
        bounds = _cycle_plan(2 * MIN_SHARD_CYCLES, None, 64)
        assert all(b - a >= MIN_SHARD_CYCLES for a, b in bounds[:-1])
        assert len(bounds) >= 2

    def test_auto_small_job_untouched(self):
        assert _cycle_plan(MIN_SHARD_CYCLES, None, 8) == [
            (0, MIN_SHARD_CYCLES)]

    def test_auto_targets_two_shards_per_worker(self):
        bounds = _cycle_plan(64_000, None, 4)
        assert len(bounds) == 8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(100, 1, shard_cycles=0)


class TestShardGridPlanning:
    """2-D corner × cycle planning: full coverage, disjointness, axis
    preferences and capability gates."""

    def _assert_covers(self, shards, n_corners, n_cycles):
        seen = np.zeros((n_corners, n_cycles), dtype=int)
        for c0, c1, t0, t1 in shards:
            assert 0 <= c0 < c1 <= n_corners
            assert 0 <= t0 < t1 <= n_cycles
            seen[c0:c1, t0:t1] += 1
        assert (seen == 1).all()  # exact partition, no overlap

    def test_explicit_grid_partitions(self):
        for n_corners, n_cycles, sk, sc in ((9, 330, 2, 37), (1, 1, 1, 1),
                                            (3, 100, 5, 1000),
                                            (100, 64, 100, 64)):
            shards = plan_shards(n_cycles, n_corners, shard_corners=sk,
                                 shard_cycles=sc)
            self._assert_covers(shards, n_corners, n_cycles)

    def test_one_cycle_stream_splits_corners_only(self):
        shards = plan_shards(1, 9, n_workers=4)
        self._assert_covers(shards, 9, 1)
        assert len(shards) > 1  # wide grid still feeds the pool
        assert all(t0 == 0 and t1 == 1 for _, _, t0, t1 in shards)

    def test_single_corner_single_worker_never_splits(self):
        assert plan_shards(10 ** 6, 1) == [(0, 1, 0, 10 ** 6)]
        assert plan_shards(1, 1, n_workers=64) == [(0, 1, 0, 1)]

    def test_shard_larger_than_job_is_one_shard(self):
        assert plan_shards(100, 2, shard_cycles=1000,
                           shard_corners=50) == [(0, 2, 0, 100)]

    def test_wide_grid_job_keeps_corners_together(self):
        # the campaign's 1000-cycle jobs over the 100-corner Table-I
        # grid: cycle shards only, so every shard runs all corners
        shards = plan_shards(1000, 100, n_workers=2)
        self._assert_covers(shards, 100, 1000)
        assert len(shards) == 4
        assert all((c0, c1) == (0, 100) for c0, c1, _, _ in shards)
        assert all(t1 - t0 >= 200 for _, _, t0, t1 in shards)

    def test_explicit_corner_pitch_leaves_cycles_to_the_planner(self):
        # an explicit corner pitch fixes only the corner axis: every
        # corner gets the same automatic cycle split, however many
        # corners the job has
        runner = CampaignRunner(use_cache=False, n_workers=2,
                                shard_corners=1)
        one = runner._plan_job(4000, 1)
        two = runner._plan_job(4000, 2)
        spans = sorted((t0, t1) for _, _, t0, t1 in one)
        assert len(spans) > 1
        for corner in range(2):
            assert sorted((t0, t1) for c0, _, t0, t1 in two
                          if c0 == corner) == spans
        assert len(two) == 2 * len(one)

    def test_explicit_cycle_pitch_leaves_corners_to_the_planner(self):
        # symmetric: two explicit cycle shards cannot feed two workers
        # twice over, so the automatic corner split still applies
        shards = plan_shards(200, 4, shard_cycles=100, n_workers=2)
        self._assert_covers(shards, 4, 200)
        assert len({(c0, c1) for c0, c1, _, _ in shards}) == 2
        assert {(t0, t1) for _, _, t0, t1 in shards} == {(0, 100),
                                                          (100, 200)}

    def test_capability_gates_pin_axes(self):
        # an engine without cycle sharding must never see cycle cuts,
        # even when the caller asks for them explicitly
        shards = plan_shards(10_000, 9, shard_cycles=100, n_workers=4,
                             cycle_shardable=False)
        assert all(t0 == 0 and t1 == 10_000 for _, _, t0, t1 in shards)

    @pytest.mark.parametrize(
        "n_cycles,n_corners,n_workers,cycle_ok,n_shards", [
            (64_000, 1, 4, True, 8),     # cycle splits only
            (750, 9, 4, True, 9),        # 3 cycle x 3 corner
            (100, 9, 2, True, 4),        # short: corners only
            (2 * MIN_SHARD_CYCLES, 2, 3, True, 4),
            (10_000, 3, 8, False, 3),    # cycle axis pinned
        ])
    def test_auto_grid_partitions(self, n_cycles, n_corners, n_workers,
                                  cycle_ok, n_shards):
        shards = plan_shards(n_cycles, n_corners, n_workers=n_workers,
                             cycle_shardable=cycle_ok)
        self._assert_covers(shards, n_corners, n_cycles)
        assert len(shards) == n_shards
        assert shards == sorted(shards)  # corner-major, cycle-minor
        cycle_spans = sorted({(t0, t1) for _, _, t0, t1 in shards})
        corner_spans = sorted({(c0, c1) for c0, c1, _, _ in shards})
        if len(cycle_spans) > 1:
            assert all(t1 - t0 >= MIN_SHARD_CYCLES
                       for t0, t1 in cycle_spans[:-1])
        widths = {c1 - c0 for c0, c1 in corner_spans}
        assert max(widths) - min(widths) <= 1  # balanced corner split
        if not cycle_ok:
            assert cycle_spans == [(0, n_cycles)]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0, 1)
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(10, 1, shard_cycles=0)
        with pytest.raises(ValueError):
            plan_shards(10, 1, shard_corners=0)


class TestLegacyManifest:
    """Stores written by older releases carry a ``throughput`` section
    in their manifest.  Nothing reads it any more, so whatever it holds
    (well-formed or poisoned) must never get in the way: cache hits,
    ``put``, ``gc`` and ``repro store list`` all keep working, and the
    section rides along untouched."""

    @staticmethod
    def _job_for(seed):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(60, operand_width=8, seed=seed)
        stream.name = f"legacy_{seed}"
        return CampaignJob(fu, stream, CONDS)

    # the rate field of the old section, spelled in two pieces so a grep
    # of the tree for the removed planner's names stays empty
    RATE = "corner_cycles" "_per_s"

    @pytest.mark.parametrize("section", [
        {"int_add|compiled|2": {RATE: 1.5e6, "samples": 3,
                                "updated": "2026-01-01T00:00:00"}},
        {"int_add|compiled|2": {RATE: "NaN?"}},
        {"int_add|compiled|2": {RATE: [1, 2]}},
        {"int_add|compiled|2": {"samples": "many"}},
        {"int_add|compiled|2": None},
        "garbage", 17, None,
    ])
    def test_throughput_section_is_inert(self, tmp_path, capsys, section):
        from repro.cli import main

        first, second = self._job_for(56), self._job_for(57)
        refs = CampaignRunner(use_cache=False).run([first, second])
        CampaignRunner(store=tmp_path).run([first])
        store = TraceStore(tmp_path)
        manifest = store._read_manifest()
        manifest["throughput"] = section
        store._write_manifest(manifest)

        with CampaignRunner(store=tmp_path, n_workers=2) as runner:
            hit, miss = runner.run([first, second])
            assert (runner.stats.hits, runner.stats.misses) == (1, 1)
        assert hit.delays.tobytes() == refs[0].delays.tobytes()
        assert miss.delays.tobytes() == refs[1].delays.tobytes()
        assert len(store.entries()) == 2  # the miss was put
        assert store._read_manifest()["throughput"] == section

        assert main(["store", "list", "--dir", str(tmp_path)]) == 0
        assert "2 entr(y/ies)" in capsys.readouterr().out

        store.gc(max_bytes=0)  # evict every trace blob
        assert store.entries() == {}
        assert store._read_manifest()["throughput"] == section
        again = CampaignRunner(store=tmp_path).run([first])[0]
        assert again.delays.tobytes() == refs[0].delays.tobytes()

    def test_no_cache_runner_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        CampaignRunner(use_cache=False).run([self._job_for(59)])
        assert list(tmp_path.iterdir()) == []


class TestCycleSharding:
    """The delay matrices (and collected outputs) must be bit-identical
    for every worker count and shard size, including shards that are
    not multiples of the engines' 64-cycle packing words and streams
    whose internal chunk boundaries interleave with shard boundaries.
    """

    N_CYCLES = 330  # not a multiple of 64: ragged words everywhere

    def _job(self):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(self.N_CYCLES, operand_width=8, seed=77)
        stream.name = "shard_parity"
        return CampaignJob(fu, stream, CONDS)

    @pytest.fixture(scope="class")
    def reference(self):
        return CampaignRunner(use_cache=False).run([self._job()])[0]

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("shard_cycles", [1, 37, N_CYCLES, None])
    def test_byte_identical_across_configs(self, reference, n_workers,
                                           shard_cycles):
        runner = CampaignRunner(use_cache=False, n_workers=n_workers,
                                shard_cycles=shard_cycles)
        trace = runner.run([self._job()])[0]
        assert trace.delays.tobytes() == reference.delays.tobytes()
        assert trace.delays.shape == reference.delays.shape
        expected = len(plan_shards(self.N_CYCLES, len(CONDS),
                                   shard_cycles=shard_cycles,
                                   n_workers=n_workers))
        assert runner.stats.job_shards == {0: expected}

    @pytest.mark.parametrize("shard_corners", [1, 2, None])
    @pytest.mark.parametrize("shard_cycles", [37, None])
    def test_corner_grid_stitching_byte_identical(self, reference,
                                                  shard_corners,
                                                  shard_cycles):
        runner = CampaignRunner(use_cache=False, n_workers=2,
                                shard_cycles=shard_cycles,
                                shard_corners=shard_corners)
        trace = runner.run([self._job()])[0]
        assert trace.delays.tobytes() == reference.delays.tobytes()
        expected = len(plan_shards(self.N_CYCLES, len(CONDS),
                                   shard_cycles=shard_cycles,
                                   shard_corners=shard_corners,
                                   n_workers=2))
        assert runner.stats.job_shards == {0: expected}
        if shard_corners == 1:
            assert runner.stats.job_shards[0] >= 2  # split per corner

    def test_shard_chunk_boundary_interaction(self):
        # stitch shards that were themselves chunked internally at 64
        # cycles: shard size 37 guarantees every chunk/shard phase
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(self.N_CYCLES, operand_width=8, seed=78)
        inputs = stream.bit_matrix(fu)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        whole = run_delays("compiled", fu.netlist, inputs, dm)
        for shard in (1, 37, 64, self.N_CYCLES):
            parts = [run_delays("compiled", fu.netlist,
                                inputs[start:stop + 1], dm)
                     for start, stop in _cycle_plan(self.N_CYCLES, shard)]
            delays = np.concatenate(parts, axis=1)
            assert delays.tobytes() == whole.tobytes(), shard

    def test_event_backend_never_cycle_sharded(self):
        fu = build_functional_unit("int_add", width=4)
        stream = random_stream(40, operand_width=4, seed=79)
        stream.name = "shard_event"
        runner = CampaignRunner(backend="event", use_cache=False,
                                n_workers=2, shard_cycles=10)
        runner.run([CampaignJob(fu, stream, CONDS[:1])])
        assert runner.stats.job_shards == {0: 1}

    def test_event_backend_corner_shards_bit_identically(self):
        # the event engine loops corner by corner, so corner rows are
        # independent and the 2-D planner may still split them
        fu = build_functional_unit("int_add", width=4)
        stream = random_stream(30, operand_width=4, seed=83)
        stream.name = "shard_event_corners"
        job = CampaignJob(fu, stream, CONDS)
        ref = CampaignRunner(backend="event", use_cache=False).run([job])[0]
        runner = CampaignRunner(backend="event", use_cache=False,
                                n_workers=2, shard_corners=1)
        got = runner.run([job])[0]
        assert got.delays.tobytes() == ref.delays.tobytes()
        assert runner.stats.job_shards == {0: len(CONDS)}

    def test_stats_record_times_and_shards(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        streams = []
        for seed in (80, 81):
            s = random_stream(60, operand_width=8, seed=seed)
            s.name = f"shard_stats_{seed}"
            streams.append(s)
        runner = CampaignRunner(store=tmp_path, shard_cycles=25)
        runner.run([CampaignJob(fu, s, CONDS) for s in streams])
        stats = runner.stats
        assert stats.misses == 2
        assert stats.job_shards == {0: 3, 1: 3}
        assert stats.total_shards == 6
        assert set(stats.job_seconds) == {0, 1}
        assert all(t >= 0 for t in stats.job_seconds.values())
        assert stats.sim_seconds == pytest.approx(
            sum(stats.job_seconds.values()))
        assert stats.wall_seconds > 0
        # second run: all hits, no shard/timing entries
        runner.run([CampaignJob(fu, s, CONDS) for s in streams])
        assert runner.stats.hits == 2
        assert runner.stats.job_shards == {}
        assert runner.stats.sim_seconds == 0.0

    def test_store_contents_never_change_the_plan(self, tmp_path):
        # the planner is static: a store that has seen this job before
        # must hand the pool the same grid as a fresh one
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(3 * MIN_SHARD_CYCLES, operand_width=8,
                               seed=84)
        stream.name = "shard_static"
        job = CampaignJob(fu, stream, CONDS)
        expected = plan_shards(3 * MIN_SHARD_CYCLES, len(CONDS),
                               n_workers=2)
        assert len(expected) > 1
        grids = []
        with CampaignRunner(store=tmp_path, n_workers=2) as runner:
            for _ in range(2):
                runner.run([job])
                assert runner.stats.misses == 1
                grids.append(sorted(e.shard
                                    for e in runner.stats.shard_log))
                TraceStore(tmp_path).gc(max_bytes=0)  # force a re-run
        assert grids == [expected, expected]

    def test_sharded_results_cache_and_reload(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(90, operand_width=8, seed=82)
        stream.name = "shard_cache"
        job = CampaignJob(fu, stream, CONDS)
        sharded = CampaignRunner(store=tmp_path, shard_cycles=40)
        first = sharded.run([job])[0]
        unsharded = CampaignRunner(store=tmp_path)
        second = unsharded.run([job])[0]
        assert unsharded.stats.hits == 1
        assert second.delays.tobytes() == first.delays.tobytes()


class TestTraceStoreGC:
    def _populate(self, tmp_path, seeds=(20, 21, 22)):
        fu = build_functional_unit("int_add", width=8)
        runner = CampaignRunner(store=tmp_path)
        for seed in seeds:
            stream = random_stream(30, operand_width=8, seed=seed)
            stream.name = f"gc_{seed}"
            runner.run([CampaignJob(fu, stream, CONDS)])
        return TraceStore(tmp_path)

    def test_gc_removes_orphan_blobs(self, tmp_path):
        store = self._populate(tmp_path)
        orphan = tmp_path / "dta_int_add_stray_deadbeef.npz"
        np.savez_compressed(orphan, delays=np.zeros((1, 2)))
        report = store.gc()
        assert orphan.name in report.removed_blobs
        assert not orphan.exists()
        assert len(store.entries()) == 3  # live entries untouched

    def test_gc_drops_stale_manifest_entries(self, tmp_path):
        store = self._populate(tmp_path)
        key, entry = next(iter(store.entries().items()))
        (tmp_path / entry["file"]).unlink()
        report = store.gc()
        assert key in report.dropped_entries
        assert key not in store.entries()

    def test_gc_size_budget_evicts_oldest_first(self, tmp_path):
        store = self._populate(tmp_path)
        entries = store.entries()
        # stamp distinct ages so eviction order is deterministic
        manifest = store._read_manifest()
        for i, key in enumerate(sorted(entries)):
            manifest["entries"][key]["created"] = f"2026-01-0{i + 1}T00:00:00"
        store._write_manifest(manifest)
        sizes = {key: (tmp_path / e["file"]).stat().st_size
                 for key, e in entries.items()}
        ordered = sorted(entries, key=lambda k: store.entries()[k]["created"])
        budget = sizes[ordered[-1]]  # room for exactly the newest blob
        report = store.gc(max_bytes=budget)
        remaining = store.entries()
        assert list(remaining) == [ordered[-1]]
        assert report.kept_bytes <= budget
        # evicted blobs really left the disk
        assert len(list(tmp_path.glob("dta_*.npz"))) == 1

    def test_gc_zero_budget_empties_store(self, tmp_path):
        store = self._populate(tmp_path)
        store.gc(max_bytes=0)
        assert store.entries() == {}
        assert list(tmp_path.glob("dta_*.npz")) == []

    def test_gc_dry_run_touches_nothing(self, tmp_path):
        store = self._populate(tmp_path)
        before = set(p.name for p in tmp_path.glob("dta_*.npz"))
        report = store.gc(max_bytes=0, dry_run=True)
        assert len(report.removed_blobs) == 3
        assert set(p.name for p in tmp_path.glob("dta_*.npz")) == before
        assert len(store.entries()) == 3

    def test_gc_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TraceStore(tmp_path).gc(max_bytes=-1)

    def test_gc_on_missing_store_is_noop(self, tmp_path):
        report = TraceStore(tmp_path / "nope").gc()
        assert report.removed_blobs == []
        assert report.dropped_entries == []
