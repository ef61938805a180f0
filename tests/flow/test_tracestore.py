"""The trace store's contract with its callers, on a local root.

:class:`~repro.flow.campaign.CampaignRunner` reads and writes traces
and shard journals through these methods; this file
pins each one down directly, without a campaign around it: round trips
of traces of every shape, what a reopened store still sees, and which
journals ``load_journal`` refuses to resume from.
"""

import numpy as np
import pytest

from repro.flow import TraceStore, library_fingerprint
from repro.sim.dta import DelayTrace
from repro.timing import DEFAULT_LIBRARY, OperatingCondition

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(0.90, 50.0),
         OperatingCondition(1.00, 100.0)]

#: Keyword arguments of one journal: 2 corners x 8 cycles.
JOURNAL = dict(backend="compiled", n_corners=2, n_cycles=8)
PLAN = [(0, 2, 0, 4), (0, 2, 4, 8)]


def _trace(corners=2, cycles=8, value=1.0):
    delays = np.full((corners, cycles), float(value), dtype=np.float32)
    delays += np.arange(cycles, dtype=np.float32)
    return DelayTrace(delays, CONDS[:corners])


def _put(store, key, trace=None, **kwargs):
    meta = dict(fu_name="int_add", stream_name="s0",
                library=DEFAULT_LIBRARY, backend="compiled")
    meta.update(kwargs)
    return store.put(key, trace if trace is not None else _trace(), **meta)


def _part(shard):
    c0, c1, t0, t1 = shard
    return np.arange((c1 - c0) * (t1 - t0),
                     dtype=np.float32).reshape(c1 - c0, t1 - t0)


class TestTraces:
    @pytest.mark.parametrize("corners,cycles", [(1, 1), (2, 8), (3, 1000)])
    def test_put_get_contains(self, tmp_path, corners, cycles):
        store = TraceStore(tmp_path)
        assert store.get("k0", CONDS[:corners]) is None
        assert "k0" not in store
        trace = _trace(corners, cycles, value=3.5)
        _put(store, "k0", trace)
        assert "k0" in store
        back = store.get("k0", CONDS[:corners])
        assert back.delays.dtype == np.float32
        np.testing.assert_array_equal(back.delays, trace.delays)
        assert back.conditions == CONDS[:corners]

    def test_entry_records_what_produced_the_trace(self, tmp_path):
        store = TraceStore(tmp_path)
        path = _put(store, "k1", _trace(3, 20), fu_name="fp_mul",
                    stream_name="s1", delay_model="glitch", backend="event")
        entry = store.entries()["k1"]
        assert entry["file"] == path.name
        assert (entry["fu"], entry["stream"], entry["backend"],
                entry["delay_model"]) == ("fp_mul", "s1", "event", "glitch")
        assert (entry["n_conditions"], entry["n_cycles"]) == (3, 20)
        assert entry["library"] == library_fingerprint(DEFAULT_LIBRARY)

    def test_put_replaces_an_entry_under_the_same_key(self, tmp_path):
        store = TraceStore(tmp_path)
        _put(store, "k2", _trace(value=1.0))
        _put(store, "k2", _trace(value=9.0))
        assert len(store.entries()) == 1
        np.testing.assert_array_equal(store.get("k2", CONDS[:2]).delays,
                                      _trace(value=9.0).delays)

    def test_reopened_store_sees_every_entry(self, tmp_path):
        store = TraceStore(tmp_path)
        for i in range(3):
            _put(store, f"r{i}", _trace(value=i))
        again = TraceStore(tmp_path)
        assert sorted(again.entries()) == ["r0", "r1", "r2"]
        np.testing.assert_array_equal(again.get("r2", CONDS[:2]).delays,
                                      _trace(value=2).delays)

    def test_size_and_gc_to_zero(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.size_bytes() == 0
        _put(store, "g0")
        assert store.size_bytes() > 0
        report = store.gc(max_bytes=0)
        assert len(report.removed_blobs) == 1
        assert store.entries() == {}
        assert store.get("g0", CONDS[:2]) is None


class TestJournal:
    def test_roundtrip_and_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.load_journal("j0", **JOURNAL) is None
        store.record_journal_shard("j0", plan=PLAN, shard=PLAN[0],
                                   delays=_part(PLAN[0]), **JOURNAL)
        plan, done = store.load_journal("j0", **JOURNAL)
        assert plan == PLAN
        ((shard, part),) = done
        assert shard == PLAN[0]
        np.testing.assert_array_equal(part, _part(PLAN[0]))
        store.clear_journal("j0")
        assert store.load_journal("j0", **JOURNAL) is None
        assert not list(tmp_path.glob("part_j0_*"))

    def test_every_finished_shard_is_resumed(self, tmp_path):
        store = TraceStore(tmp_path)
        for shard in PLAN:
            store.record_journal_shard("j1", plan=PLAN, shard=shard,
                                       delays=_part(shard), **JOURNAL)
        _, done = TraceStore(tmp_path).load_journal("j1", **JOURNAL)
        assert sorted(shard for shard, _ in done) == PLAN

    def test_journals_are_kept_per_key(self, tmp_path):
        store = TraceStore(tmp_path)
        store.record_journal_shard("ja", plan=PLAN, shard=PLAN[0],
                                   delays=_part(PLAN[0]), **JOURNAL)
        assert store.load_journal("jb", **JOURNAL) is None
        store.clear_journal("jb")
        assert store.load_journal("ja", **JOURNAL) is not None

    @pytest.mark.parametrize("field,value", [
        ("backend", "levelized"),
        ("n_corners", 3),
        ("n_cycles", 16),
    ])
    def test_journal_of_another_run_is_ignored(self, tmp_path, field,
                                               value):
        store = TraceStore(tmp_path)
        store.record_journal_shard("j2", plan=PLAN, shard=PLAN[0],
                                   delays=_part(PLAN[0]), **JOURNAL)
        assert store.load_journal("j2", **{**JOURNAL, field: value}) is None

    @pytest.mark.parametrize("plan", [
        [(0, 2, 0, 4)],  # leaves cycles 4..8 uncovered
        [(0, 2, 0, 4), (0, 2, 4, 9)],  # runs past the last cycle
        [(0, 3, 0, 8)],  # runs past the last corner
        [(0, 2, 4, 4), (0, 2, 0, 8)],  # an empty shard
    ])
    def test_plan_that_does_not_tile_is_ignored(self, tmp_path, plan):
        store = TraceStore(tmp_path)
        store.record_journal_shard("j3", plan=plan, shard=plan[0],
                                   delays=np.zeros((1, 1), np.float32),
                                   **JOURNAL)
        assert store.load_journal("j3", **JOURNAL) is None

    def test_part_of_the_wrong_shape_is_resimulated(self, tmp_path):
        store = TraceStore(tmp_path)
        store.record_journal_shard("j4", plan=PLAN, shard=PLAN[0],
                                   delays=np.zeros((2, 3), np.float32),
                                   **JOURNAL)
        plan, done = store.load_journal("j4", **JOURNAL)
        assert plan == PLAN and done == []

    def test_missing_part_file_is_resimulated(self, tmp_path):
        store = TraceStore(tmp_path)
        for shard in PLAN:
            store.record_journal_shard("j5", plan=PLAN, shard=shard,
                                       delays=_part(shard), **JOURNAL)
        (tmp_path / "part_j5_0-2_0-4.npz").unlink()
        _, done = store.load_journal("j5", **JOURNAL)
        assert [shard for shard, _ in done] == [PLAN[1]]

    def test_shard_outside_the_plan_is_ignored(self, tmp_path):
        store = TraceStore(tmp_path)
        store.record_journal_shard("j6", plan=PLAN, shard=(0, 1, 0, 4),
                                   delays=_part((0, 1, 0, 4)), **JOURNAL)
        _, done = store.load_journal("j6", **JOURNAL)
        assert done == []
