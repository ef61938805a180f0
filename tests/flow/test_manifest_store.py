"""The policy both manifest-backed stores share.

The trace store and the model registry run on one
:class:`~repro.flow.manifest.ManifestStore`: this file pins the rules
that live there once — a manifest of another schema version is read as
empty but never rewritten or collected, gc sweeps crashed writers'
temp files in either store, and a journal part is never swept by a gc
running while it is written.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.flow import StoreVersionError, TraceStore
from repro.flow.durable import read_envelope, write_envelope
from repro.serve import ModelRegistry
from repro.sim.dta import DelayTrace
from repro.timing import DEFAULT_LIBRARY, OperatingCondition

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)
CONDS = [OperatingCondition(0.9, 25.0)]
PLAN = [(0, 1, 0, 4), (0, 1, 4, 8)]
JOURNAL = dict(backend="compiled", n_corners=1, n_cycles=8)


def _put(store, key):
    delays = np.arange(8, dtype=np.float32).reshape(1, 8)
    return store.put(key, DelayTrace(delays, CONDS), fu_name="int_add",
                     stream_name="s0", library=DEFAULT_LIBRARY,
                     backend="compiled")


def _rewrite_version(root, version_key, version):
    """Re-seal the manifest under another schema version (the checksum
    stays valid, so this is a foreign store, not a corrupt one)."""
    path = root / "manifest.json"
    payload, _ = read_envelope(path)
    payload[version_key] = version
    write_envelope(path, payload)


def _snapshot(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.is_file() and not p.name.startswith(".")}


@pytest.fixture
def foreign_store(tmp_path):
    store = TraceStore(tmp_path)
    _put(store, "k0")
    _put(store, "k1")
    _rewrite_version(tmp_path, "store_version", 999)
    return store


@pytest.fixture
def foreign_registry(tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.publish({"stub": 0}, fu="int_add")
    registry.publish({"stub": 1}, fu="int_add")
    _rewrite_version(tmp_path, "registry_version", 999)
    return registry


class TestForeignSchemaVersion:
    def test_trace_store_reads_as_empty(self, foreign_store, tmp_path):
        before = _snapshot(tmp_path)
        assert foreign_store.entries() == {}
        assert "k0" not in foreign_store
        assert foreign_store.get("k0", CONDS) is None
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("write", [
        lambda s: s.gc(dry_run=True),
        lambda s: s.gc(),
        lambda s: s.gc(max_bytes=0),
        lambda s: _put(s, "k0"),
        lambda s: _put(s, "k9"),
        lambda s: s.record_journal_shard(
            "j0", plan=PLAN, shard=PLAN[0],
            delays=np.ones((1, 4), np.float32), **JOURNAL),
    ], ids=["gc-dry-run", "gc", "gc-budget", "put-same-key", "put",
            "journal"])
    def test_trace_store_writers_refuse(self, foreign_store, tmp_path,
                                        write):
        before = _snapshot(tmp_path)
        with pytest.raises(StoreVersionError) as err:
            write(foreign_store)
        message = str(err.value)
        assert str(tmp_path / "manifest.json") in message
        assert "999" in message and "version 1" in message
        assert _snapshot(tmp_path) == before

    def test_registry_reads_as_empty(self, foreign_registry, tmp_path):
        before = _snapshot(tmp_path)
        assert foreign_registry.list_models() == []
        assert len(foreign_registry) == 0
        with pytest.raises(LookupError):
            foreign_registry.resolve("int_add")
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("write", [
        lambda r: r.gc(dry_run=True),
        lambda r: r.gc(keep=1),
        lambda r: r.publish({"stub": 2}, fu="int_add"),
    ], ids=["gc-dry-run", "gc", "publish"])
    def test_registry_writers_refuse(self, foreign_registry, tmp_path,
                                     write):
        before = _snapshot(tmp_path)
        with pytest.raises(StoreVersionError) as err:
            write(foreign_registry)
        message = str(err.value)
        assert str(tmp_path / "manifest.json") in message
        assert "999" in message and "version 1" in message
        assert _snapshot(tmp_path) == before

    def test_store_gc_cli_exits_2(self, foreign_store, tmp_path, capsys):
        before = _snapshot(tmp_path)
        assert main(["store", "gc", "--dir", str(tmp_path),
                     "--dry-run"]) == 2
        assert main(["store", "gc", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "store_version 999" in err
        assert _snapshot(tmp_path) == before

    def test_models_gc_cli_exits_2(self, foreign_registry, tmp_path,
                                   capsys):
        before = _snapshot(tmp_path)
        assert main(["models", "gc", "--registry", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "registry_version 999" in err
        assert _snapshot(tmp_path) == before


class TestTempSweep:
    def test_registry_gc_sweeps_a_killed_publish_temp(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        record = registry.publish({"stub": 0}, fu="int_add")
        stray = tmp_path / f".{record.file}.4242.tmp"
        stray.write_bytes(b"half a pickle")
        registry.gc(dry_run=True)
        assert stray.exists()
        report = registry.gc()
        assert not stray.exists()
        assert report.removed_blobs == [] and report.dropped_entries == []
        assert [r.model_id for r in registry.list_models()] \
            == [record.model_id]


GC_CHILD = """
import sys
from repro.flow import TraceStore
TraceStore(sys.argv[1], lock_timeout=0.2).gc()
"""


class TestJournalPartUnderLock:
    def test_gc_during_the_part_write_leaves_it_alone(self, tmp_path,
                                                      monkeypatch):
        """A gc started between the part's fsync and its rename must
        not sweep the part's temp file: it waits for the store lock."""
        store = TraceStore(tmp_path)
        _put(store, "k0")
        real_fsync = os.fsync
        children = []

        def fsync_then_gc(fd):
            real_fsync(fd)
            if not children and list(tmp_path.glob(".part_*.tmp")):
                env = dict(os.environ, PYTHONPATH=SRC)
                children.append(subprocess.run(
                    [sys.executable, "-c", GC_CHILD, str(tmp_path)],
                    env=env, capture_output=True, text=True))

        monkeypatch.setattr(os, "fsync", fsync_then_gc)
        store.record_journal_shard("j0", plan=PLAN, shard=PLAN[0],
                                   delays=np.ones((1, 4), np.float32),
                                   **JOURNAL)
        monkeypatch.undo()

        (child,) = children
        assert "StoreLockTimeout" in child.stderr, child.stderr
        plan, done = store.load_journal("j0", **JOURNAL)
        assert plan == PLAN
        ((shard, part),) = done
        assert shard == PLAN[0]
        np.testing.assert_array_equal(part, np.ones((1, 4), np.float32))
