"""Tests for the durable persistence primitives (repro.flow.durable)."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.flow import TraceStore
from repro.flow.durable import (
    ManifestCorrupt,
    StoreLock,
    StoreLockTimeout,
    atomic_replace,
    payload_checksum,
    quarantine,
    read_envelope,
    write_envelope,
)
from repro.serve import ModelRegistry
from repro.sim.dta import DelayTrace
from repro.timing import DEFAULT_LIBRARY, OperatingCondition

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)


class TestAtomicReplace:
    def test_creates_and_replaces(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_replace(path, b"one")
        assert path.read_bytes() == b"one"
        atomic_replace(path, "two")  # str accepted, utf-8 encoded
        assert path.read_bytes() == b"two"

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.txt"
        atomic_replace(path, b"deep")
        assert path.read_bytes() == b"deep"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "f.txt"
        for _ in range(3):
            atomic_replace(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


class TestEnvelopes:
    def test_roundtrip_and_generation_increments(self, tmp_path):
        path = tmp_path / "m.json"
        payload = {"entries": {"k": 1}, "store_version": 1}
        assert write_envelope(path, payload) == 1
        assert read_envelope(path) == (payload, 1)
        assert write_envelope(path, {"entries": {}}) == 2
        _, generation = read_envelope(path)
        assert generation == 2

    def test_plain_dict_is_corrupt(self, tmp_path):
        # an object without an envelope carries no checksum to trust
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"store_version": 1, "entries": {}}))
        with pytest.raises(ManifestCorrupt, match="envelope_version"):
            read_envelope(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_envelope(tmp_path / "absent.json")

    def test_truncated_json_is_corrupt(self, tmp_path):
        path = tmp_path / "m.json"
        write_envelope(path, {"entries": {}})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ManifestCorrupt, match="unparsable JSON"):
            read_envelope(path)

    def test_bitflip_under_checksum_is_corrupt(self, tmp_path):
        path = tmp_path / "m.json"
        write_envelope(path, {"entries": {"k": {"fu": "int_add"}}})
        envelope = json.loads(path.read_text())
        envelope["payload"]["entries"]["k"]["fu"] = "int_mul"  # tamper
        path.write_text(json.dumps(envelope))
        with pytest.raises(ManifestCorrupt, match="checksum mismatch"):
            read_envelope(path)

    def test_unknown_envelope_version_is_corrupt(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"envelope_version": 999, "payload": {},
                                    "sha256": payload_checksum({}),
                                    "generation": 1}))
        with pytest.raises(ManifestCorrupt, match="envelope_version"):
            read_envelope(path)

    def test_non_object_payload_is_corrupt(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"envelope_version": 1,
                                    "payload": [1, 2]}))
        with pytest.raises(ManifestCorrupt, match="payload"):
            read_envelope(path)

    def test_write_resets_generation_after_corruption(self, tmp_path):
        path = tmp_path / "m.json"
        write_envelope(path, {"a": 1})
        write_envelope(path, {"a": 2})
        path.write_text("{garbage")
        assert write_envelope(path, {"a": 3}) == 1  # history unreadable


class TestQuarantine:
    def test_moves_file_aside(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("bad")
        target = quarantine(path)
        assert not path.exists()
        assert target.name.startswith("m.json.corrupt-")
        assert target.read_text() == "bad"

    def test_vanished_file_returns_none(self, tmp_path):
        assert quarantine(tmp_path / "gone.json") is None

    def test_repeated_quarantines_get_distinct_names(self, tmp_path):
        path = tmp_path / "m.json"
        names = set()
        for i in range(3):
            path.write_text(f"bad{i}")
            names.add(quarantine(path).name)
        assert len(names) == 3
        assert len(list(tmp_path.glob("m.json.corrupt-*"))) == 3


HOLDER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.flow.durable import StoreLock
lock_path, ready = sys.argv[1], sys.argv[2]
with StoreLock(lock_path, timeout=10.0):
    Path(ready).write_text("ok")
    time.sleep(30)
"""


class TestStoreLock:
    def test_acquire_release_roundtrip(self, tmp_path):
        lock = StoreLock(tmp_path / ".lock")
        with lock:
            assert (tmp_path / ".lock").exists()
        # released: a fresh instance acquires instantly
        with StoreLock(tmp_path / ".lock", timeout=0.1):
            pass

    def test_reentrant_within_process(self, tmp_path):
        path = tmp_path / ".lock"
        with StoreLock(path, timeout=1.0):
            with StoreLock(path, timeout=0.05):  # nested: no deadlock
                pass
        with StoreLock(path, timeout=0.1):  # fully released afterwards
            pass

    def test_same_instance_not_reacquirable(self, tmp_path):
        lock = StoreLock(tmp_path / ".lock")
        with lock:
            with pytest.raises(RuntimeError, match="not re-acquirable"):
                lock.acquire()

    def test_lock_file_records_holder(self, tmp_path):
        with StoreLock(tmp_path / ".lock"):
            text = (tmp_path / ".lock").read_text()
        assert f"pid={os.getpid()}" in text
        assert "since=" in text

    def test_timeout_names_holder_pid(self, tmp_path):
        pytest.importorskip("fcntl")
        lock_path = tmp_path / ".lock"
        ready = tmp_path / "ready"
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.Popen(
            [sys.executable, "-c", HOLDER_SCRIPT, str(lock_path),
             str(ready)], env=env)
        try:
            deadline = time.monotonic() + 10.0
            while not ready.exists():
                assert time.monotonic() < deadline, "holder never started"
                assert child.poll() is None, "holder died early"
                time.sleep(0.01)
            with pytest.raises(StoreLockTimeout,
                               match=rf"held by pid={child.pid}\b"):
                StoreLock(lock_path, timeout=0.2).acquire()
        finally:
            child.kill()
            child.wait()


def _fill_trace_store(root):
    store = TraceStore(root)
    conds = [OperatingCondition(0.9, 25.0)]
    for k in range(2):
        delays = np.full((1, 8), float(k), dtype=np.float32)
        store.put(f"key{k}", DelayTrace(delays, conds), fu_name="int_add",
                  stream_name=f"s{k}", library=DEFAULT_LIBRARY,
                  backend="compiled")
    return lambda: TraceStore(root).entries()


def _fill_registry(root):
    registry = ModelRegistry(root)
    for k in range(2):
        registry.publish({"stub": k}, fu="int_add")
    return lambda: ModelRegistry(root)._read_manifest()["models"]


class TestManifestRecovery:
    """A garbled manifest is quarantined and rebuilt from the store's
    files once; the rebuilt manifest is persisted for the next open."""

    @pytest.mark.parametrize("fill", [_fill_trace_store, _fill_registry],
                             ids=["tracestore", "registry"])
    def test_rebuilds_every_entry_once(self, fill, tmp_path):
        open_entries = fill(tmp_path)
        keys = set(open_entries())
        assert len(keys) == 2
        (tmp_path / "manifest.json").write_text("{garbage")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = open_entries()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "rebuilt 2 entr" in str(caught[0].message)
        assert set(entries) == keys
        assert all(e["rebuilt"] is True for e in entries.values())
        assert len(list(tmp_path.glob("manifest.json.corrupt-*"))) == 1

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = open_entries()
        assert caught == []
        assert again == entries

    def test_rebuild_skips_a_blob_without_metadata(self, tmp_path):
        # nothing but a filename to go on: it is left out (and at worst
        # simulated again), never guessed from the name
        open_entries = _fill_trace_store(tmp_path)
        keys = set(open_entries())
        np.savez_compressed(tmp_path / "dta_int_add_s9_key9.npz",
                            delays=np.zeros((1, 8), dtype=np.float32))
        (tmp_path / "manifest.json").write_text("{garbage")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = open_entries()
        assert "rebuilt 2 entr" in str(caught[0].message)
        assert set(entries) == keys


def _flip_envelope_key(root):
    """Flip one bit of the ``envelope_version`` key in a manifest."""
    path = root / "manifest.json"
    data = bytearray(path.read_bytes())
    at = data.index(b'"envelope_version"') + 1
    data[at] ^= 0x20  # 'e' -> 'E'
    path.write_bytes(bytes(data))


def _unwrap_envelope(root):
    """Replace a manifest by its bare payload, as a writer without the
    envelope would have left it."""
    path = root / "manifest.json"
    path.write_text(json.dumps(read_envelope(path)[0]))


DAMAGE = pytest.mark.parametrize("damage", [_flip_envelope_key,
                                            _unwrap_envelope],
                                 ids=["flipped-key", "plain"])


class TestFlippedEnvelopeKey:
    """A manifest whose envelope key is damaged or missing is corrupt,
    so the store is rebuilt from its files; it must never read as an
    empty store whose files the next gc would delete."""

    @staticmethod
    def _reopen(open_entries, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = open_entries()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "rebuilt 2 entr" in str(caught[0].message)
        assert len(list(tmp_path.glob("manifest.json.corrupt-*"))) == 1
        assert all(e["rebuilt"] is True for e in entries.values())
        return entries

    @DAMAGE
    def test_trace_store_is_rebuilt_and_gc_keeps_every_blob(self, damage,
                                                             tmp_path):
        open_entries = _fill_trace_store(tmp_path)
        before = open_entries()
        blobs = sorted(tmp_path.glob("dta_*.npz"))
        assert len(blobs) == 2
        damage(tmp_path)

        entries = self._reopen(open_entries, tmp_path)
        assert set(entries) == set(before)
        for key, entry in entries.items():
            assert entry["file"] == before[key]["file"]
            assert entry["stream"] == before[key]["stream"]
        report = TraceStore(tmp_path).gc()
        assert report.removed_blobs == []
        assert report.dropped_entries == []
        assert sorted(tmp_path.glob("dta_*.npz")) == blobs

    @DAMAGE
    def test_registry_is_rebuilt_and_gc_keeps_the_newest(self, damage,
                                                         tmp_path):
        open_entries = _fill_registry(tmp_path)
        before = open_entries()
        assert sorted(e["version"] for e in before.values()) == [1, 2]
        damage(tmp_path)

        entries = self._reopen(open_entries, tmp_path)
        assert set(entries) == set(before)
        newest = max(before, key=lambda m: before[m]["version"])
        report = ModelRegistry(tmp_path).gc(keep=1)
        assert newest not in report.dropped_entries
        assert before[newest]["file"] not in report.removed_blobs
        assert (tmp_path / before[newest]["file"]).is_file()
        assert [r.model_id for r in ModelRegistry(tmp_path).list_models()] \
            == [newest]
