"""Concurrent-writer tests: two processes hammer the same store.

The store lock serializes read-modify-write cycles, so parallel writers
must never drop each other's manifest entries, collide on version
numbers, or leave a torn manifest behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.flow import TraceStore, read_envelope
from repro.serve import ModelRegistry
from repro.timing import OperatingCondition

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)
CONDS = [OperatingCondition(0.81, 0.0)]

STORE_WRITER = """
import sys
import numpy as np
from repro.flow import TraceStore
from repro.sim.dta import DelayTrace
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
root, tag, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
conds = [OperatingCondition(0.81, 0.0)]
store = TraceStore(root, lock_timeout=60.0)
for i in range(n):
    delays = np.full((1, 8), float(i), dtype=np.float32)
    store.put(f"{tag}{i:03d}", DelayTrace(delays, conds),
              fu_name="int_add", stream_name=f"s_{tag}{i}",
              library=DEFAULT_LIBRARY, backend="compiled")
"""

REGISTRY_WRITER = """
import sys
from repro.serve import ModelRegistry
root, n = sys.argv[1], int(sys.argv[2])
registry = ModelRegistry(root, lock_timeout=60.0)
for i in range(n):
    registry.publish({"weights": list(range(i + 1))}, fu="int_add")
"""


def _race(script, argses):
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [subprocess.Popen(
        [sys.executable, "-c", script] + [str(a) for a in args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True) for args in argses]
    for proc in procs:
        _, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err


class TestConcurrentTraceStore:
    N = 10

    def test_no_lost_entries_and_manifest_intact(self, tmp_path):
        _race(STORE_WRITER, [(tmp_path, "a", self.N),
                             (tmp_path, "b", self.N)])
        store = TraceStore(tmp_path)
        entries = store.entries()
        expected = {f"{tag}{i:03d}" for tag in "ab" for i in range(self.N)}
        assert set(entries) == expected  # neither writer lost a record
        # the surviving manifest is a checksum-clean envelope whose
        # generation counted every locked read-modify-write
        payload, generation = read_envelope(tmp_path / "manifest.json")
        assert set(payload["entries"]) == expected
        assert generation >= 2 * self.N
        # every blob reads back with the bytes its writer stored
        for tag in "ab":
            for i in range(self.N):
                trace = store.get(f"{tag}{i:03d}", CONDS)
                np.testing.assert_array_equal(
                    trace.delays, np.full((1, 8), float(i),
                                          dtype=np.float32))

    def test_no_stray_temp_files_survive(self, tmp_path):
        _race(STORE_WRITER, [(tmp_path, "a", 4), (tmp_path, "b", 4)])
        assert not list(tmp_path.glob(".*.tmp*"))
        assert not list(tmp_path.glob("*.corrupt-*"))


class TestConcurrentRegistry:
    N = 8

    def test_versions_never_collide(self, tmp_path):
        _race(REGISTRY_WRITER, [(tmp_path, self.N), (tmp_path, self.N)])
        registry = ModelRegistry(tmp_path)
        records = registry.list_models(fu="int_add", kind="tevot")
        assert len(records) == 2 * self.N  # no publish was dropped
        # the locked RMW hands out each version exactly once
        assert sorted(r.version for r in records) \
            == list(range(1, 2 * self.N + 1))
        assert len({r.file for r in records}) == 2 * self.N
        model, record = registry.resolve("int_add")
        assert record.version == 2 * self.N
        assert isinstance(model, dict)
        payload, generation = read_envelope(tmp_path / "manifest.json")
        assert len(payload["models"]) == 2 * self.N
        assert generation >= 2 * self.N
