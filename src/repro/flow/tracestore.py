"""Versioned on-disk store for characterization traces.

Replaces the old flat-file ``.npz`` cache: a :class:`TraceStore` is a
directory holding one ``manifest.json`` plus one compressed ``.npz``
blob per trace.  Entries are keyed by a content hash covering
everything that determines a DTA trace:

* the netlist identity (FU name + structural stats),
* the exact operand stream bytes,
* the operating-corner list,
* the **cell library** (per-cell timings + V/T scaling parameters) —
  the old cache omitted this, so characterizing with a non-default
  library silently returned stale delays, and
* the backend's delay model (``"dta"`` vs ``"glitch"``): the DTA
  engines agree bit-for-bit and share entries; the glitch-accurate
  event engine must not.

The manifest records per-entry metadata (shapes, library fingerprint,
producing backend, creation time).  Manifest, lock, gc and the
schema-version rule come from
:class:`~repro.flow.manifest.ManifestStore`; this module adds the keys,
the entry fields, the oldest-first byte-budget eviction and the
campaign shard journal.  Blobs embed their metadata, so a corrupt
manifest is **rebuilt by rescanning them**.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit
from ..sim.dta import DelayTrace
from ..testing import faults
from ..timing.cells import CellLibrary
from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream
from .durable import (
    ManifestCorrupt,
    StoreLock,
    StoreLockTimeout,
    atomic_replace,
    read_envelope,
    write_envelope,
)
from .manifest import GCReport, ManifestStore, StoreVersionError

#: Bump when the on-disk layout or key derivation changes.
STORE_VERSION = 1

#: Shard range a journal records: (corner0, corner1, cycle0, cycle1).
ShardRange = Tuple[int, int, int, int]

SITE_MANIFEST = faults.register_site("tracestore.manifest.replace",
                                     persistence=True)
SITE_BLOB = faults.register_site("tracestore.blob.write", persistence=True)
SITE_JOURNAL = faults.register_site("campaign.journal.replace",
                                    persistence=True)


def default_cache_dir() -> Path:
    """Default on-disk store location (override with REPRO_CACHE_DIR)."""
    return Path(os.environ.get("REPRO_CACHE_DIR",
                               Path.home() / ".cache" / "repro-tevot"))


def library_fingerprint(library: CellLibrary) -> str:
    """Stable content hash of a cell library's timing model.

    Covers every per-cell timing figure and the V/T scaling parameters
    — two libraries with the same fingerprint produce identical delay
    matrices for any netlist.
    """
    h = hashlib.sha256()
    for gtype in sorted(library.timings, key=lambda g: g.value):
        t = library.timings[gtype]
        h.update(f"{gtype.value}:{t.intrinsic!r},{t.load!r},"
                 f"{t.vth_offset!r};".encode())
    h.update(repr(library.scaling).encode())
    return h.hexdigest()[:16]


def trace_key(fu: FunctionalUnit, stream: OperandStream,
              conditions: Sequence[OperatingCondition],
              library: CellLibrary,
              delay_model: str = "dta") -> str:
    """Content hash identifying one characterization trace."""
    h = hashlib.sha256()
    h.update(f"v{STORE_VERSION};".encode())
    h.update(fu.name.encode())
    h.update(str(fu.stats()).encode())
    h.update(np.ascontiguousarray(stream.a).tobytes())
    h.update(np.ascontiguousarray(stream.b).tobytes())
    for c in conditions:
        h.update(f"{c.voltage:.4f},{c.temperature:.2f};".encode())
    h.update(library_fingerprint(library).encode())
    h.update(delay_model.encode())
    return h.hexdigest()[:24]


def _npz_bytes(delays: np.ndarray, meta_json: str) -> bytes:
    """One compressed ``.npz`` blob: the delays plus embedded metadata."""
    buf = io.BytesIO()
    np.savez_compressed(buf, delays=delays, meta=np.array(meta_json))
    return buf.getvalue()


class TraceStore(ManifestStore):
    """Manifest-backed store of delay traces under one root directory."""

    VERSION_KEY = "store_version"
    VERSION = STORE_VERSION
    ENTRIES_KEY = "entries"
    BLOB_PATTERN = "dta_*.npz"
    LOCK_NAME = ".store.lock"
    LABEL = "trace-store"
    MANIFEST_SITE = SITE_MANIFEST
    GC_SUMMARY = ("removed {removed} blob(s) ({freed_mb:.2f} MB), dropped "
                  "{dropped} entr(y/ies), {kept_mb:.2f} MB kept")

    def __init__(self, root: Union[str, Path, None] = None, *,
                 lock_timeout: float = 10.0) -> None:
        super().__init__(root if root is not None else default_cache_dir(),
                         lock_timeout=lock_timeout)

    def _blob_entry(self, blob: Path) -> Optional[Tuple[str, Dict]]:
        """(key, manifest entry) recovered from one blob's embedded
        metadata; None for an unreadable blob or one without metadata
        (skipping it costs at most a re-simulation)."""
        try:
            with np.load(blob) as data:
                shape = data["delays"].shape
                meta = json.loads(data["meta"].item())
            key, fu, stream = meta["key"], meta["fu"], meta["stream"]
        except Exception:
            return None
        entry = {
            "file": blob.name,
            "fu": fu,
            "stream": stream,
            "n_conditions": int(shape[0]),
            "n_cycles": int(shape[1]),
            "library": meta.get("library", ""),
            "delay_model": meta.get("delay_model", "dta"),
            "backend": meta.get("backend", ""),
            "created": meta.get("created",
                                time.strftime("%Y-%m-%dT%H:%M:%S")),
            "rebuilt": True,
        }
        return key, entry

    def entries(self) -> Dict[str, Dict]:
        """Key -> metadata for everything in the store."""
        return dict(self._read_manifest()["entries"])

    def __contains__(self, key: str) -> bool:
        return key in self._read_manifest()["entries"]

    # -- traces ---------------------------------------------------------------

    def get(self, key: str, conditions: Sequence[OperatingCondition],
            inputs: Optional[np.ndarray] = None) -> Optional[DelayTrace]:
        """Load the trace stored under ``key``, or None on a miss."""
        entry = self._read_manifest()["entries"].get(key)
        if entry is not None:
            blob = self.root / entry["file"]
        else:
            # blob names embed the key, so a manifest entry lost to a
            # concurrent writer still resolves instead of re-simulating
            blob = next(iter(self.root.glob(f"dta_*_{key}.npz")), None)
            if blob is None:
                return None
            try:
                self._readopt_blob(blob)
            except StoreVersionError:
                return None  # another schema's store reads as empty
        try:
            data = np.load(blob)
            delays = data["delays"]
        except FileNotFoundError:
            return None
        except Exception as exc:
            self._quarantine(blob, f"unreadable trace blob {blob.name} "
                             f"({exc})", " and treating as a cache miss")
            return None
        return DelayTrace(delays, list(conditions), inputs=inputs)

    def _readopt_blob(self, blob: Path) -> None:
        """Best-effort: re-register an orphaned blob in the manifest.

        A writer that died between the blob rename and the manifest
        replace leaves a resolvable blob with no entry — and ``gc``
        would collect it as an orphan.  Repair failures (lock
        contention, read-only store) never block the read; a store of
        another schema version raises :class:`StoreVersionError`.
        """
        rec = self._blob_entry(blob)
        if rec is None:
            return
        key, entry = rec
        try:
            with StoreLock(self.root / self.LOCK_NAME, timeout=0.5):
                manifest = self._read_manifest(for_write=True)
                if key not in manifest["entries"]:
                    manifest["entries"][key] = entry
                    self._write_manifest(manifest)
        except (StoreLockTimeout, OSError):
            pass

    def put(self, key: str, trace: DelayTrace, *, fu_name: str,
            stream_name: str, library: CellLibrary,
            delay_model: str = "dta", backend: str = "") -> Path:
        """Persist a trace and record it in the manifest.

        The blob is written atomically with its metadata embedded (for
        manifest rebuilds); blob + manifest update happen under the
        store lock so concurrent writers cannot drop each other's
        entries.  Raises :class:`StoreVersionError` on a store of
        another schema version.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        fname = f"dta_{fu_name}_{stream_name}_{key}.npz"
        entry = {
            "file": fname,
            "fu": fu_name,
            "stream": stream_name,
            "n_conditions": int(trace.delays.shape[0]),
            "n_cycles": int(trace.delays.shape[1]),
            "library": library_fingerprint(library),
            "delay_model": delay_model,
            "backend": backend,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        blob = _npz_bytes(trace.delays,
                          json.dumps({"key": key, **entry}, sort_keys=True))
        with self.lock():
            manifest = self._read_manifest(for_write=True)
            atomic_replace(self.root / fname, blob, site=SITE_BLOB)
            manifest["entries"][key] = entry
            self._write_manifest(manifest)
        return self.root / fname

    # -- eviction / garbage collection ----------------------------------------

    def size_bytes(self) -> int:
        """Total size of the trace blobs currently on disk."""
        return sum(p.stat().st_size
                   for p in self.root.glob(self.BLOB_PATTERN))

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> GCReport:
        """Collect garbage (see :meth:`ManifestStore._gc`); with
        ``max_bytes``, then evict the oldest entries (by creation
        stamp) until the remaining blobs fit that budget."""
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")

        def oldest_over_budget(entries: Dict[str, Dict],
                               live: Dict[str, int]) -> List[str]:
            if max_bytes is None:
                return []
            total = sum(live.values())
            evicted = []
            for key in sorted(live, key=lambda k: (
                    entries[k].get("created", ""), k)):
                if total <= max_bytes:
                    break
                evicted.append(key)
                total -= live[key]
            return evicted

        return self._gc(dry_run, oldest_over_budget)

    # -- campaign shard journal ------------------------------------------------
    #
    # CampaignRunner checkpoints completed shards here so a killed
    # campaign's rerun resumes instead of re-simulating.  Per job key:
    # one envelope journal (the shard plan + which shards are done) and
    # one small ``part_*.npz`` per finished shard.  Everything is
    # removed by :meth:`clear_journal` once the stitched trace lands in
    # the store proper.

    def _journal_path(self, key: str) -> Path:
        return self.root / f"journal_{key}.json"

    def _part_path(self, key: str, shard: ShardRange) -> Path:
        c0, c1, t0, t1 = shard
        return self.root / f"part_{key}_{c0}-{c1}_{t0}-{t1}.npz"

    @staticmethod
    def _shard_tag(shard: ShardRange) -> str:
        return ":".join(str(int(x)) for x in shard)

    def record_journal_shard(self, key: str, *, plan: Sequence[ShardRange],
                             shard: ShardRange, delays: np.ndarray,
                             backend: str, n_corners: int,
                             n_cycles: int) -> None:
        """Persist one finished shard and mark it done in the journal.

        The part is written under the store lock, so a concurrent
        :meth:`gc` never sweeps its temp file.  Raises
        :class:`StoreVersionError` on a store of another schema version.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        part = self._part_path(key, shard)
        with self.lock():
            self._read_manifest(for_write=True)
            atomic_replace(part, _npz_bytes(np.ascontiguousarray(delays),
                                            "{}"))
            journal = self._load_journal_payload(key)
            if journal is None:
                journal = {
                    "key": key,
                    "backend": backend,
                    "n_corners": int(n_corners),
                    "n_cycles": int(n_cycles),
                    "plan": [list(int(x) for x in s) for s in plan],
                    "done": {},
                }
            journal["done"][self._shard_tag(shard)] = part.name
            write_envelope(self._journal_path(key), journal,
                           site=SITE_JOURNAL)

    def _load_journal_payload(self, key: str) -> Optional[Dict]:
        path = self._journal_path(key)
        try:
            payload, _ = read_envelope(path)
        except FileNotFoundError:
            return None
        except ManifestCorrupt as exc:
            self._quarantine(path, f"corrupt campaign journal {path.name} "
                             f"({exc})")
            return None
        return payload if isinstance(payload, dict) else None

    def load_journal(self, key: str, *, backend: str, n_corners: int,
                     n_cycles: int
                     ) -> Optional[Tuple[List[ShardRange],
                                         List[Tuple[ShardRange,
                                                    np.ndarray]]]]:
        """Resumable state for one job key, or None.

        Returns ``(plan, done)`` where ``plan`` is the journaled shard
        plan (the rerun must reuse it — a freshly computed plan need
        not tile identically) and ``done`` holds ``(shard, delays)``
        for every finished shard whose part file is intact.  Journals
        recorded against a different backend or grid are ignored.
        """
        payload = self._load_journal_payload(key)
        if payload is None:
            return None
        if (payload.get("backend") != backend
                or payload.get("n_corners") != int(n_corners)
                or payload.get("n_cycles") != int(n_cycles)):
            return None
        raw_plan = payload.get("plan")
        if not isinstance(raw_plan, list) or not raw_plan:
            return None
        plan: List[ShardRange] = []
        area = 0
        for s in raw_plan:
            if not (isinstance(s, list) and len(s) == 4):
                return None
            c0, c1, t0, t1 = (int(x) for x in s)
            if not (0 <= c0 < c1 <= n_corners and 0 <= t0 < t1 <= n_cycles):
                return None
            plan.append((c0, c1, t0, t1))
            area += (c1 - c0) * (t1 - t0)
        if area != int(n_corners) * int(n_cycles):
            return None  # plan does not tile the matrix; start over
        done: List[Tuple[ShardRange, np.ndarray]] = []
        plan_set = set(plan)
        for tag, fname in (payload.get("done") or {}).items():
            try:
                shard = tuple(int(x) for x in str(tag).split(":"))
            except ValueError:
                continue
            if len(shard) != 4 or shard not in plan_set:
                continue
            try:
                with np.load(self.root / str(fname)) as data:
                    part = np.array(data["delays"])
            except Exception:
                continue  # missing/torn part: just re-simulate it
            c0, c1, t0, t1 = shard
            if part.shape != (c1 - c0, t1 - t0):
                continue
            done.append((shard, part))
        return plan, done

    def clear_journal(self, key: str) -> None:
        """Drop the journal and part files for one job key (after the
        stitched trace has landed in the store proper)."""
        for path in ([self._journal_path(key)]
                     + sorted(self.root.glob(f"part_{key}_*.npz"))):
            try:
                path.unlink()
            except OSError:
                pass
