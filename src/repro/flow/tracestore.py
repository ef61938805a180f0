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
producing backend, creation time) and a store schema version so future
layout changes can migrate or ignore old stores safely.  Other
top-level manifest sections (such as one an older release wrote) are
carried through every rewrite untouched and never read.

Durability (see :mod:`repro.flow.durable`): the manifest is a
checksummed envelope replaced atomically; ``.npz`` blobs are written
tmp + fsync + rename with their metadata embedded, so a corrupt
manifest is quarantined and **rebuilt by rescanning the blobs**;
read-modify-write cycles (put, gc, campaign journals) serialize under
an advisory inter-process lock.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit, available_units
from ..sim.dta import DelayTrace
from ..testing import faults
from ..timing.cells import CellLibrary
from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream
from .durable import (
    ManifestCorrupt,
    StoreLock,
    StoreLockTimeout,
    fsync_dir,
    quarantine,
    read_envelope,
    write_envelope,
)
from .manifest import read_manifest, write_manifest

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


@dataclass
class GCReport:
    """What a :meth:`TraceStore.gc` pass did (or would do)."""

    removed_blobs: List[str] = field(default_factory=list)
    dropped_entries: List[str] = field(default_factory=list)
    freed_bytes: int = 0
    kept_bytes: int = 0

    def summary(self) -> str:
        return (f"removed {len(self.removed_blobs)} blob(s) "
                f"({self.freed_bytes / 1e6:.2f} MB), dropped "
                f"{len(self.dropped_entries)} entr(y/ies), "
                f"{self.kept_bytes / 1e6:.2f} MB kept")


class TraceStore:
    """Manifest-backed store of delay traces under one root directory."""

    def __init__(self, root: Union[str, Path, None] = None, *,
                 lock_timeout: float = 10.0) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.lock_timeout = lock_timeout

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def lock(self) -> StoreLock:
        """Advisory inter-process lock serializing store writers."""
        return StoreLock(self.root / ".store.lock",
                         timeout=self.lock_timeout)

    # -- manifest -------------------------------------------------------------

    def _read_manifest(self) -> Dict:
        # blob files are self-describing (embedded metadata since the
        # durable layer landed; key-embedding filenames before that), so
        # a corrupt manifest's entry table is fully recoverable
        return read_manifest(self.manifest_path, version_key="store_version",
                             version=STORE_VERSION, entries_key="entries",
                             pattern="dta_*.npz", entry_of=self._blob_entry,
                             lock_name=".store.lock", label="trace-store",
                             site=SITE_MANIFEST)

    def _write_manifest(self, manifest: Dict) -> None:
        write_manifest(self.manifest_path, manifest, site=SITE_MANIFEST)

    def _blob_entry(self, blob: Path) -> Optional[Tuple[str, Dict]]:
        """(key, manifest entry) recovered from one blob, else None."""
        try:
            with np.load(blob) as data:
                shape = data["delays"].shape
                meta = (json.loads(data["meta"].item())
                        if "meta" in data.files else {})
        except Exception:
            return None  # unreadable blob: not worth an entry
        if not isinstance(meta, dict):
            meta = {}
        stem = blob.name[len("dta_"):-len(".npz")]
        tokens = stem.split("_")
        key = meta.get("key") or tokens[-1]
        fu, stream = meta.get("fu"), meta.get("stream")
        if fu is None:
            # filename fallback for pre-durable blobs: match the longest
            # known unit name, the rest of the middle is the stream name
            middle = "_".join(tokens[:-1])
            for name in sorted(available_units(), key=len, reverse=True):
                if middle == name or middle.startswith(name + "_"):
                    fu = name
                    stream = middle[len(name) + 1:] or "unknown"
                    break
            else:
                fu = tokens[0]
                stream = "_".join(tokens[1:-1]) or "unknown"
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
            self._readopt_blob(blob)
        try:
            data = np.load(blob)
            delays = data["delays"]
        except FileNotFoundError:
            return None
        except Exception as exc:
            # truncated/garbled blob (e.g. a pre-durable writer died
            # mid-write): quarantine it and treat as a cache miss
            quarantined = quarantine(blob)
            warnings.warn(
                f"unreadable trace blob {blob.name} ({exc}); quarantined "
                f"to {quarantined.name if quarantined else '<gone>'} and "
                f"treating as a cache miss", RuntimeWarning, stacklevel=2)
            return None
        return DelayTrace(delays, list(conditions), inputs=inputs)

    def _readopt_blob(self, blob: Path) -> None:
        """Best-effort: re-register an orphaned blob in the manifest.

        A writer that died between the blob rename and the manifest
        replace leaves a resolvable blob with no entry — and ``gc``
        would collect it as an orphan.  Repair failures (lock
        contention, read-only store) never block the read.
        """
        rec = self._blob_entry(blob)
        if rec is None:
            return
        key, entry = rec
        try:
            with StoreLock(self.root / ".store.lock", timeout=0.5):
                manifest = self._read_manifest()
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
        entries.
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
        meta = json.dumps({"key": key, **entry}, sort_keys=True)
        with self.lock():
            self._write_blob(self.root / fname, trace.delays, meta,
                             site=SITE_BLOB)
            manifest = self._read_manifest()
            manifest["entries"][key] = entry
            self._write_manifest(manifest)
        return self.root / fname

    @staticmethod
    def _write_blob(path: Path, delays: np.ndarray, meta_json: str, *,
                    site: Optional[str] = None) -> None:
        """Atomically write one npz blob (tmp + fsync + rename).

        ``site`` arms a fault point mirroring
        :func:`~repro.flow.durable.atomic_replace`: raise/exit fire
        before the rename; torn-write leaves half a blob at the final
        path and hard-exits.
        """
        action = faults.trigger(site)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, delays=delays,
                                    meta=np.array(meta_json))
                fh.flush()
                os.fsync(fh.fileno())
            if action == "raise":
                raise faults.FaultInjected(f"fault injected at {site}")
            if action == "exit":
                os._exit(faults.EXIT_CODE)
            if action == "torn-write":
                data = tmp.read_bytes()
                with open(path, "wb") as fh:
                    fh.write(data[: max(1, len(data) // 2)])
                    fh.flush()
                    os.fsync(fh.fileno())
                os._exit(faults.TORN_EXIT_CODE)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        fsync_dir(path.parent)

    # -- eviction / garbage collection ----------------------------------------

    def size_bytes(self) -> int:
        """Total size of the trace blobs currently on disk."""
        return sum(p.stat().st_size for p in self.root.glob("dta_*.npz"))

    def gc(self, max_bytes: Optional[int] = None,
           dry_run: bool = False) -> GCReport:
        """Collect garbage and optionally enforce a size budget.

        Three passes, mirroring the long-lived-cache needs from the
        ROADMAP:

        1. blobs on disk that no manifest entry references are removed
           (orphans from crashed writers or manifest races);
        2. manifest entries whose blob has vanished are dropped;
        3. with ``max_bytes``, the oldest entries (by creation stamp)
           are evicted until the remaining blobs fit the budget.

        ``dry_run`` reports what would happen without touching disk.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        report = GCReport()
        if not self.root.is_dir():
            return report
        with self.lock():
            return self._gc_locked(max_bytes, dry_run, report)

    def _gc_locked(self, max_bytes: Optional[int], dry_run: bool,
                   report: GCReport) -> GCReport:
        # stray temp files from crashed writers (the lock is held, so
        # no live writer owns any of them)
        if not dry_run:
            for tmp in self.root.glob(".*.tmp*"):
                tmp.unlink(missing_ok=True)
        manifest = self._read_manifest()
        entries = manifest["entries"]
        referenced = {entry["file"] for entry in entries.values()}

        for blob in sorted(self.root.glob("dta_*.npz")):
            if blob.name not in referenced:
                report.removed_blobs.append(blob.name)
                report.freed_bytes += blob.stat().st_size
                if not dry_run:
                    blob.unlink()

        live: Dict[str, int] = {}  # key -> blob size
        for key, entry in list(entries.items()):
            blob = self.root / entry["file"]
            if not blob.is_file():
                report.dropped_entries.append(key)
                if not dry_run:
                    del entries[key]
                continue
            live[key] = blob.stat().st_size

        if max_bytes is not None:
            total = sum(live.values())
            oldest_first = sorted(
                live, key=lambda k: (entries[k].get("created", ""), k))
            for key in oldest_first:
                if total <= max_bytes:
                    break
                blob = self.root / entries[key]["file"]
                report.removed_blobs.append(blob.name)
                report.dropped_entries.append(key)
                report.freed_bytes += live[key]
                total -= live.pop(key)
                if not dry_run:
                    blob.unlink()
                    del entries[key]

        report.kept_bytes = sum(live.values())
        if not dry_run and (report.removed_blobs or report.dropped_entries):
            self._write_manifest(manifest)
        return report

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
        """Persist one finished shard and mark it done in the journal."""
        self.root.mkdir(parents=True, exist_ok=True)
        part = self._part_path(key, shard)
        self._write_blob(part, np.ascontiguousarray(delays), "{}")
        with self.lock():
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
            quarantined = quarantine(path)
            warnings.warn(
                f"corrupt campaign journal {path.name} quarantined to "
                f"{quarantined.name if quarantined else '<gone>'}: {exc}",
                RuntimeWarning, stacklevel=3)
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
