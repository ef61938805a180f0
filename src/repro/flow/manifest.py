"""The manifest-backed store both on-disk stores are built on.

The characterization :class:`~repro.flow.tracestore.TraceStore` and the
serving :class:`~repro.serve.registry.ModelRegistry` are each a
:class:`ManifestStore`: one directory holding

* ``manifest.json`` — a checksummed, generation-counted envelope (see
  :mod:`repro.flow.durable`) whose payload carries the store's schema
  version and its entry table (key -> entry naming one blob ``file``);
* the blobs, each written tmp + fsync + rename by
  :func:`~repro.flow.durable.atomic_replace` and self-describing, so a
  corrupt manifest is quarantined and rebuilt by rescanning them;
* the lock file serializing every read-modify-write
  (:class:`~repro.flow.durable.StoreLock`).

:meth:`ManifestStore._gc` is the one garbage collector.  Under the lock
it removes stray ``.*.tmp*`` files from crashed writers, blobs no entry
references, and entries whose blob is gone, then hands the live entries
to the store's eviction policy; it returns one :class:`GCReport`.

Schema versions: a manifest of another version is read as empty, never
rewritten or collected.  Readers see a cache miss; every writer (put,
publish, the journal, gc) raises :class:`StoreVersionError` naming the
path and both versions, leaving the manifest and every blob as found.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .durable import (
    ManifestCorrupt,
    StoreLock,
    StoreLockTimeout,
    quarantine,
    read_envelope,
    write_envelope,
)


def stable_fingerprint(data, *, tag: str = "", length: int = 16) -> str:
    """Content hash of a JSON-representable value.

    The canonical form is compact JSON with sorted keys, so two values
    that compare equal after round-tripping through ``json`` always
    fingerprint identically — this is what lets declarative specs key
    the :class:`~repro.flow.tracestore.TraceStore` and the serving
    :class:`~repro.serve.registry.ModelRegistry`.  ``tag`` namespaces
    the hash (e.g. by spec class) so equal payloads of different kinds
    cannot collide.
    """
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    h = hashlib.sha256()
    h.update(f"{tag};".encode())
    h.update(blob.encode())
    return h.hexdigest()[:length]


def seal_record(record: Dict, *, tag: str, length: int = 16) -> Dict:
    """Return ``record`` with a ``"fp"`` content fingerprint added.

    Used by append-only JSONL logs (the serving request log): each
    line carries the fingerprint of its own payload so a truncated or
    hand-edited record is detected on read instead of silently
    replayed.  The input must not already carry an ``"fp"`` key.
    """
    if "fp" in record:
        raise ValueError("record already sealed (has an 'fp' key)")
    sealed = dict(record)
    sealed["fp"] = stable_fingerprint(record, tag=tag, length=length)
    return sealed


def check_record(record: Dict, *, tag: str) -> Dict:
    """Verify a sealed record's fingerprint; return it without ``fp``.

    Raises :class:`ValueError` on a missing or mismatching
    fingerprint — the caller decides whether that is fatal.
    """
    if not isinstance(record, dict) or "fp" not in record:
        raise ValueError("record carries no fingerprint")
    payload = {k: v for k, v in record.items() if k != "fp"}
    expected = stable_fingerprint(payload, tag=tag,
                                  length=len(record["fp"]))
    if record["fp"] != expected:
        raise ValueError(
            f"record fingerprint mismatch: manifest says "
            f"{record['fp']!r}, payload hashes to {expected!r}")
    return payload


class StoreVersionError(RuntimeError):
    """A store's manifest carries another schema version: it reads as
    empty, and nothing here may rewrite it or collect its files."""


@dataclass
class GCReport:
    """What a :meth:`ManifestStore._gc` pass did (or would do).

    ``summary_format`` is the store's ``GC_SUMMARY``; it may use the
    fields ``removed``, ``freed_mb``, ``dropped`` and ``kept_mb``.
    """

    summary_format: str
    removed_blobs: List[str] = field(default_factory=list)
    dropped_entries: List[str] = field(default_factory=list)
    freed_bytes: int = 0
    kept_bytes: int = 0

    def summary(self) -> str:
        return self.summary_format.format(
            removed=len(self.removed_blobs), freed_mb=self.freed_bytes / 1e6,
            dropped=len(self.dropped_entries), kept_mb=self.kept_bytes / 1e6)


class ManifestStore:
    """A directory of blobs described by one versioned manifest.

    Subclasses set the class attributes below and implement
    :meth:`_blob_entry`, the rebuild hook.
    """

    #: manifest key holding the schema version, and the version written
    VERSION_KEY = ""
    VERSION = 0
    #: manifest key of the entry table: key -> entry with a ``"file"``
    ENTRIES_KEY = ""
    #: glob matching the blob files in the root
    BLOB_PATTERN = ""
    LOCK_NAME = ""
    #: names the store in warnings
    LABEL = ""
    #: fault point armed on manifest writes
    MANIFEST_SITE: Optional[str] = None
    #: :attr:`GCReport.summary_format` for this store's gc reports
    GC_SUMMARY = ""

    def __init__(self, root: Union[str, Path], *,
                 lock_timeout: float = 10.0) -> None:
        self.root = Path(root)
        self.lock_timeout = lock_timeout

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def lock(self) -> StoreLock:
        """Advisory inter-process lock serializing store writers."""
        return StoreLock(self.root / self.LOCK_NAME,
                         timeout=self.lock_timeout)

    def _blob_entry(self, blob: Path) -> Optional[Tuple[str, Dict]]:
        """(key, entry) recovered from one blob, or None for a blob it
        cannot describe (left out of a rebuilt manifest)."""
        raise NotImplementedError

    @staticmethod
    def _quarantine(path: Path, problem: str, outcome: str = "") -> None:
        """Move a bad file aside and say so in one RuntimeWarning."""
        moved = quarantine(path)
        warnings.warn(
            f"{problem}; quarantined to "
            f"{moved.name if moved else '<gone>'}{outcome}",
            RuntimeWarning, stacklevel=3)

    # -- manifest -------------------------------------------------------------

    def _fresh_manifest(self) -> Dict:
        return {self.VERSION_KEY: self.VERSION, self.ENTRIES_KEY: {}}

    def _read_manifest(self, *, for_write: bool = False) -> Dict:
        """The manifest, or a fresh empty one when there is none.

        A manifest of another schema version reads as empty; with
        ``for_write`` (a writer about to change the store) it raises
        :class:`StoreVersionError` instead.  A corrupt one (unparsable,
        not an envelope, failing its checksum, or without an entry
        table) is quarantined and rebuilt from the blobs with one
        warning; the rebuild is persisted best-effort so the next
        reader skips the rescan.  Other top-level sections ride along
        through every rewrite untouched.
        """
        try:
            manifest, _ = read_envelope(self.manifest_path)
            if (manifest.get(self.VERSION_KEY) == self.VERSION and
                    not isinstance(manifest.get(self.ENTRIES_KEY), dict)):
                raise ManifestCorrupt(
                    f"{self.manifest_path}: no {self.ENTRIES_KEY!r} table")
        except FileNotFoundError:
            return self._fresh_manifest()
        except ManifestCorrupt as exc:
            return self._rebuild_manifest(exc)
        found = manifest.get(self.VERSION_KEY)
        if found == self.VERSION:
            return manifest
        if for_write:
            raise StoreVersionError(
                f"{self.manifest_path} has {self.VERSION_KEY} {found!r}, "
                f"this code reads and writes version {self.VERSION}: the "
                f"store reads as empty and is never rewritten or collected")
        return self._fresh_manifest()

    def _rebuild_manifest(self, exc: ManifestCorrupt) -> Dict:
        manifest = self._fresh_manifest()
        entries = manifest[self.ENTRIES_KEY]
        for blob in sorted(self.root.glob(self.BLOB_PATTERN)):
            rec = self._blob_entry(blob)
            if rec is not None:
                entries[rec[0]] = rec[1]
        self._quarantine(
            self.manifest_path, f"{self.LABEL} manifest was corrupt ({exc})",
            f" and rebuilt {len(entries)} entr(y/ies) from its files")
        try:
            with StoreLock(self.root / self.LOCK_NAME, timeout=0.5):
                self._write_manifest(manifest)
        except (StoreLockTimeout, OSError):
            pass
        return manifest

    def _write_manifest(self, manifest: Dict) -> None:
        """Atomically replace the manifest; callers that must not lose
        each other's entries hold :meth:`lock` around the whole
        read-modify-write."""
        write_envelope(self.manifest_path, manifest, site=self.MANIFEST_SITE)

    # -- garbage collection ---------------------------------------------------

    def _gc(self, dry_run: bool,
            evict: Callable[[Dict[str, Dict], Dict[str, int]], Iterable[str]]
            ) -> GCReport:
        """Collect garbage under the store lock, in four passes:

        1. stray ``.*.tmp*`` files (no live writer owns one while the
           lock is held);
        2. blobs no entry references (orphans of crashed writers);
        3. entries whose blob is gone;
        4. ``evict(entries, live)`` — the store's policy — names the
           live keys (``live``: key -> blob size) to evict, in order.

        ``dry_run`` reports what would happen without touching disk.
        """
        report = GCReport(self.GC_SUMMARY)
        if not self.root.is_dir():
            return report
        with self.lock():
            manifest = self._read_manifest(for_write=True)
            if not dry_run:
                for tmp in self.root.glob(".*.tmp*"):
                    tmp.unlink(missing_ok=True)
            entries = manifest[self.ENTRIES_KEY]
            referenced = {entry["file"] for entry in entries.values()}
            for blob in sorted(self.root.glob(self.BLOB_PATTERN)):
                if blob.name not in referenced:
                    report.removed_blobs.append(blob.name)
                    report.freed_bytes += blob.stat().st_size
                    if not dry_run:
                        blob.unlink()

            live: Dict[str, int] = {}
            for key, entry in list(entries.items()):
                blob = self.root / entry["file"]
                if blob.is_file():
                    live[key] = blob.stat().st_size
                else:
                    report.dropped_entries.append(key)
                    if not dry_run:
                        del entries[key]

            for key in list(evict(entries, live)):
                blob = self.root / entries[key]["file"]
                report.removed_blobs.append(blob.name)
                report.dropped_entries.append(key)
                report.freed_bytes += live.pop(key)
                if not dry_run:
                    blob.unlink()
                    del entries[key]

            report.kept_bytes = sum(live.values())
            if not dry_run and (report.removed_blobs
                                or report.dropped_entries):
                self._write_manifest(manifest)
        return report
