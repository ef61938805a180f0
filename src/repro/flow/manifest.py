"""Shared JSON-manifest helpers for on-disk stores.

Both the characterization :class:`~repro.flow.tracestore.TraceStore`
and the :class:`~repro.serve.registry.ModelRegistry` follow the same
layout: a directory of blob files described by one ``manifest.json``
carrying a schema version.  Manifests are persisted through
:mod:`repro.flow.durable` — checksummed, generation-counted envelopes
written via tmp + fsync + rename — so a crash mid-write leaves the old
manifest intact and a bit-flipped one is *detected* on read (then
quarantined and rebuilt from the store's files) instead of silently
misread.  Concurrent read-modify-write cycles are the store's job to
serialize (see :class:`~repro.flow.durable.StoreLock`).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

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


def read_manifest(path: Path, *, version_key: str, version: int,
                  entries_key: str, pattern: str,
                  entry_of: Callable[[Path], Optional[Tuple[str, Dict]]],
                  lock_name: str, label: str,
                  site: Optional[str] = None) -> Dict:
    """Load a versioned manifest, or a fresh empty one.

    A missing file or a schema-version mismatch yields
    ``{version_key: version, entries_key: {}}`` — incompatible layouts
    are ignored rather than misread.  A *corrupt* manifest (unparsable,
    not an envelope, or failing its envelope checksum) is quarantined
    and rebuilt from the store's own files: ``entry_of`` maps each file
    in the manifest's directory matching ``pattern`` to
    ``(key, entry)``, or to None for one it cannot describe.  The
    rebuild warns once (naming the store by ``label``) and is persisted
    best-effort under the store lock ``lock_name`` with fault point
    ``site``, so the next reader skips the rescan.
    """
    fresh = {version_key: version, entries_key: {}}
    try:
        manifest, _ = read_envelope(path)
    except FileNotFoundError:
        return fresh
    except ManifestCorrupt as exc:
        quarantined = quarantine(path)
        entries = fresh[entries_key]
        for file in sorted(path.parent.glob(pattern)):
            rec = entry_of(file)
            if rec is not None:
                entries[rec[0]] = rec[1]
        warnings.warn(
            f"{label} manifest was corrupt ({exc}); quarantined to "
            f"{quarantined.name if quarantined else '<gone>'} and rebuilt "
            f"{len(entries)} entr(y/ies) from its files",
            RuntimeWarning, stacklevel=3)
        try:
            with StoreLock(path.parent / lock_name, timeout=0.5):
                write_manifest(path, fresh, site=site)
        except (StoreLockTimeout, OSError):
            pass
        return fresh
    if (not isinstance(manifest, dict)
            or manifest.get(version_key) != version
            or not isinstance(manifest.get(entries_key), dict)):
        return fresh
    return manifest


def write_manifest(path: Path, manifest: Dict, *,
                   site: Optional[str] = None) -> None:
    """Atomically replace ``path`` with ``manifest`` in a checksummed
    envelope (tmp + fsync + rename + dir fsync).

    Concurrent writers can never corrupt the manifest itself; callers
    that must not lose each other's entries serialize the surrounding
    read-modify-write with a :class:`~repro.flow.durable.StoreLock`.
    ``site`` names the fault point armed for crash testing.
    """
    write_envelope(path, manifest, site=site)
