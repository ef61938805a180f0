"""Crash-safe, concurrency-safe file persistence primitives.

Every store in the repo (trace cache, model registry, request log,
campaign journals) funnels its durability through this module:

* :func:`atomic_replace` — write to a temp file, fsync, ``os.replace``
  onto the final name, fsync the directory.  A crash at any instant
  leaves either the old bytes or the new bytes, never a torn file.
* :func:`write_envelope` / :func:`read_envelope` — checksummed JSON
  manifest envelopes with a generation counter.  A bit-flipped or
  truncated manifest is detected on read (:class:`ManifestCorrupt`)
  instead of being half-trusted.
* :class:`StoreLock` — advisory ``fcntl`` inter-process lock with a
  timeout; :class:`StoreLockTimeout` names the holder recorded in the
  lock file.  Reentrant within a process.
* :func:`quarantine` — move a corrupt file aside to
  ``<name>.corrupt-<timestamp>`` so it can be inspected, never silently
  deleted, and never re-read as truth.

Fault points for the chaos suite are threaded through ``site=`` —
see :mod:`repro.testing.faults`.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

try:  # advisory locking is POSIX-only; degrade to no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from ..testing import faults

ENVELOPE_VERSION = 1


class ManifestCorrupt(ValueError):
    """An envelope failed to parse or its checksum does not match."""


class StoreLockTimeout(TimeoutError):
    """Could not acquire a :class:`StoreLock` in time; the message
    names the recorded holder (pid/host)."""


def fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename itself) to disk."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_replace(path: Union[str, Path], data: Union[bytes, str], *,
                   site: Optional[str] = None) -> None:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + rename).

    ``site`` arms a fault point: ``raise``/``exit`` fire after the temp
    file is written but before the rename (the old file survives
    intact); ``torn-write`` writes half the bytes straight to the final
    path and hard-exits, simulating the legacy in-place writer dying
    mid-write.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    action = faults.trigger(site)
    if action == "torn-write":
        with open(path, "wb") as fh:
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
        os._exit(faults.TORN_EXIT_CODE)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        if action == "raise":
            raise faults.FaultInjected(f"fault injected at {site}")
        if action == "exit":
            os._exit(faults.EXIT_CODE)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


def payload_checksum(payload: Dict) -> str:
    """sha256 over the canonical (compact, key-sorted) JSON encoding."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_envelope(path: Union[str, Path], payload: Dict, *,
                   site: Optional[str] = None) -> int:
    """Wrap ``payload`` in a checksummed envelope and atomically replace
    ``path``.  Returns the new generation number (monotonic per file;
    resets if the previous envelope was unreadable)."""
    path = Path(path)
    try:
        _, generation = read_envelope(path)
    except (FileNotFoundError, ManifestCorrupt):
        generation = 0
    generation += 1
    envelope = {
        "envelope_version": ENVELOPE_VERSION,
        "generation": generation,
        "sha256": payload_checksum(payload),
        "payload": payload,
    }
    atomic_replace(path, json.dumps(envelope, indent=1, sort_keys=True),
                   site=site)
    return generation


def read_envelope(path: Union[str, Path]) -> Tuple[Dict, int]:
    """Read an envelope, verifying its checksum.

    Returns ``(payload, generation)``.  Raises :class:`ManifestCorrupt`
    on any parse/shape/checksum failure, an object without an
    ``envelope_version`` included, and FileNotFoundError when the file
    does not exist.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestCorrupt(f"{path}: unparsable JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ManifestCorrupt(f"{path}: manifest is not an object")
    if obj.get("envelope_version") != ENVELOPE_VERSION:
        raise ManifestCorrupt(
            f"{path}: unknown envelope_version "
            f"{obj.get('envelope_version')!r}")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise ManifestCorrupt(f"{path}: envelope payload is not an object")
    if obj.get("sha256") != payload_checksum(payload):
        raise ManifestCorrupt(f"{path}: payload checksum mismatch")
    try:
        generation = int(obj.get("generation", 0))
    except (TypeError, ValueError):
        raise ManifestCorrupt(
            f"{path}: bad generation {obj.get('generation')!r}") from None
    return payload, generation


def quarantine(path: Union[str, Path]) -> Optional[Path]:
    """Move a corrupt file aside to ``<name>.corrupt-<ts>``.

    Returns the quarantine path, or None if the file vanished first
    (a concurrent quarantiner won the race)."""
    path = Path(path)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for attempt in range(1000):
        suffix = f".corrupt-{stamp}" if attempt == 0 else \
            f".corrupt-{stamp}-{os.getpid()}.{attempt}"
        target = path.with_name(path.name + suffix)
        if target.exists():
            continue
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return None
        fsync_dir(path.parent)
        return target
    raise OSError(f"could not find a free quarantine name for {path}")


# Reentrancy registry: flock(2) locks conflict between two file
# descriptors of the *same* process, so nested StoreLock context
# managers on one path must share a single fd.  Keyed by absolute path;
# the recorded pid guards against fork-inherited state.
_HELD: Dict[str, List] = {}  # abspath -> [pid, depth, file object]
_HELD_GUARD = threading.Lock()


class StoreLock:
    """Advisory inter-process lock on a store directory.

    Usage::

        with StoreLock(root / ".lock", timeout=10.0):
            ... read-modify-write the manifest ...

    The lock file records the holder (pid/host/acquire time); a timeout
    raises :class:`StoreLockTimeout` naming that holder.  Reentrant
    within a process.  No-op on platforms without ``fcntl``.
    """

    def __init__(self, path: Union[str, Path], *, timeout: float = 10.0,
                 poll_s: float = 0.02):
        self.path = Path(path)
        self.timeout = timeout
        self.poll_s = poll_s
        self._acquired = False

    def _key(self) -> str:
        return os.path.abspath(self.path)

    def acquire(self) -> "StoreLock":
        if self._acquired:
            raise RuntimeError("StoreLock instance is not re-acquirable; "
                               "nest separate instances instead")
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            self._acquired = True
            return self
        key = self._key()
        with _HELD_GUARD:
            held = _HELD.get(key)
            if held is not None and held[0] == os.getpid():
                held[1] += 1
                self._acquired = True
                return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+", encoding="utf-8")
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    holder = self._read_holder(fh)
                    fh.close()
                    msg = (f"timed out after {self.timeout:.1f}s waiting "
                           f"for store lock {self.path}")
                    if holder:
                        msg += f" (held by {holder})"
                    raise StoreLockTimeout(msg)
                time.sleep(self.poll_s)
        fh.seek(0)
        fh.truncate()
        fh.write(f"pid={os.getpid()} host={os.uname().nodename} "
                 f"since={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        fh.flush()
        with _HELD_GUARD:
            _HELD[key] = [os.getpid(), 1, fh]
        self._acquired = True
        return self

    @staticmethod
    def _read_holder(fh) -> str:
        try:
            fh.seek(0)
            return fh.read().strip()
        except OSError:  # pragma: no cover
            return ""

    def release(self) -> None:
        if not self._acquired:
            return
        self._acquired = False
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return
        key = self._key()
        with _HELD_GUARD:
            held = _HELD.get(key)
            if held is None or held[0] != os.getpid():
                return
            held[1] -= 1
            if held[1] > 0:
                return
            fh = held[2]
            del _HELD[key]
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        finally:
            fh.close()

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
