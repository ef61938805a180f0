"""Versioned on-disk registry of trained delay models.

The serving counterpart of the characterization
:class:`~repro.flow.tracestore.TraceStore`: a registry is a directory
holding one ``manifest.json`` plus one pickled artifact per published
model (stable v2 format from :mod:`repro.core.model`).  Entries are
keyed by everything that determines what a model was trained to
predict:

* the FU identity (name + netlist structural stats when available),
* the operating-corner grid it was characterized over,
* the training-stream fingerprint (exact operand bytes), and
* the feature-spec version (layout + operand width + history flag),

so ``resolve`` can never hand the prediction engine a model whose
feature layout does not match the features it builds.  Publishing the
same (FU, kind) repeatedly assigns monotonically increasing versions;
``resolve`` returns the newest unless pinned.
"""

from __future__ import annotations

import hashlib
import re
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit
from ..core.model import load_model, save_model
from ..flow.durable import StoreLock, quarantine
from ..flow.manifest import read_manifest, write_manifest
from ..testing import faults
from ..timing.corners import OperatingCondition
from ..workloads.streams import OperandStream

#: Bump when the on-disk layout or key derivation changes.
REGISTRY_VERSION = 1

#: Model kinds the pipeline publishes.
MODEL_KINDS = ("tevot", "tevot_nh", "delay_based", "ter_based")

SITE_MANIFEST = faults.register_site("registry.manifest.replace",
                                     persistence=True)
SITE_ARTIFACT = faults.register_site("registry.artifact.write",
                                     persistence=True)

_MODEL_ID_RE = re.compile(r"^(?P<fu>.+)/(?P<kind>[^/]+)/v(?P<version>\d+)$")


def fu_fingerprint(fu: Union[FunctionalUnit, str]) -> str:
    """FU identity: name plus netlist structure when we have the unit."""
    if isinstance(fu, str):
        return fu
    return f"{fu.name}:{fu.stats()}"


def corner_fingerprint(
        conditions: Optional[Sequence[OperatingCondition]]) -> str:
    """Stable hash of an operating-corner grid (``-`` when unknown)."""
    if not conditions:
        return "-"
    h = hashlib.sha256()
    for c in conditions:
        h.update(f"{c.voltage:.4f},{c.temperature:.2f};".encode())
    return h.hexdigest()[:16]


def stream_fingerprint(
        stream: Union[OperandStream, np.ndarray, None]) -> str:
    """Stable hash of the training inputs (``-`` when unknown).

    Accepts either the operand stream itself or the encoded input bit
    matrix a :class:`~repro.sim.dta.DelayTrace` carries.
    """
    if stream is None:
        return "-"
    h = hashlib.sha256()
    if isinstance(stream, OperandStream):
        h.update(np.ascontiguousarray(stream.a).tobytes())
        h.update(np.ascontiguousarray(stream.b).tobytes())
    else:
        h.update(np.ascontiguousarray(stream).tobytes())
    return h.hexdigest()[:16]


def model_key(fu: Union[FunctionalUnit, str], kind: str,
              conditions: Optional[Sequence[OperatingCondition]] = None,
              stream: Union[OperandStream, np.ndarray, None] = None,
              spec_tag: str = "-") -> str:
    """Content key covering FU, corners, training stream, feature spec."""
    h = hashlib.sha256()
    h.update(f"r{REGISTRY_VERSION};".encode())
    h.update(fu_fingerprint(fu).encode())
    h.update(f";{kind};".encode())
    h.update(corner_fingerprint(conditions).encode())
    h.update(stream_fingerprint(stream).encode())
    h.update(spec_tag.encode())
    return h.hexdigest()[:24]


@dataclass(frozen=True)
class ModelRecord:
    """Manifest row describing one published artifact."""

    model_id: str
    fu: str
    kind: str
    version: int
    file: str
    key: str
    feature_spec: Optional[Dict]
    corners: str
    train_stream: str
    created: str
    size_bytes: int
    metadata: Dict

    @classmethod
    def from_entry(cls, model_id: str, entry: Dict) -> "ModelRecord":
        return cls(model_id=model_id, fu=entry["fu"], kind=entry["kind"],
                   version=int(entry["version"]), file=entry["file"],
                   key=entry["key"], feature_spec=entry.get("feature_spec"),
                   corners=entry.get("corners", "-"),
                   train_stream=entry.get("train_stream", "-"),
                   created=entry.get("created", ""),
                   size_bytes=int(entry.get("size_bytes", 0)),
                   metadata=dict(entry.get("metadata") or {}))

    def as_entry(self) -> Dict:
        return {"fu": self.fu, "kind": self.kind, "version": self.version,
                "file": self.file, "key": self.key,
                "feature_spec": self.feature_spec, "corners": self.corners,
                "train_stream": self.train_stream, "created": self.created,
                "size_bytes": self.size_bytes, "metadata": self.metadata}


@dataclass
class RegistryGCReport:
    """What a :meth:`ModelRegistry.gc` pass did (or would do)."""

    removed_files: List[str]
    dropped_entries: List[str]
    freed_bytes: int

    def summary(self) -> str:
        return (f"removed {len(self.removed_files)} artifact(s) "
                f"({self.freed_bytes / 1e6:.2f} MB), dropped "
                f"{len(self.dropped_entries)} entr(y/ies)")


class ModelRegistry:
    """Manifest-backed store of published models under one directory."""

    def __init__(self, root: Union[str, Path], *,
                 lock_timeout: float = 10.0) -> None:
        self.root = Path(root)
        self.lock_timeout = lock_timeout

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def lock(self) -> StoreLock:
        """Advisory inter-process lock serializing registry writers."""
        return StoreLock(self.root / ".registry.lock",
                         timeout=self.lock_timeout)

    def _read(self) -> Dict:
        # published artifacts carry their model_id/key in the v2 pickle
        # metadata, so a corrupt manifest's model table is recoverable;
        # derived fingerprints (corners, train stream, feature spec) are
        # lost and recorded as unknown
        return read_manifest(self.manifest_path,
                             version_key="registry_version",
                             version=REGISTRY_VERSION, entries_key="models",
                             pattern="*.pkl", entry_of=self._artifact_entry,
                             lock_name=".registry.lock",
                             label="model-registry", site=SITE_MANIFEST)

    def _write(self, manifest: Dict) -> None:
        write_manifest(self.manifest_path, manifest, site=SITE_MANIFEST)

    def _artifact_entry(self, path: Path) -> Optional[Tuple[str, Dict]]:
        """(model_id, manifest entry) recovered from one .pkl artifact."""
        try:
            _, meta = load_model(path)
        except Exception:
            return None  # unreadable artifact: not worth an entry
        meta = meta or {}
        model_id = meta.get("model_id")
        match = _MODEL_ID_RE.match(model_id or "")
        if match is None:
            return None
        entry = {
            "fu": match.group("fu"),
            "kind": match.group("kind"),
            "version": int(match.group("version")),
            "file": path.name,
            "key": meta.get("key", "-"),
            "feature_spec": None,
            "corners": "-",
            "train_stream": "-",
            "created": "",
            "size_bytes": path.stat().st_size,
            "metadata": {k: v for k, v in meta.items()
                         if k not in ("model_id", "key")},
            "rebuilt": True,
        }
        return model_id, entry

    # -- queries --------------------------------------------------------------

    def list_models(self, fu: Optional[str] = None,
                    kind: Optional[str] = None) -> List[ModelRecord]:
        """All published records, newest version first within (fu, kind)."""
        records = [ModelRecord.from_entry(model_id, entry)
                   for model_id, entry in self._read()["models"].items()]
        if fu is not None:
            records = [r for r in records if r.fu == fu]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return sorted(records, key=lambda r: (r.fu, r.kind, -r.version))

    def __len__(self) -> int:
        return len(self._read()["models"])

    # -- publish / resolve ----------------------------------------------------

    def publish(self, model: Any, fu: Union[FunctionalUnit, str],
                kind: str = "tevot",
                conditions: Optional[Sequence[OperatingCondition]] = None,
                train_stream: Union[OperandStream, np.ndarray, None] = None,
                metadata: Optional[Dict] = None) -> ModelRecord:
        """Persist a trained model and record it in the manifest.

        Returns the new :class:`ModelRecord`; its ``version`` is one
        past the latest published for this (FU, kind).
        """
        if kind not in MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {kind!r}; expected one of "
                f"{', '.join(MODEL_KINDS)}")
        fu_name = fu if isinstance(fu, str) else fu.name
        spec = getattr(model, "spec", None)
        spec_tag = spec.version_tag() if spec is not None else "-"
        key = model_key(fu, kind, conditions, train_stream, spec_tag)
        feature_spec = None if spec is None else {
            "operand_width": spec.operand_width,
            "include_history": spec.include_history,
            "tag": spec_tag,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        # the whole read-modify-write runs under the store lock, so
        # concurrent publishes serialize: no dropped entries, no
        # colliding version numbers
        with self.lock():
            manifest = self._read()
            models = manifest["models"]
            latest = max((int(e["version"]) for e in models.values()
                          if e["fu"] == fu_name and e["kind"] == kind),
                         default=0)
            version = latest + 1
            model_id = f"{fu_name}/{kind}/v{version}"
            fname = f"{fu_name}_{kind}_v{version}_{key[:8]}.pkl"

            path = self.root / fname
            faults.fault_point(SITE_ARTIFACT)
            # our provenance fields last: stale model_id/key in
            # re-published artifact metadata must not survive into the
            # new artifact
            save_model(model, path,
                       metadata={**(metadata or {}),
                                 "model_id": model_id, "key": key})
            record = ModelRecord(
                model_id=model_id, fu=fu_name, kind=kind, version=version,
                file=fname, key=key,
                feature_spec=feature_spec,
                corners=corner_fingerprint(conditions),
                train_stream=stream_fingerprint(train_stream),
                created=time.strftime("%Y-%m-%dT%H:%M:%S"),
                size_bytes=path.stat().st_size,
                metadata=dict(metadata or {}))
            models[model_id] = record.as_entry()
            self._write(manifest)
        return record

    def resolve(self, fu: str, kind: str = "tevot",
                key: Optional[str] = None,
                version: Optional[int] = None) -> Tuple[Any, ModelRecord]:
        """Load the newest matching model, or pin by ``key``/``version``.

        Raises :class:`LookupError` when nothing matches — the serving
        engine turns that into its gate-level-simulation fallback.
        """
        candidates = self.list_models(fu=fu, kind=kind)
        if key is not None:
            candidates = [r for r in candidates if r.key == key]
        if version is not None:
            candidates = [r for r in candidates if r.version == version]
        for record in candidates:  # newest first
            path = self.root / record.file
            if not path.is_file():
                continue
            try:
                model, _ = load_model(path)
            except Exception as exc:
                # torn/garbled artifact: quarantine and fall through to
                # the next-newest candidate instead of failing the serve
                quarantined = quarantine(path)
                warnings.warn(
                    f"unreadable model artifact {path.name} ({exc}); "
                    f"quarantined to "
                    f"{quarantined.name if quarantined else '<gone>'}",
                    RuntimeWarning, stacklevel=2)
                continue
            return model, record
        raise LookupError(
            f"no published model for fu={fu!r} kind={kind!r}"
            + (f" key={key!r}" if key else "")
            + (f" version={version}" if version else ""))

    # -- garbage collection ---------------------------------------------------

    def gc(self, keep: int = 1, dry_run: bool = False) -> RegistryGCReport:
        """Drop orphan artifacts, stale entries, and old versions.

        ``keep`` retains that many newest versions per (FU, kind); older
        ones are evicted along with any ``.pkl`` the manifest does not
        reference.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        removed: List[str] = []
        dropped: List[str] = []
        freed = 0
        if not self.root.is_dir():
            return RegistryGCReport(removed, dropped, freed)
        with self.lock():
            return self._gc_locked(keep, dry_run, removed, dropped, freed)

    def _gc_locked(self, keep: int, dry_run: bool, removed: List[str],
                   dropped: List[str], freed: int) -> RegistryGCReport:
        manifest = self._read()
        models = manifest["models"]

        by_group: Dict[Tuple[str, str], List[str]] = {}
        for model_id, entry in models.items():
            by_group.setdefault((entry["fu"], entry["kind"]),
                                []).append(model_id)
        for group in by_group.values():
            group.sort(key=lambda m: -int(models[m]["version"]))
            for model_id in group[keep:]:
                path = self.root / models[model_id]["file"]
                dropped.append(model_id)
                if path.is_file():
                    removed.append(path.name)
                    freed += path.stat().st_size
                    if not dry_run:
                        path.unlink()
                if not dry_run:
                    del models[model_id]

        for model_id, entry in list(models.items()):
            if not (self.root / entry["file"]).is_file():
                dropped.append(model_id)
                if not dry_run:
                    del models[model_id]

        referenced = {entry["file"] for entry in models.values()}
        for path in sorted(self.root.glob("*.pkl")):
            if path.name not in referenced:
                removed.append(path.name)
                freed += path.stat().st_size
                if not dry_run:
                    path.unlink()

        if not dry_run and (removed or dropped):
            self._write(manifest)
        return RegistryGCReport(removed, dropped, freed)
