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
``resolve`` returns the newest unless pinned.  Manifest, lock, gc and
the schema-version rule come from
:class:`~repro.flow.manifest.ManifestStore`; gc's eviction keeps the
newest versions per (FU, kind).
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.functional_units import FunctionalUnit
from ..core.model import load_model, save_model
from ..flow.manifest import GCReport, ManifestStore
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


class ModelRegistry(ManifestStore):
    """Manifest-backed store of published models under one directory."""

    VERSION_KEY = "registry_version"
    VERSION = REGISTRY_VERSION
    ENTRIES_KEY = "models"
    BLOB_PATTERN = "*.pkl"
    LOCK_NAME = ".registry.lock"
    LABEL = "model-registry"
    MANIFEST_SITE = SITE_MANIFEST
    GC_SUMMARY = ("removed {removed} artifact(s) ({freed_mb:.2f} MB), "
                  "dropped {dropped} entr(y/ies)")

    def _blob_entry(self, path: Path) -> Optional[Tuple[str, Dict]]:
        """(model_id, manifest entry) recovered from one .pkl artifact.

        Published artifacts carry their model_id/key in the v2 pickle
        metadata, so a corrupt manifest's model table is recoverable;
        derived fingerprints (corners, train stream, feature spec) are
        lost and recorded as unknown.
        """
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
        models = self._read_manifest()["models"]
        records = [ModelRecord.from_entry(model_id, entry)
                   for model_id, entry in models.items()]
        if fu is not None:
            records = [r for r in records if r.fu == fu]
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return sorted(records, key=lambda r: (r.fu, r.kind, -r.version))

    def __len__(self) -> int:
        return len(self._read_manifest()["models"])

    # -- publish / resolve ----------------------------------------------------

    def publish(self, model: Any, fu: Union[FunctionalUnit, str],
                kind: str = "tevot",
                conditions: Optional[Sequence[OperatingCondition]] = None,
                train_stream: Union[OperandStream, np.ndarray, None] = None,
                metadata: Optional[Dict] = None) -> ModelRecord:
        """Persist a trained model and record it in the manifest.

        Returns the new :class:`ModelRecord`; its ``version`` is one
        past the latest published for this (FU, kind).  Raises
        :class:`~repro.flow.manifest.StoreVersionError` on a registry of
        another schema version.
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
            manifest = self._read_manifest(for_write=True)
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
            self._write_manifest(manifest)
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
                self._quarantine(path, f"unreadable model artifact "
                                 f"{path.name} ({exc})")
                continue
            return model, record
        raise LookupError(
            f"no published model for fu={fu!r} kind={kind!r}"
            + (f" key={key!r}" if key else "")
            + (f" version={version}" if version else ""))

    # -- garbage collection ---------------------------------------------------

    def gc(self, keep: int = 1, dry_run: bool = False) -> GCReport:
        """Collect garbage (see :meth:`ManifestStore._gc`), then evict
        all but the ``keep`` newest versions per (FU, kind)."""
        if keep < 1:
            raise ValueError("keep must be >= 1")

        def older_versions(models: Dict[str, Dict],
                           live: Dict[str, int]) -> List[str]:
            groups: Dict[Tuple[str, str], List[str]] = {}
            for model_id in sorted(live, key=lambda m: -int(
                    models[m]["version"])):
                entry = models[model_id]
                groups.setdefault((entry["fu"], entry["kind"]),
                                  []).append(model_id)
            return [model_id for newest_first in groups.values()
                    for model_id in newest_first[keep:]]

        return self._gc(dry_run, older_versions)
