"""Typed, declarative run specifications.

Every stage of the pipeline — simulate, characterize, train, predict,
serve — is described by a frozen dataclass spec instead of an argument
soup.  Specs are:

* **validated** at construction (`__post_init__` canonicalizes and
  rejects bad values loudly);
* **round-trippable**: ``to_dict()`` emits a plain-JSON payload and
  ``from_dict()`` reconstructs it, rejecting unknown keys so a typo'd
  config key can never be silently ignored;
* **fingerprintable**: :meth:`Spec.fingerprint` hashes the canonical
  payload with the shared :func:`repro.flow.manifest.stable_fingerprint`
  helper, so a spec can key the
  :class:`~repro.flow.tracestore.TraceStore` or the serving
  :class:`~repro.serve.registry.ModelRegistry` like any other content
  hash in the repo;
* **loadable from files**: :meth:`Spec.from_file` reads TOML
  (:mod:`tomllib`) or JSON documents laid out as one section per
  command (``[campaign]``, ``[train]``, ``[predict]``, ``[serve]``,
  ``[experiment]``) plus shared defaults (``[corners]``, ``[stream]``,
  ``[sim]``, ``[shards]``) that apply to every section that does not
  override them.

The :class:`~repro.api.workspace.Workspace` facade executes specs; the
CLI parses every subcommand into them (``--config run.toml`` with
individual flags as overrides).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..circuits.functional_units import available_units
from ..flow.manifest import stable_fingerprint
from ..sim.engine import DEFAULT_BACKEND, check_engine
from ..timing.corners import (
    CLOCK_SPEEDUPS,
    OperatingCondition,
    temperature_points,
    voltage_points,
)
from ..workloads.streams import (
    OperandStream,
    float_random_stream,
    random_stream,
    stream_for_unit,
)

__all__ = [
    "CampaignSpec",
    "CornerSpec",
    "DEFAULT_TEMPERATURES",
    "DEFAULT_VOLTAGES",
    "ExperimentSpec",
    "PredictSpec",
    "ServeSpec",
    "ShardSpec",
    "SimSpec",
    "Spec",
    "SpecError",
    "StreamSpec",
    "TrainSpec",
    "load_config",
]

#: Corner-grid defaults shared with the CLI (the Fig.-3 subset axes).
DEFAULT_VOLTAGES: Tuple[float, ...] = (0.81, 0.90, 1.00)
DEFAULT_TEMPERATURES: Tuple[float, ...] = (0.0, 50.0, 100.0)

#: Top-level file sections holding shared sub-spec defaults.
SHARED_SECTIONS = ("corners", "stream", "sim", "shards")


class SpecError(ValueError):
    """A spec failed validation or decoding."""


def _float_tuple(name: str, value) -> Tuple[float, ...]:
    if value is None:
        return ()
    if isinstance(value, (str, bytes)) or not isinstance(
            value, (list, tuple)):
        raise SpecError(f"{name} must be a list of numbers, got {value!r}")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise SpecError(
            f"{name} must be a list of numbers, got {value!r}") from None


def _require_positive_int(name: str, value, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise SpecError(f"{name} must be >= {minimum}, got {value}")
    return value


def _optional_positive_int(name: str, value) -> Optional[int]:
    if value is None:
        return None
    return _require_positive_int(name, value)


def _require_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{name} must be a bool, got {value!r}")
    return value


def _require_str(name: str, value) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class Spec:
    """Base machinery shared by every spec dataclass.

    Subclasses declare their nested-spec fields in ``_NESTED_TYPES``
    (field name -> spec class) so :meth:`from_dict` can decode them,
    and their config section name in ``_SECTION`` for file loading.
    """

    _SECTION = ""
    _NESTED_TYPES: ClassVar[Dict[str, Type["Spec"]]] = {}

    # -- dict round-trip ------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-JSON payload (dicts/lists/scalars only), in field order.

        ``from_dict(to_dict())`` reconstructs an equal spec, and
        ``to_dict`` of that reconstruction is byte-identical when
        serialized — construction canonicalizes every value.
        """
        out: Dict = {}
        for f in dataclasses.fields(self):
            if not f.init:
                continue
            value = getattr(self, f.name)
            out[f.name] = self._encode(value)
        return out

    @staticmethod
    def _encode(value):
        if isinstance(value, Spec):
            return value.to_dict()
        if isinstance(value, tuple):
            return [Spec._encode(v) for v in value]
        return value

    @classmethod
    def from_dict(cls, data: Dict) -> "Spec":
        """Construct from a payload, rejecting unknown keys loudly."""
        if not isinstance(data, dict):
            raise SpecError(
                f"{cls.__name__} payload must be a mapping, got "
                f"{type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls) if f.init}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown {cls.__name__} key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        nested = cls._nested_types()
        kwargs = {}
        for name, value in data.items():
            if name in nested and value is not None:
                value = nested[name].from_dict(value)
            elif isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v
                              for v in value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def _nested_types(cls) -> Dict[str, Type["Spec"]]:
        return getattr(cls, "_NESTED_TYPES", {})

    def replace(self, **changes) -> "Spec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- identity -------------------------------------------------------------

    def fingerprint(self, length: int = 16) -> str:
        """Stable content hash of the canonical payload.

        Namespaced by the spec class, so e.g. equal-looking
        ``CampaignSpec`` and ``TrainSpec`` payloads cannot collide.
        """
        return stable_fingerprint(self.to_dict(), tag=type(self).__name__,
                                  length=length)

    def to_json(self) -> str:
        """Canonical single-line JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(", ", ": "))

    # -- file loading ---------------------------------------------------------

    @classmethod
    def from_file(cls, path: Union[str, Path],
                  section: Optional[str] = None) -> "Spec":
        """Load from a sectioned TOML or JSON config document.

        The document holds one table per command section plus shared
        sub-spec sections (:data:`SHARED_SECTIONS`) that fill any
        nested field the command section leaves unset.  Unknown
        top-level sections and unknown keys inside any section are
        rejected.
        """
        data = load_config(path)
        section = section or cls._SECTION
        if not section:
            raise SpecError(f"{cls.__name__} has no config section")
        payload = dict(data.get(section, {}))
        nested = cls._nested_types()
        for name in SHARED_SECTIONS:
            if name in data and name in nested and name not in payload:
                payload[name] = data[name]
        return cls.from_dict(payload)


#: Section names every config document may use at top level.
_COMMAND_SECTIONS = ("campaign", "train", "predict", "serve", "experiment")


def load_config(path: Union[str, Path]) -> Dict:
    """Read a TOML (``.toml``) or JSON config document.

    Validates the top-level section names so a misspelled section
    (e.g. ``[compaign]``) fails loudly instead of silently yielding an
    all-defaults spec.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        import tomllib
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML in {path}: {exc}") from None
    elif path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON in {path}: {exc}") from None
    else:
        raise SpecError(
            f"config file {path} must end in .toml or .json")
    if not isinstance(data, dict):
        raise SpecError(f"config {path} must be a table of sections")
    allowed = set(_COMMAND_SECTIONS) | set(SHARED_SECTIONS)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"unknown config section(s) in {path}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})")
    return data


# -- leaf specs ---------------------------------------------------------------


@dataclass(frozen=True)
class CornerSpec(Spec):
    """An operating-corner grid: ``voltages x temperatures``, or an
    explicit list of ``(V, T)`` pairs (exactly one form)."""

    _SECTION = "corners"

    voltages: Tuple[float, ...] = DEFAULT_VOLTAGES
    temperatures: Tuple[float, ...] = DEFAULT_TEMPERATURES
    pairs: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "voltages",
                           _float_tuple("voltages", self.voltages))
        object.__setattr__(self, "temperatures",
                           _float_tuple("temperatures", self.temperatures))
        pairs = self.pairs or ()
        if isinstance(pairs, (str, bytes)) or not isinstance(
                pairs, (list, tuple)):
            raise SpecError(f"pairs must be a list of (V, T) pairs, "
                            f"got {pairs!r}")
        canon = []
        for p in pairs:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise SpecError(f"each corner pair must be (V, T), "
                                f"got {p!r}")
            canon.append((float(p[0]), float(p[1])))
        object.__setattr__(self, "pairs", tuple(canon))
        if self.pairs and (self.voltages or self.temperatures):
            raise SpecError(
                "give either explicit pairs or a voltages x temperatures "
                "grid, not both (pass voltages=(), temperatures=() with "
                "pairs, or use CornerSpec.from_conditions)")
        if not self.pairs and not (self.voltages and self.temperatures):
            raise SpecError("corner grid needs voltages and temperatures "
                            "(or explicit pairs)")
        self.conditions()  # V/T range validation, loudly at build time

    @classmethod
    def from_conditions(
            cls, conditions: Sequence[OperatingCondition]) -> "CornerSpec":
        """Spec for an explicit (possibly non-rectangular) corner list."""
        return cls(voltages=(), temperatures=(),
                   pairs=tuple((c.voltage, c.temperature)
                               for c in conditions))

    @classmethod
    def paper(cls) -> "CornerSpec":
        """The full 100-corner Table I grid."""
        return cls(voltages=tuple(voltage_points()),
                   temperatures=tuple(temperature_points()))

    def conditions(self) -> List[OperatingCondition]:
        """The corner list, in grid (voltage-major) or pair order."""
        try:
            if self.pairs:
                return [OperatingCondition(v, t) for v, t in self.pairs]
            return [OperatingCondition(v, t)
                    for v in self.voltages for t in self.temperatures]
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    @property
    def n_corners(self) -> int:
        return (len(self.pairs) if self.pairs
                else len(self.voltages) * len(self.temperatures))


@dataclass(frozen=True)
class StreamSpec(Spec):
    """A generated operand stream (the repo's random workload sources).

    ``source`` picks the generator: ``auto`` chooses by FU family
    (float units get value-space sampling), ``random`` / ``float``
    force one.  ``name`` overrides the derived stream label (which
    otherwise encodes FU, cycles, and seed — the label only affects
    trace-store blob names, never cache keys).
    """

    _SECTION = "stream"

    cycles: int = 1000
    seed: int = 0
    source: str = "auto"
    name: str = ""

    def __post_init__(self) -> None:
        _require_positive_int("cycles", self.cycles)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        if self.source not in ("auto", "random", "float"):
            raise SpecError(f"source must be auto|random|float, "
                            f"got {self.source!r}")
        _require_str("name", self.name)

    def build(self, fu_name: str,
              label: Optional[str] = None) -> OperandStream:
        """Generate the stream for one FU, with a deterministic name."""
        if self.source == "random":
            stream = random_stream(self.cycles, seed=self.seed)
        elif self.source == "float":
            stream = float_random_stream(self.cycles, seed=self.seed)
        else:
            stream = stream_for_unit(fu_name, self.cycles, seed=self.seed)
        stream.name = (label or self.name
                       or f"{fu_name}_{self.cycles}c_s{self.seed}")
        return stream


@dataclass(frozen=True)
class SimSpec(Spec):
    """Simulation-engine selection.

    ``backend`` names one of the three engines in
    :data:`repro.sim.engine.ENGINES`: ``compiled`` (the default),
    ``levelized_ref`` (the per-gate reference — delay-bit-identical but
    orders of magnitude slower, for end-to-end audits of the compiled
    kernels) or ``event`` (glitch-aware).  Every engine sizes its own
    working set and runs single-threaded.
    """

    _SECTION = "sim"

    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        _require_str("backend", self.backend)
        try:
            check_engine(self.backend)
        except ValueError as exc:
            raise SpecError(str(exc)) from None


@dataclass(frozen=True)
class ShardSpec(Spec):
    """Worker-pool and shard-grid configuration for campaigns.

    ``workers > 1`` runs campaigns on the Workspace's long-lived warm
    :class:`~repro.flow.pool.WorkerPool`.  ``shard_cycles`` /
    ``shard_corners`` pin the grid pitch; left None, one static
    planner sizes the grid from the job and the worker count.  None of
    these ever affects results.
    """

    _SECTION = "shards"

    workers: int = 1
    shard_cycles: Optional[int] = None
    shard_corners: Optional[int] = None

    def __post_init__(self) -> None:
        _require_positive_int("workers", self.workers)
        _optional_positive_int("shard_cycles", self.shard_cycles)
        _optional_positive_int("shard_corners", self.shard_corners)


# -- command specs ------------------------------------------------------------


def _default_corners() -> CornerSpec:
    return CornerSpec()


def _default_stream() -> StreamSpec:
    return StreamSpec()


def _default_sim() -> SimSpec:
    return SimSpec()


def _default_shards() -> ShardSpec:
    return ShardSpec()


def _validate_fus(fus) -> Tuple[str, ...]:
    if isinstance(fus, str):
        fus = (fus,)
    if not isinstance(fus, (list, tuple)) or not fus:
        raise SpecError("fus must be a non-empty list of FU names")
    known = available_units()
    for name in fus:
        if name not in known:
            raise SpecError(f"unknown FU {name!r}; available: "
                            f"{', '.join(known)}")
    return tuple(fus)


@dataclass(frozen=True)
class CampaignSpec(Spec):
    """A batched characterization campaign over one or more FUs."""

    _SECTION = "campaign"
    _NESTED_TYPES = {"stream": StreamSpec, "corners": CornerSpec,
                     "sim": SimSpec, "shards": ShardSpec}

    fus: Tuple[str, ...] = ()
    stream: StreamSpec = field(default_factory=_default_stream)
    corners: CornerSpec = field(default_factory=_default_corners)
    sim: SimSpec = field(default_factory=_default_sim)
    shards: ShardSpec = field(default_factory=_default_shards)
    cache: bool = True
    store: Optional[str] = None

    def __post_init__(self) -> None:
        fus = self.fus or ()
        object.__setattr__(self, "fus", _validate_fus(fus) if fus else ())
        _require_bool("cache", self.cache)
        if self.store is not None:
            _require_str("store", self.store)

    def resolved_fus(self) -> Tuple[str, ...]:
        """Explicit FU list, defaulting to every paper unit."""
        if self.fus:
            return self.fus
        from ..circuits.functional_units import PAPER_UNITS
        return tuple(PAPER_UNITS)


@dataclass(frozen=True)
class TrainSpec(Spec):
    """Train (and optionally save/publish) a TEVoT model for one FU.

    ``fu`` has no default — an empty value means "not set yet" and is
    rejected at execution time, so a forgotten ``--fu``/config key can
    never silently train the wrong unit.  ``publish`` sends the model
    to ``registry`` (a directory path) when given, else to the
    workspace's own registry.
    """

    _SECTION = "train"
    _NESTED_TYPES = {"stream": StreamSpec, "corners": CornerSpec,
                     "sim": SimSpec, "shards": ShardSpec}

    fu: str = ""
    stream: StreamSpec = field(
        default_factory=lambda: StreamSpec(cycles=2000))
    corners: CornerSpec = field(default_factory=_default_corners)
    sim: SimSpec = field(default_factory=_default_sim)
    shards: ShardSpec = field(default_factory=_default_shards)
    max_rows: int = 60_000
    output: Optional[str] = None
    publish: bool = False
    registry: Optional[str] = None

    def __post_init__(self) -> None:
        _require_str("fu", self.fu)
        if self.fu:
            _validate_fus(self.fu)
        _require_positive_int("max_rows", self.max_rows)
        if self.output is not None:
            _require_str("output", self.output)
        _require_bool("publish", self.publish)
        if self.registry is not None:
            _require_str("registry", self.registry)


@dataclass(frozen=True)
class PredictSpec(Spec):
    """Estimate TERs for a workload with a saved model artifact."""

    _SECTION = "predict"
    _NESTED_TYPES = {"stream": StreamSpec, "corners": CornerSpec,
                     "sim": SimSpec, "shards": ShardSpec}

    fu: str = ""
    model: Optional[str] = None
    speedup: float = 0.10
    stream: StreamSpec = field(
        default_factory=lambda: StreamSpec(cycles=500, seed=1))
    corners: CornerSpec = field(default_factory=_default_corners)
    sim: SimSpec = field(default_factory=_default_sim)
    shards: ShardSpec = field(default_factory=_default_shards)

    def __post_init__(self) -> None:
        _require_str("fu", self.fu)
        if self.fu:
            _validate_fus(self.fu)
        object.__setattr__(self, "speedup", float(self.speedup))
        if self.speedup < 0:
            raise SpecError(f"speedup must be >= 0, got {self.speedup}")
        if self.model is not None:
            _require_str("model", self.model)


@dataclass(frozen=True)
class ServeSpec(Spec):
    """HTTP prediction-serving configuration."""

    _SECTION = "serve"
    _NESTED_TYPES = {"sim": SimSpec}

    registry: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 8000
    kind: str = "tevot"
    batch_window_ms: float = 2.0
    max_batch: int = 64
    max_queue: int = 256
    default_deadline_ms: float = 0.0
    request_log: Optional[str] = None
    fallback: bool = True
    verbose: bool = False
    sim: SimSpec = field(default_factory=_default_sim)

    def __post_init__(self) -> None:
        if self.registry is not None:
            _require_str("registry", self.registry)
        _require_str("host", self.host)
        if isinstance(self.port, bool) or not isinstance(self.port, int) \
                or not 0 <= self.port <= 65535:
            raise SpecError(f"port must be 0..65535, got {self.port!r}")
        _require_str("kind", self.kind)
        # the batcher's own rules, imported here so that only serving
        # pulls in the serve package
        from ..serve.server import BATCHING_RULES, check_batching

        for name in BATCHING_RULES:
            try:
                value = check_batching(name, getattr(self, name))
            except ValueError as exc:
                raise SpecError(str(exc)) from None
            object.__setattr__(self, name, value)
        if self.request_log is not None:
            _require_str("request_log", self.request_log)
        _require_bool("fallback", self.fallback)
        _require_bool("verbose", self.verbose)


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """A full Fig.-2 experiment: characterize, train, evaluate.

    The default streams follow the paper's unseen-test-data protocol
    (test seed 1 vs train seed 0), and ``corners`` defaults to the
    full Table I grid.
    """

    _SECTION = "experiment"
    _NESTED_TYPES = {"train_stream": StreamSpec, "test_stream": StreamSpec,
                     "corners": CornerSpec, "sim": SimSpec,
                     "shards": ShardSpec}

    fu: str = "int_add"
    train_stream: StreamSpec = field(
        default_factory=lambda: StreamSpec(cycles=2000,
                                           name="random_train"))
    test_stream: StreamSpec = field(
        default_factory=lambda: StreamSpec(cycles=2000, seed=1,
                                           name="random_test"))
    corners: CornerSpec = field(default_factory=CornerSpec.paper)
    sim: SimSpec = field(default_factory=_default_sim)
    shards: ShardSpec = field(default_factory=_default_shards)
    max_rows: int = 200_000
    speedups: Tuple[float, ...] = CLOCK_SPEEDUPS
    seed: int = 0
    cache: bool = True
    publish: bool = False

    def __post_init__(self) -> None:
        _validate_fus(self.fu)
        _require_positive_int("max_rows", self.max_rows)
        object.__setattr__(self, "speedups",
                           _float_tuple("speedups", self.speedups))
        if not self.speedups:
            raise SpecError("speedups must be non-empty")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        _require_bool("cache", self.cache)
        _require_bool("publish", self.publish)
