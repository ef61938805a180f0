"""Pluggable simulation-engine layer.

Every consumer of gate-level simulation — the DTA campaigns, the CLI,
the benches — talks to a :class:`SimBackend` instead of instantiating a
simulator class directly.  A backend knows how to produce the two
quantities the pipeline needs from a netlist and an input stream:

* ``run_delays`` — per-cycle dynamic delays across operating corners
  (the paper's ground-truth labels), and
* ``run_values`` — settled primary-output values per cycle (used for
  functional verification and toggle statistics).

Both run single-threaded and pick their own working-set sizes; a
backend exposes only the capability flags in
:attr:`SimBackend.CAPABILITY_FLAGS`, which tell the campaign layer how
a job may be sharded and cached.  Backends are looked up by name
through :func:`get_backend`; the three built-ins are

``compiled``
    The graph-based DTA engine every campaign runs
    (:mod:`repro.sim.compile`): the netlist is lowered once to
    level-parallel structure-of-arrays form, settled values are packed
    64 cycles to a ``uint64`` word, and every pass is a loop over logic
    levels doing whole-level numpy ops.
``levelized_ref``
    The per-gate reference loop (:mod:`repro.sim.levelized`) — slow,
    but delay-bit-identical to ``compiled``, which the parity tests
    assert; campaigns run it to audit the compiled kernels end to end.
``event``
    The glitch-accurate event-driven simulator
    (:mod:`repro.sim.eventsim`) — orders of magnitude slower, models
    glitch pulses, so its delays are *not* interchangeable with the DTA
    engines (see :attr:`SimBackend.models_glitches`).

Built-in registrations map names to ``"module:Class"`` strings
resolved on first :func:`get_backend`: backend modules import this one
for :class:`SimBackend` and :class:`DelayTraceResult`, so the registry
must not import them at module level (and standalone
:mod:`repro.sim.engine` users don't pay for backends they never
request — though importing the :mod:`repro.sim` package re-exports
every built-in eagerly).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from importlib import import_module
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np

from ..circuits.netlist import Netlist

#: Backend used when callers do not ask for a specific one.  Shared by
#: the campaign layer (``repro.flow.campaign``) and the DTA front end
#: (``repro.sim.dta``) so their defaults can never drift apart.  The
#: compiled engine produces delays bit-identical to ``levelized_ref``
#: (asserted by tests/sim/test_engine.py) at a fraction of the cost.
DEFAULT_BACKEND = "compiled"


@dataclass
class DelayTraceResult:
    """Result of a multi-corner delay simulation.

    Attributes
    ----------
    delays:
        ``(n_corners, n_cycles)`` float32 — dynamic delay per cycle (ps);
        0 where no primary output toggled.  Always 2-D: 1-D
        ``gate_delays`` inputs are treated as a single corner.
    outputs:
        ``(n_cycles, n_outputs)`` uint8 — settled output values per
        cycle (cycle ``t`` corresponds to input row ``t+1``).
    """

    delays: np.ndarray
    outputs: Optional[np.ndarray] = None

    @property
    def n_cycles(self) -> int:
        return self.delays.shape[1]

    @property
    def n_corners(self) -> int:
        return self.delays.shape[0]


class SimBackend(abc.ABC):
    """One way of simulating a combinational netlist.

    Concrete backends are stateless: per-netlist precomputation happens
    inside each call, so a single backend instance can be shared freely
    (the registry hands out singletons).
    """

    #: Registry key.
    name: str = ""
    #: Cycle ``t`` of ``run_delays`` depends only on input rows ``t``
    #: and ``t+1``, so a stream may be split into cycle-range shards
    #: (each shard receiving rows ``[start, stop + 1]``) and the delay
    #: matrices stitched back in order with bit-identical results.
    #: The campaign runner only cycle-shards jobs on backends that set
    #: this.
    supports_cycle_sharding: bool = False
    #: Corner rows of ``run_delays`` are computed independently of one
    #: another, so a delay matrix may be split row-wise across workers
    #: and the results stacked back with bit-identical results.  True
    #: by default: the protocol's delay semantics are per-corner (every
    #: built-in either vectorizes elementwise over the corner axis or
    #: loops corner by corner).  A backend whose corners interact (e.g.
    #: shared adaptive state across the grid) must clear this.
    supports_corner_sharding: bool = True
    #: Models glitch pulses on nets whose settled value does not change.
    #: Glitch-aware delays are systematically >= DTA delays, so traces
    #: from glitch backends must never share a cache entry with DTA
    #: traces (see :attr:`delay_model`).
    models_glitches: bool = False

    #: Capability attributes the registry validates on every instance.
    #: The campaign layer reads these as plain attributes (never via
    #: ``getattr`` with a default), so a backend that typos a flag name
    #: fails loudly at registration instead of silently losing e.g.
    #: sharding.
    CAPABILITY_FLAGS = ("supports_cycle_sharding",
                        "supports_corner_sharding", "models_glitches")

    @property
    def delay_model(self) -> str:
        """Equivalence class of the delays this backend produces.

        Backends with the same ``delay_model`` are interchangeable for
        characterization caching: ``"dta"`` engines agree bit-for-bit,
        ``"glitch"`` engines see extra transitions.
        """
        return "glitch" if self.models_glitches else "dta"

    @abc.abstractmethod
    def run_delays(self, netlist: Netlist, input_matrix: np.ndarray,
                   gate_delays: np.ndarray,
                   collect_outputs: bool = False) -> DelayTraceResult:
        """Per-cycle dynamic delays for an input stream.

        Parameters
        ----------
        netlist:
            Combinational core to simulate.
        input_matrix:
            ``(n_cycles + 1, n_inputs)`` uint8; row 0 is the initial
            state.
        gate_delays:
            ``(n_gates,)`` for one corner or ``(n_corners, n_gates)``;
            picoseconds per gate.  Backends either vectorize over the
            corner axis or loop over it.
        collect_outputs:
            Also return settled output values per cycle.

        Every call runs single-threaded; backends that work in
        cycle-axis chunks size them themselves.  Parallelism is the
        campaign layer's job (shards on a worker pool).
        """

    @abc.abstractmethod
    def run_values(self, netlist: Netlist,
                   input_matrix: np.ndarray) -> np.ndarray:
        """Settled output values only: ``(n_rows, n_outputs)`` uint8."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} name={self.name!r} "
                f"glitches={self.models_glitches}>")


#: name -> "module:Class" (lazy) or SimBackend subclass (eager).
_REGISTRY: Dict[str, Union[str, Type[SimBackend]]] = {
    "compiled": "repro.sim.compile:CompiledBackend",
    "levelized_ref": "repro.sim.levelized:ReferenceLevelizedBackend",
    "event": "repro.sim.eventsim:EventBackend",
}
_INSTANCES: Dict[str, SimBackend] = {}


def register_backend(name: str,
                     target: Union[str, Type[SimBackend]]) -> None:
    """Register a backend under ``name``.

    ``target`` is either a :class:`SimBackend` subclass or a lazy
    ``"module:Class"`` string resolved on first :func:`get_backend`.
    Re-registering a name replaces it (and drops any cached instance).
    """
    _REGISTRY[name] = target
    _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> SimBackend:
    """Resolve a backend by name (cached singleton instances)."""
    try:
        return _INSTANCES[name]
    except KeyError:
        pass
    try:
        target = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {name!r}; "
            f"available: {', '.join(available_backends())}") from None
    if isinstance(target, str):
        module_name, _, class_name = target.partition(":")
        target = getattr(import_module(module_name), class_name)
    backend = target()
    if backend.name != name:
        raise ValueError(
            f"backend class {type(backend).__name__} declares name "
            f"{backend.name!r} but is registered as {name!r}")
    for flag in SimBackend.CAPABILITY_FLAGS:
        value = getattr(backend, flag, None)
        if not isinstance(value, bool):
            raise ValueError(
                f"backend {name!r} capability {flag!r} must be a bool, "
                f"got {value!r} — a typo'd flag name would silently "
                f"disable the capability")
    _INSTANCES[name] = backend
    return backend
