"""The three simulation engines and the one call that runs them.

Every consumer of gate-level delays — the DTA campaigns, the CLI, the
benches — goes through :func:`run_delays` with an engine name from the
closed table :data:`ENGINES`:

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
    engines (see :func:`delay_model`).

The campaign layer needs two facts about an engine: whether its cycle
axis may be sharded (:data:`CYCLE_SHARDABLE`) and which cache class its
delays belong to (:func:`delay_model`).  Corner rows are independent on
every engine, so the corner axis may always be sharded.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuits.netlist import Netlist
from .compile import KernelBuffers, compile_netlist
from .eventsim import EventDrivenSimulator
from .levelized import LevelizedSimulator

#: Engine used when callers do not ask for a specific one.  The
#: compiled engine produces delays bit-identical to ``levelized_ref``
#: (asserted by tests/sim/test_engine.py) at a fraction of the cost.
DEFAULT_BACKEND = "compiled"

#: Every engine name, sorted.
ENGINES = ("compiled", "event", "levelized_ref")

#: Engines whose cycle ``t`` depends only on input rows ``t`` and
#: ``t+1``, so a stream may be split into cycle-range shards (each
#: receiving rows ``[start, stop + 1]``) and stitched back in order with
#: bit-identical results.  The event queue couples adjacent cycles
#: (glitch trains can straddle a cut), so ``event`` is not one.
CYCLE_SHARDABLE = frozenset({"compiled", "levelized_ref"})


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` listing :data:`ENGINES` for an unknown name."""
    if engine not in ENGINES:
        raise ValueError(f"unknown sim backend {engine!r}; "
                         f"available: {', '.join(ENGINES)}")


def delay_model(engine: str) -> str:
    """Equivalence class of the delays ``engine`` produces.

    Engines with the same delay model are interchangeable for
    characterization caching: the ``"dta"`` engines agree bit for bit.
    The ``"glitch"`` engine times each output's last transition, glitch
    pulses included, where DTA times the latest toggling input path into
    each output that changes value.  Neither bounds the other: a glitch
    may end after that path, and a late toggling input that a
    controlling side input masks leaves the DTA delay above the last
    transition (on seeded random ``int_add`` streams, on 3-16% of
    cycles, by up to ~650 ps).  So the two never share a cache entry.
    """
    check_engine(engine)
    return "glitch" if engine == "event" else "dta"


def run_delays(engine: str, netlist: Netlist, input_matrix: np.ndarray,
               delay_matrix: np.ndarray,
               buffers: Optional[KernelBuffers] = None) -> np.ndarray:
    """Per-cycle dynamic delays of an input stream on one engine.

    ``input_matrix`` is ``(n_cycles + 1, n_inputs)`` uint8 with row 0
    the initial state; ``delay_matrix`` is ``(n_corners, n_gates)`` ps
    per gate, or ``(n_gates,)`` for one corner.  Returns the
    ``(n_corners, n_cycles)`` float32 delay matrix (0 where no primary
    output toggled).  Every call runs single-threaded; parallelism is
    the campaign layer's job (shards on a worker pool).  ``buffers`` is
    the caller's scratch set for the ``compiled`` engine (see
    :class:`~repro.sim.compile.KernelBuffers`); the other engines
    ignore it.
    """
    check_engine(engine)
    if engine == "compiled":
        return compile_netlist(netlist).run(input_matrix, delay_matrix,
                                            buffers=buffers)
    if engine == "levelized_ref":
        return LevelizedSimulator(netlist).run(input_matrix, delay_matrix)
    # event: one event-driven pass per corner
    delays = np.asarray(delay_matrix, dtype=np.float64)
    if delays.ndim == 1:
        delays = delays[None, :]
    return np.stack([
        EventDrivenSimulator(netlist, row).run_trace(input_matrix)
        .delays.astype(np.float32) for row in delays])
