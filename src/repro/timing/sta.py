"""Static timing analysis.

Computes worst-case (topological) arrival times — the *static delay* of
Sec. III: the critical-path delay that guardbanded designs sign off
against, regardless of whether any workload actually sensitizes it.
TEVoT's whole argument is that the dynamic (sensitized) delay is usually
much smaller; STA provides the per-corner error-free clock the paper
speeds up by 5/10/15 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..circuits.netlist import Netlist
from .cells import CellLibrary, DEFAULT_LIBRARY
from .corners import OperatingCondition


@dataclass
class STAResult:
    """Output of one STA run.

    Attributes
    ----------
    arrival:
        Worst arrival time (ps) per net, index = net id; primary inputs
        arrive at t = 0.
    critical_path:
        Net ids from a primary input to the worst primary output,
        following worst-arrival predecessors.
    critical_delay:
        Arrival at the worst primary output (ps) — the static delay.
    condition:
        The operating condition analysed (None = nominal).
    """

    arrival: np.ndarray
    critical_path: List[int]
    critical_delay: float
    condition: Optional[OperatingCondition] = None

    @property
    def error_free_clock(self) -> float:
        """Fastest clock period (ps) with zero timing errors at this
        corner — equal to the static critical-path delay."""
        return self.critical_delay


def run_sta(netlist: Netlist,
            condition: Optional[OperatingCondition] = None,
            library: CellLibrary = DEFAULT_LIBRARY,
            gate_delays: Optional[np.ndarray] = None) -> STAResult:
    """Topological worst-case arrival analysis at one corner.

    Parameters
    ----------
    netlist:
        Combinational circuit (gates already topologically ordered).
    condition:
        Operating condition for V/T derating (None = nominal corner).
    library:
        Cell library supplying per-gate delays.
    gate_delays:
        Optional precomputed per-gate delay vector (e.g. one row of
        ``CellLibrary.delay_matrix``, or unit delays); overrides
        ``library``/``condition``.
    """
    if gate_delays is None:
        gate_delays = library.gate_delays(netlist, condition)
    if len(gate_delays) != len(netlist.gates):
        raise ValueError(
            f"gate_delays has {len(gate_delays)} entries for "
            f"{len(netlist.gates)} gates"
        )
    return run_sta_corners(netlist, [condition],
                           gate_delays=np.asarray(gate_delays)[None, :])[0]


def run_sta_corners(netlist: Netlist,
                    conditions: Sequence[Optional[OperatingCondition]],
                    library: CellLibrary = DEFAULT_LIBRARY,
                    gate_delays: Optional[np.ndarray] = None
                    ) -> List[STAResult]:
    """Worst-case arrival analysis at every corner in one pass.

    Returns one :class:`STAResult` per condition, in order.  The
    arrival recurrence runs level-wise over the gate groups of the
    netlist's compiled program (:func:`repro.sim.compile.compile_netlist`)
    with all corners as one array axis; the dead cone is included, so
    every net gets its arrival.  The arithmetic is the per-gate walk's:
    float64, constants at 0, and the worst fanin is the first pin
    reaching the maximum, so ``critical_path`` follows the same nets.

    ``gate_delays`` is an optional ``(n_conditions, n_gates)`` delay
    matrix overriding ``library``.
    """
    # imported here: repro.sim imports this package
    from ..sim.compile import compile_netlist

    conditions = list(conditions)
    if not conditions:
        return []
    if gate_delays is None:
        gate_delays = library.delay_matrix(netlist, conditions)
    delays = np.asarray(gate_delays, dtype=np.float64)
    if delays.shape != (len(conditions), len(netlist.gates)):
        raise ValueError(
            f"gate_delays must be ({len(conditions)}, "
            f"{len(netlist.gates)}), got {delays.shape}")

    program = compile_netlist(netlist)
    n_corners = len(conditions)
    # program row order (see CompiledNetlist); constants stay at 0
    arrival = np.zeros((program.n_nets, n_corners))
    worst_pred = np.full((program.n_nets, n_corners), -1, dtype=np.int64)
    delays_t = delays.T
    for g in program.groups:
        if g.arity == 0:
            continue
        fanin = arrival[g.fanin]                 # (arity, n, corners)
        worst = fanin.argmax(axis=0)             # first maximum pin
        arrival[g.start:g.stop] = (
            np.take_along_axis(fanin, worst[None], axis=0)[0]
            + delays_t[g.gate_idx])
        worst_pred[g.start:g.stop] = np.take_along_axis(
            g.fanin[:, :, None], worst[None], axis=0)[0]

    # back to net ids, one row per corner
    row_net = np.empty(program.n_nets, dtype=np.int64)
    row_net[program.net_row] = np.arange(program.n_nets)
    net_arrival = np.ascontiguousarray(arrival[program.net_row].T)
    pred_rows = worst_pred[program.net_row].T
    net_pred = np.where(pred_rows >= 0, row_net[pred_rows], -1)

    results = []
    for k, condition in enumerate(conditions):
        arr = net_arrival[k]
        if netlist.primary_outputs:
            pos = netlist.primary_outputs
            worst_out = pos[int(np.argmax(arr[pos]))]
        elif netlist.gates:
            worst_out = int(np.argmax(arr))
        else:
            results.append(STAResult(arr, [], 0.0, condition))
            continue
        path: List[int] = []
        net = worst_out
        while net != -1:
            path.append(net)
            net = int(net_pred[k, net])
        path.reverse()
        results.append(STAResult(arr, path, float(arr[worst_out]),
                                 condition))
    return results


def static_delay(netlist: Netlist,
                 condition: Optional[OperatingCondition] = None,
                 library: CellLibrary = DEFAULT_LIBRARY) -> float:
    """Critical-path delay (ps) — shorthand for ``run_sta(...).critical_delay``."""
    return run_sta(netlist, condition, library).critical_delay
