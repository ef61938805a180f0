"""NLDM-lite standard-cell timing library.

Each gate type gets an intrinsic delay plus a linear load term per
fanout pin — a one-segment non-linear-delay-model (NLDM) table.  The
absolute numbers approximate a generic 45 nm library in picoseconds;
the paper's conclusions depend only on relative path delays, which this
preserves (XOR-rich full-adder chains dominate, as in any real adder).

A :class:`CellLibrary` turns a netlist plus a list of operating
conditions into the ``(n_conditions, n_gates)`` delay matrix the DTA
engines consume: one per-gate nominal vector and one per-corner,
per-cell-type derating table, multiplied in numpy.  The single-corner
per-gate vector used by STA and the event simulator is row 0 of a
one-corner matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.netlist import GateType, Netlist
from .corners import OperatingCondition
from .scaling import DEFAULT_SCALING, ScalingParameters


@dataclass(frozen=True)
class CellTiming:
    """Timing of one library cell.

    ``delay = intrinsic + load * fanout`` picoseconds at the nominal
    corner.  ``vth_offset`` models the cell's transistor stacking: taller
    stacks see a higher effective threshold, so such cells derate *more*
    at low voltage.  This per-cell sensitivity is what makes corner
    scaling non-uniform across paths (as with real CCS libraries) — the
    identity of the longest sensitized path can change with ``(V, T)``.
    """

    intrinsic: float
    load: float
    vth_offset: float = 0.0

    def delay(self, fanout: int) -> float:
        return self.intrinsic + self.load * max(1, fanout)


#: Nominal-corner cell timings (ps), loosely calibrated to 45 nm drive-1
#: cells: inverting gates fastest, XOR/XNOR (two stacked stages) and the
#: transmission-gate MUX slowest.  Stacked cells carry a Vth offset.
DEFAULT_CELL_TIMINGS: Dict[GateType, CellTiming] = {
    GateType.CONST0: CellTiming(0.0, 0.0),
    GateType.CONST1: CellTiming(0.0, 0.0),
    GateType.BUF: CellTiming(14.0, 3.0, 0.000),
    GateType.NOT: CellTiming(8.0, 2.5, -0.010),
    GateType.NAND2: CellTiming(12.0, 3.0, 0.010),
    GateType.NOR2: CellTiming(14.0, 3.5, 0.020),
    GateType.AND2: CellTiming(18.0, 3.0, 0.010),
    GateType.OR2: CellTiming(20.0, 3.5, 0.020),
    GateType.XOR2: CellTiming(28.0, 4.0, 0.030),
    GateType.XNOR2: CellTiming(28.0, 4.0, 0.030),
    GateType.MUX2: CellTiming(26.0, 4.0, 0.025),
}


@dataclass
class CellLibrary:
    """A set of cell timings plus a V/T scaling model.

    Parameters
    ----------
    timings:
        Per-gate-type nominal timing; defaults to the 45 nm-like table.
    scaling:
        Alpha-power V/T model used to derate every cell uniformly (the
        single-PVT-derate approximation standard cell libraries use for
        scalar corners).
    """

    timings: Dict[GateType, CellTiming] = field(
        default_factory=lambda: dict(DEFAULT_CELL_TIMINGS))
    scaling: ScalingParameters = DEFAULT_SCALING

    def cell_delay(self, gtype: GateType, fanout: int,
                   condition: Optional[OperatingCondition] = None) -> float:
        """Delay of one cell instance in ps at the given condition."""
        timing = self.timings.get(gtype)
        if timing is None:
            raise KeyError(f"no timing for cell type {gtype}")
        nominal = timing.delay(fanout)
        if condition is None:
            return nominal
        return nominal * self.scaling.delay_scale(
            condition.voltage, condition.temperature, timing.vth_offset)

    def type_scales(self, condition: Optional[OperatingCondition]
                    ) -> Dict[GateType, float]:
        """Per-cell-class V/T derating factors at a condition."""
        if condition is None:
            return {gtype: 1.0 for gtype in self.timings}
        return {
            gtype: self.scaling.delay_scale(
                condition.voltage, condition.temperature, timing.vth_offset)
            for gtype, timing in self.timings.items()
        }

    def gate_delays(self, netlist: Netlist,
                    condition: Optional[OperatingCondition] = None
                    ) -> np.ndarray:
        """Per-gate delay vector (ps), aligned with ``netlist.gates``.

        This is the substitute for reading an SDF file produced by
        corner STA: one scalar delay per gate instance at ``condition``.
        """
        return self.delay_matrix(netlist, [condition])[0]

    def delay_matrix(self, netlist: Netlist,
                     conditions: Sequence[Optional[OperatingCondition]]
                     ) -> np.ndarray:
        """Per-corner, per-gate delay matrix ``(n_conditions, n_gates)``.

        The multi-corner input the vectorized DTA simulator consumes.
        Entry ``[c, g]`` is the single float64 product
        ``nominal(g) * scale(type(g), c)``, so every row equals the
        per-gate :meth:`cell_delay` values bit for bit.
        """
        conditions = list(conditions)
        if not conditions:
            raise ValueError("need at least one operating condition")
        gates = netlist.gates
        position = {gtype: k for k, gtype in enumerate(self.timings)}
        try:
            type_idx = np.array([position[g.gtype] for g in gates],
                                dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"no timing for cell type {exc.args[0]}") from None
        fanout = netlist.fanout_counts()
        nominal = np.array(
            [self.timings[g.gtype].delay(fanout[g.output]) for g in gates],
            dtype=np.float64)
        scales = np.array([list(self.type_scales(c).values())
                           for c in conditions], dtype=np.float64)
        # ``take`` keeps the rows C-contiguous (``scales[:, type_idx]``
        # does not); the in-place product spares a second
        # (n_conditions, n_gates) temporary, ~3 MB per 100-corner
        # multiplier matrix
        out = np.take(scales, type_idx, axis=1)
        out *= nominal
        return out


DEFAULT_LIBRARY = CellLibrary()
