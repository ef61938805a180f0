"""Simulated ASIC implementation flow (Fig. 2, left box).

The paper's flow is: HDL -> logic synthesis (Design Compiler) ->
place & route (IC Compiler) -> per-corner STA (PrimeTime) -> SDF files
-> back-annotated gate-level simulation (ModelSim).  Our substitute
keeps every interface: "synthesis" elaborates an FU generator into a
gate netlist, corner "signoff" runs our STA per (V, T) and emits SDF
files, and the simulators consume the same per-gate delay vectors the
SDFs carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuits.functional_units import FunctionalUnit, build_functional_unit
from ..timing.cells import CellLibrary, DEFAULT_LIBRARY
from ..timing.corners import OperatingCondition
from ..timing.sdf import write_sdf
from ..timing.sta import STAResult, run_sta_corners


@dataclass
class ImplementedDesign:
    """An FU after the (simulated) implementation flow.

    Holds the netlist plus per-corner signoff results, mirroring what a
    designer gets back from synthesis + multi-corner STA.
    """

    fu: FunctionalUnit
    library: CellLibrary
    sta: Dict[OperatingCondition, STAResult] = field(default_factory=dict)

    @property
    def netlist(self):
        return self.fu.netlist

    def static_delay(self, condition: OperatingCondition) -> float:
        if condition not in self.sta:
            raise KeyError(f"corner {condition} was not signed off")
        return self.sta[condition].critical_delay

    def corners(self) -> List[OperatingCondition]:
        return list(self.sta)

    def gate_delays(self, condition: OperatingCondition) -> np.ndarray:
        """Per-gate delays at a corner (the SDF contents)."""
        return self.library.gate_delays(self.netlist, condition)

    def emit_sdf(self, directory, conditions: Optional[Sequence] = None
                 ) -> List[Path]:
        """Write one SDF per corner, as PrimeTime would."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for condition in (conditions or self.corners()):
            name = (f"{self.netlist.name}_"
                    f"{condition.voltage:.2f}V_{condition.temperature:g}C.sdf")
            paths.append(write_sdf(self.netlist,
                                   self.gate_delays(condition),
                                   directory / name, condition))
        return paths


def implement(fu_name: str,
              conditions: Sequence[OperatingCondition],
              library: CellLibrary = DEFAULT_LIBRARY,
              **fu_kwargs) -> ImplementedDesign:
    """Run the simulated flow: elaborate the FU and sign off each corner."""
    fu = build_functional_unit(fu_name, **fu_kwargs)
    design = ImplementedDesign(fu=fu, library=library)
    for result in run_sta_corners(fu.netlist, conditions, library):
        design.sta[result.condition] = result
    return design
