"""Simulation substrate: three fixed engines behind one dispatch
(:func:`run_delays`) — the compiled DTA engine, its per-gate
reference, and the glitch-aware event-driven simulator — plus VCD and
DTA."""

from .compile import CompiledNetlist, KernelBuffers, compile_netlist
from .dta import (
    DelayTrace,
    delays_via_vcd,
    timing_error_labels,
    timing_error_rate,
)
from .engine import (
    CYCLE_SHARDABLE,
    DEFAULT_BACKEND,
    ENGINES,
    check_engine,
    delay_model,
    run_delays,
)
from .eventsim import EventDrivenSimulator, EventTraceResult
from .levelized import LevelizedSimulator
from .vcd import VCDData, VCDWriter, delays_from_vcd, read_vcd

__all__ = [
    "CYCLE_SHARDABLE",
    "CompiledNetlist",
    "DEFAULT_BACKEND",
    "DelayTrace",
    "ENGINES",
    "EventDrivenSimulator",
    "EventTraceResult",
    "KernelBuffers",
    "LevelizedSimulator",
    "VCDData",
    "VCDWriter",
    "check_engine",
    "compile_netlist",
    "delay_model",
    "delays_from_vcd",
    "delays_via_vcd",
    "read_vcd",
    "run_delays",
    "timing_error_labels",
    "timing_error_rate",
]
