"""Simulation substrate: the engine registry over one compiled DTA
engine, its per-gate reference, and the glitch-aware event-driven
simulator, plus VCD and DTA."""

from .compile import (
    CompiledBackend,
    CompiledNetlist,
    compile_netlist,
)
from .dta import (
    DelayTrace,
    delays_via_vcd,
    dynamic_delay_trace,
    timing_error_labels,
    timing_error_rate,
)
from .engine import (
    DEFAULT_BACKEND,
    DelayTraceResult,
    SimBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .eventsim import EventBackend, EventDrivenSimulator, EventTraceResult
from .levelized import LevelizedSimulator, ReferenceLevelizedBackend
from .vcd import VCDData, VCDWriter, delays_from_vcd, read_vcd

__all__ = [
    "CompiledBackend",
    "CompiledNetlist",
    "DEFAULT_BACKEND",
    "DelayTrace",
    "DelayTraceResult",
    "EventBackend",
    "EventDrivenSimulator",
    "EventTraceResult",
    "LevelizedSimulator",
    "ReferenceLevelizedBackend",
    "SimBackend",
    "VCDData",
    "VCDWriter",
    "available_backends",
    "compile_netlist",
    "delays_from_vcd",
    "delays_via_vcd",
    "dynamic_delay_trace",
    "get_backend",
    "read_vcd",
    "register_backend",
    "timing_error_labels",
    "timing_error_rate",
]
