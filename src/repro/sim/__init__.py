"""Simulation substrate: three fixed engines behind one dispatch
(:func:`run_delays`) — the compiled DTA engine, its per-gate
reference, and the glitch-aware event-driven simulator — plus the DTA
delay traces and timing-error labels."""

from .compile import CompiledNetlist, KernelBuffers, compile_netlist
from .dta import DelayTrace, timing_error_labels, timing_error_rate
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
    "check_engine",
    "compile_netlist",
    "delay_model",
    "run_delays",
    "timing_error_labels",
    "timing_error_rate",
]
