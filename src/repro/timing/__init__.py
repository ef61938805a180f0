"""Timing substrate: cell library, V/T scaling, corners, STA."""

from .cells import DEFAULT_CELL_TIMINGS, DEFAULT_LIBRARY, CellLibrary, CellTiming
from .corners import (
    CLOCK_SPEEDUPS,
    OperatingCondition,
    fig3_corner_subset,
    nominal_condition,
    paper_corner_grid,
    sped_up_clock,
    temperature_points,
    voltage_points,
)
from .scaling import DEFAULT_SCALING, ScalingParameters, delay_scale
from .sta import STAResult, run_sta, run_sta_corners, static_delay

__all__ = [
    "CLOCK_SPEEDUPS",
    "CellLibrary",
    "CellTiming",
    "DEFAULT_CELL_TIMINGS",
    "DEFAULT_LIBRARY",
    "DEFAULT_SCALING",
    "OperatingCondition",
    "STAResult",
    "ScalingParameters",
    "delay_scale",
    "fig3_corner_subset",
    "nominal_condition",
    "paper_corner_grid",
    "run_sta",
    "run_sta_corners",
    "sped_up_clock",
    "static_delay",
    "temperature_points",
    "voltage_points",
]
