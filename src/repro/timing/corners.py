"""Operating conditions and the paper's corner grid (Table I).

The paper sweeps 20 voltage points (0.81 V to 1.00 V, step 0.01 V) and
5 temperature points (0 to 100 C, step 25 C) — 100 ``(V, T)`` pairs —
and 3 clock speedups (5 %, 10 %, 15 %) over the fastest error-free
clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True, order=True)
class OperatingCondition:
    """One ``(V, T)`` pair.  Voltage in volts, temperature in Celsius."""

    voltage: float
    temperature: float

    def __post_init__(self) -> None:
        if not 0 < self.voltage < math.inf:  # False for NaN too
            raise ValueError(
                f"voltage must be finite and positive, got {self.voltage}")
        if not (-55.0 <= self.temperature <= 150.0):
            raise ValueError(
                f"temperature {self.temperature} C outside sane silicon range"
            )

    @property
    def label(self) -> str:
        """Short label like ``(0.81,50)`` used in Fig. 3 axes."""
        return f"({self.voltage:.2f},{self.temperature:g})"

    def as_tuple(self) -> Tuple[float, float]:
        return (self.voltage, self.temperature)


# Table I parameters.
VOLTAGE_START = 0.81
VOLTAGE_END = 1.00
VOLTAGE_STEP = 0.01
VOLTAGE_POINTS = 20

TEMPERATURE_START = 0.0
TEMPERATURE_END = 100.0
TEMPERATURE_STEP = 25.0
TEMPERATURE_POINTS = 5

#: Clock speedups over the fastest error-free clock (Table I).
CLOCK_SPEEDUPS: Tuple[float, ...] = (0.05, 0.10, 0.15)


def voltage_points() -> List[float]:
    """The 20 voltage points of Table I."""
    return [round(VOLTAGE_START + i * VOLTAGE_STEP, 2)
            for i in range(VOLTAGE_POINTS)]


def temperature_points() -> List[float]:
    """The 5 temperature points of Table I."""
    return [TEMPERATURE_START + i * TEMPERATURE_STEP
            for i in range(TEMPERATURE_POINTS)]


def paper_corner_grid() -> List[OperatingCondition]:
    """All 100 ``(V, T)`` operating conditions of Table I.

    Ordered voltage-major, i.e. ``(0.81, 0), (0.81, 25), ...`` so that
    corners sharing a voltage are adjacent (mirrors Fig. 3's x-axis).
    """
    return [
        OperatingCondition(v, t)
        for v in voltage_points()
        for t in temperature_points()
    ]


def fig3_corner_subset() -> List[OperatingCondition]:
    """The 9 corners plotted in Fig. 3 (V in {0.81, 0.90, 1.00}, T in
    {0, 50, 100})."""
    return [
        OperatingCondition(v, t)
        for v in (0.81, 0.90, 1.00)
        for t in (0.0, 50.0, 100.0)
    ]


def nominal_condition() -> OperatingCondition:
    """The nominal sign-off corner (1.00 V, 25 C)."""
    return OperatingCondition(1.00, 25.0)


def sped_up_clock(error_free_clock: float, speedup: float) -> float:
    """Clock period after overclocking by ``speedup`` (e.g. 0.10 = 10 %).

    The paper speeds up the *frequency* by 5/10/15 % from the fastest
    error-free frequency, so the period shrinks by ``1/(1+s)``.
    """
    if speedup < 0:
        raise ValueError(f"speedup must be non-negative, got {speedup}")
    return error_free_clock / (1.0 + speedup)
