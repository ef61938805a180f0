"""Dynamic timing analysis: delay traces and timing-error labels.

Ties the simulators to the paper's quantities: a :class:`DelayTrace`
holds the per-cycle dynamic delay ``D[t]`` of an FU at one or more
operating conditions, and :func:`timing_error_labels` turns delays into
the paper's two classes (``D[t] > tclk`` = timing erroneous).

Campaigns (:mod:`repro.flow.campaign`) produce the traces with the
graph-based DTA the paper cites as [3], on the ``compiled`` engine by
default.  Where the paper's flow dumps a VCD from an SDF-annotated
simulation and parses it, every engine here takes the per-gate delay
vector in memory and returns the per-cycle delays directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..timing.corners import OperatingCondition


@dataclass
class DelayTrace:
    """Dynamic delays of one input stream across operating conditions.

    Attributes
    ----------
    delays:
        ``(n_conditions, n_cycles)`` float32 ps.
    conditions:
        The operating conditions, aligned with the first axis.
    inputs:
        The ``(n_cycles + 1, n_bits)`` input bit matrix that produced the
        trace (row 0 is the initial state).
    """

    delays: np.ndarray
    conditions: List[OperatingCondition]
    inputs: Optional[np.ndarray] = None

    @property
    def n_cycles(self) -> int:
        return self.delays.shape[1]

    def average_delay(self) -> np.ndarray:
        """Mean dynamic delay per condition — the Fig. 3 quantity."""
        return self.delays.mean(axis=1)

    def max_delay(self) -> np.ndarray:
        """Max observed dynamic delay per condition (Delay-based model's
        offline measurement)."""
        return self.delays.max(axis=1)


def timing_error_labels(delays: np.ndarray, clock_period: float) -> np.ndarray:
    """Classify each cycle: 1 = timing erroneous, 0 = timing correct.

    A cycle has a timing error when its sensitized dynamic delay
    exceeds the clock period (Sec. III of the paper).
    """
    if clock_period <= 0:
        raise ValueError("clock_period must be positive")
    return (np.asarray(delays) > clock_period).astype(np.uint8)


def timing_error_rate(delays: np.ndarray, clock_period: float) -> float:
    """Fraction of erroneous cycles (the TER of the TER-based model)."""
    labels = timing_error_labels(delays, clock_period)
    return float(labels.mean())

