"""Barrel shifters and bit-manipulation datapaths.

The FP adder needs a variable right shifter (mantissa alignment) and a
variable left shifter (normalization); both are logarithmic barrel
shifters built from 2:1 mux stages.
"""

from __future__ import annotations

from typing import List

from .builder import Bus, CircuitBuilder


def barrel_shift_right(b: CircuitBuilder, data: Bus, amount: Bus,
                       sticky: bool = False):
    """Logical right shift of ``data`` by the unsigned value of ``amount``.

    Returns the shifted bus, or ``(shifted, sticky_bit)`` when ``sticky``
    is set; the sticky bit ORs every bit shifted out (needed by IEEE-754
    round-to-nearest-even).
    """
    zero = b.const_bit(0)
    cur = list(data)
    sticky_bit = zero
    for stage, sel in enumerate(amount):
        shift = 1 << stage
        if sticky:
            dropped = cur[:shift]
            if dropped:
                stage_sticky = b.or_reduce(dropped)
                masked = b.and_(sel, stage_sticky)
                sticky_bit = b.or_(sticky_bit, masked)
        shifted = cur[shift:] + [zero] * min(shift, len(cur))
        cur = [b.mux(sel, keep, sh) for keep, sh in zip(cur, shifted)]
    if sticky:
        return Bus(cur), sticky_bit
    return Bus(cur)


def barrel_shift_left(b: CircuitBuilder, data: Bus, amount: Bus) -> Bus:
    """Logical left shift of ``data`` by the unsigned value of ``amount``."""
    zero = b.const_bit(0)
    cur = list(data)
    for stage, sel in enumerate(amount):
        shift = 1 << stage
        shifted = [zero] * min(shift, len(cur)) + cur[:-shift]
        if shift >= len(cur):
            shifted = [zero] * len(cur)
        cur = [b.mux(sel, keep, sh) for keep, sh in zip(cur, shifted)]
    return Bus(cur)


def build_barrel_shifter(width: int = 32, direction: str = "right"):
    """Standalone barrel shifter netlist (for tests and ablations)."""
    import math

    b = CircuitBuilder(name=f"shift_{direction}{width}")
    data = b.input_bus(width, "data")
    amount = b.input_bus(max(1, math.ceil(math.log2(width))), "amount")
    if direction == "right":
        out = barrel_shift_right(b, data, amount)
    elif direction == "left":
        out = barrel_shift_left(b, data, amount)
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    b.mark_output_bus(out, "out")
    return b.build()
