"""Gate-level magnitude comparators.

The FP adder uses an unsigned comparator on ``{exponent, mantissa}`` to
decide which operand is larger before alignment.
"""

from __future__ import annotations

from typing import Tuple

from .builder import Bus, CircuitBuilder


def unsigned_compare(b: CircuitBuilder, a: Bus, x: Bus) -> Tuple[int, int, int]:
    """Compare unsigned words; returns ``(lt, eq, gt)`` one-hot bits.

    Built as a ripple from MSB to LSB: at each bit, the comparison is
    decided unless the prefix is still equal.
    """
    if len(a) != len(x):
        raise ValueError(f"width mismatch: {len(a)} vs {len(x)}")
    lt = b.const_bit(0)
    gt = b.const_bit(0)
    eq = b.const_bit(1)
    for ai, xi in zip(reversed(a), reversed(x)):
        bit_gt = b.and_(ai, b.not_(xi))
        bit_lt = b.and_(b.not_(ai), xi)
        gt = b.or_(gt, b.and_(eq, bit_gt))
        lt = b.or_(lt, b.and_(eq, bit_lt))
        eq = b.and_(eq, b.xnor_(ai, xi))
    return lt, eq, gt


def build_comparator(width: int = 32):
    """Standalone comparator netlist with lt/eq/gt outputs."""
    b = CircuitBuilder(name=f"cmp{width}")
    a = b.input_bus(width, "a")
    x = b.input_bus(width, "b")
    lt, eq, gt = unsigned_compare(b, a, x)
    b.netlist.mark_output(lt, "lt")
    b.netlist.mark_output(eq, "eq")
    b.netlist.mark_output(gt, "gt")
    return b.build()
