"""Leading-zero counters.

The FP adder's normalization stage needs a leading-zero count (LZC) of
the mantissa sum; it is built recursively from half-width LZCs, the
standard divide-and-conquer structure.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .builder import Bus, CircuitBuilder


def leading_zero_counter(b: CircuitBuilder, data: Bus) -> Tuple[Bus, int]:
    """Count leading zeros of ``data`` (MSB side).

    Returns ``(count_bus, all_zero_bit)``.  ``count_bus`` has
    ``ceil(log2(width)) + 1`` bits so that the all-zero count (= width)
    is representable when width is a power of two.
    """
    width = len(data)
    if width == 0:
        raise ValueError("LZC input must be non-empty")

    def lzc(bits: List[int]) -> Tuple[List[int], int]:
        # Returns (count LSB-first, all_zero) for the MSB-first view.
        if len(bits) == 1:
            return [b.not_(bits[0])], b.not_(bits[0])
        half = 1 << (math.ceil(math.log2(len(bits))) - 1)
        lo_bits = bits[:len(bits) - half]   # less-significant part
        hi_bits = bits[len(bits) - half:]   # most-significant part
        hi_count, hi_zero = lzc(hi_bits)
        if lo_bits:
            lo_count, lo_zero = lzc(lo_bits)
        else:
            lo_count, lo_zero = [], b.const_bit(1)
        all_zero = b.and_(hi_zero, lo_zero)
        # If the hi half is all zero, count = half + lzc(lo); else lzc(hi).
        out_w = max(len(hi_count), len(lo_count)) + 1
        zero = b.const_bit(0)
        hi_ext = hi_count + [zero] * (out_w - len(hi_count))
        lo_plus = list(lo_count) + [zero] * (out_w - len(lo_count))
        # add `half` to lo count: half is a power of two -> set that bit via
        # incrementing the corresponding bit position with a half-adder chain.
        k = int(math.log2(half))
        carry = b.const_bit(1)
        summed: List[int] = []
        for idx, bit in enumerate(lo_plus):
            if idx < k:
                summed.append(bit)
            else:
                s = b.xor_(bit, carry)
                carry = b.and_(bit, carry)
                summed.append(s)
        count = [b.mux(hi_zero, h, s) for h, s in zip(hi_ext, summed)]
        return count, all_zero

    count, all_zero = lzc(list(data))
    need = math.ceil(math.log2(width)) + 1
    zero = b.const_bit(0)
    count = (count + [zero] * need)[:need]
    return Bus(count), all_zero


def build_lzc(width: int = 32):
    """Standalone LZC netlist (for tests)."""
    b = CircuitBuilder(name=f"lzc{width}")
    data = b.input_bus(width, "data")
    count, all_zero = leading_zero_counter(b, data)
    b.mark_output_bus(count, "count")
    b.netlist.mark_output(all_zero, "all_zero")
    return b.build()
