"""Gate-level integer adder generators.

Three adder architectures are provided.  The paper's FUs come from
FloPoCo; the exact architecture is not disclosed, so we provide standard
textbook datapaths.  All return ``(sum_bus, carry_out)`` so callers can
compose wider arithmetic (FP mantissa paths use them heavily).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .builder import Bus, CircuitBuilder


def ripple_carry_adder(b: CircuitBuilder, a: Bus, x: Bus,
                       cin: Optional[int] = None) -> Tuple[Bus, int]:
    """Ripple-carry adder: minimal area, carry chain = critical path.

    The long, input-dependent carry chain is exactly what makes dynamic
    delay workload-dependent, so this is the default architecture for the
    INT_ADD functional unit.
    """
    if len(a) != len(x):
        raise ValueError(f"width mismatch: {len(a)} vs {len(x)}")
    carry = cin if cin is not None else b.const_bit(0)
    sums: List[int] = []
    for ai, xi in zip(a, x):
        s, carry = b.full_adder(ai, xi, carry)
        sums.append(s)
    return Bus(sums), carry


def carry_lookahead_adder(b: CircuitBuilder, a: Bus, x: Bus,
                          cin: Optional[int] = None,
                          group: int = 4) -> Tuple[Bus, int]:
    """Group carry-lookahead adder.

    Within each ``group``-bit block the carries are computed from
    propagate/generate terms; blocks are chained.  Shorter critical path
    than ripple, more gates — used to ablate architecture sensitivity.
    """
    if len(a) != len(x):
        raise ValueError(f"width mismatch: {len(a)} vs {len(x)}")
    carry = cin if cin is not None else b.const_bit(0)
    sums: List[int] = []
    n = len(a)
    for start in range(0, n, group):
        end = min(start + group, n)
        p = [b.xor_(a[i], x[i]) for i in range(start, end)]
        g = [b.and_(a[i], x[i]) for i in range(start, end)]
        # Expanded lookahead: c[k+1] = g[k] | p[k]g[k-1] | ... | p[k..0]c0.
        # prefix[k] = p[k] & p[k-1] & ... & p[0] (built incrementally).
        carries = [carry]
        prefix = None
        for k in range(len(p)):
            terms = [g[k]]
            run = p[k]
            for j in range(k - 1, -1, -1):
                terms.append(b.and_(run, g[j]))
                run = b.and_(run, p[j])
            terms.append(b.and_(run, carry))
            carries.append(b.or_reduce(terms))
        for k in range(len(p)):
            sums.append(b.xor_(p[k], carries[k]))
        carry = carries[-1]
    return Bus(sums), carry


def carry_select_adder(b: CircuitBuilder, a: Bus, x: Bus,
                       cin: Optional[int] = None,
                       group: int = 8) -> Tuple[Bus, int]:
    """Carry-select adder: duplicated ripple blocks muxed by the carry."""
    if len(a) != len(x):
        raise ValueError(f"width mismatch: {len(a)} vs {len(x)}")
    carry = cin if cin is not None else b.const_bit(0)
    sums: List[int] = []
    n = len(a)
    first = True
    for start in range(0, n, group):
        end = min(start + group, n)
        blk_a, blk_x = a[start:end], x[start:end]
        if first:
            s, carry = ripple_carry_adder(b, blk_a, blk_x, carry)
            sums.extend(s)
            first = False
            continue
        s0, c0 = ripple_carry_adder(b, blk_a, blk_x, b.const_bit(0))
        s1, c1 = ripple_carry_adder(b, blk_a, blk_x, b.const_bit(1))
        sums.extend(b.mux_bus(carry, s0, s1))
        carry = b.mux(carry, c0, c1)
    return Bus(sums), carry


def subtractor(b: CircuitBuilder, a: Bus, x: Bus) -> Tuple[Bus, int]:
    """``a - x`` two's complement; returns ``(diff, borrow_free)``.

    The carry-out is 1 when ``a >= x`` (no borrow), the usual trick of
    adding the inverted subtrahend with carry-in 1.
    """
    inv = b.not_bus(x)
    return ripple_carry_adder(b, a, inv, b.const_bit(1))


ADDER_ARCHITECTURES = {
    "ripple": ripple_carry_adder,
    "cla": carry_lookahead_adder,
    "carry_select": carry_select_adder,
}


def build_int_adder(width: int = 32, architecture: str = "ripple"):
    """Build a standalone integer adder netlist.

    Primary inputs are ``a`` then ``x`` (LSB-first each); outputs are the
    ``width`` sum bits then the carry-out.
    """
    if architecture not in ADDER_ARCHITECTURES:
        raise ValueError(
            f"unknown adder architecture {architecture!r}; "
            f"choose from {sorted(ADDER_ARCHITECTURES)}"
        )
    b = CircuitBuilder(name=f"int_add{width}_{architecture}")
    a = b.input_bus(width, "a")
    x = b.input_bus(width, "b")
    s, cout = ADDER_ARCHITECTURES[architecture](b, a, x)
    b.mark_output_bus(s, "sum")
    b.netlist.mark_output(cout, "cout")
    return b.build()
