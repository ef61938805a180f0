"""Structural circuit-builder DSL.

:class:`CircuitBuilder` wraps a :class:`~repro.circuits.netlist.Netlist`
with word-level operations on :class:`Bus` objects (LSB-first tuples of
net ids).  The datapath generators (adders, multipliers, FP units) are
written against this DSL, playing the role FloPoCo's generated VHDL plays
in the paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .netlist import GateType, Netlist


class Bus(tuple):
    """An ordered, LSB-first tuple of net ids forming a word.

    ``bus[0]`` is bit 0 (least significant).  Slicing returns a ``Bus``.
    """

    def __new__(cls, nets: Sequence[int]) -> "Bus":
        return super().__new__(cls, tuple(int(n) for n in nets))

    def __getitem__(self, item):
        result = super().__getitem__(item)
        if isinstance(item, slice):
            return Bus(result)
        return result

    @property
    def width(self) -> int:
        return len(self)

    def msb(self) -> int:
        """Most-significant bit net id."""
        return self[-1]


BitsLike = Union[Bus, Sequence[int]]


class CircuitBuilder:
    """Incrementally build a combinational netlist with word-level ops.

    All multi-bit values are LSB-first.  Methods that produce a single
    bit return a net id (``int``); word-level methods return a
    :class:`Bus`.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.netlist = Netlist(name=name)
        self._const_cache: dict = {}

    # -- inputs / constants ------------------------------------------------

    def input_bit(self, name: Optional[str] = None) -> int:
        """A 1-bit primary input."""
        return self.netlist.add_input(name)

    def input_bus(self, width: int, name: str = "in") -> Bus:
        """A ``width``-bit primary input word (LSB-first)."""
        return Bus([self.netlist.add_input(f"{name}[{i}]") for i in range(width)])

    def const_bit(self, value: int) -> int:
        """A constant 0/1 net (cached per builder)."""
        value = 1 if value else 0
        if value not in self._const_cache:
            gtype = GateType.CONST1 if value else GateType.CONST0
            self._const_cache[value] = self.netlist.add_gate(gtype, ())
        return self._const_cache[value]

    def const_bus(self, value: int, width: int) -> Bus:
        """A constant word of the given width."""
        return Bus([self.const_bit((value >> i) & 1) for i in range(width)])

    def mark_output_bus(self, bus: BitsLike, name: str = "out") -> None:
        """Register every bit of ``bus`` as a primary output."""
        for i, net in enumerate(bus):
            self.netlist.mark_output(net, f"{name}[{i}]")

    # -- single-bit gates ----------------------------------------------------

    def buf(self, a: int) -> int:
        return self.netlist.add_gate(GateType.BUF, (a,))

    def not_(self, a: int) -> int:
        return self.netlist.add_gate(GateType.NOT, (a,))

    def and_(self, a: int, b: int) -> int:
        return self.netlist.add_gate(GateType.AND2, (a, b))

    def or_(self, a: int, b: int) -> int:
        return self.netlist.add_gate(GateType.OR2, (a, b))

    def xor_(self, a: int, b: int) -> int:
        return self.netlist.add_gate(GateType.XOR2, (a, b))

    def xnor_(self, a: int, b: int) -> int:
        return self.netlist.add_gate(GateType.XNOR2, (a, b))

    def mux(self, sel: int, a: int, b: int) -> int:
        """``b if sel else a`` (single bit)."""
        return self.netlist.add_gate(GateType.MUX2, (sel, a, b))

    # -- reduction / tree gates ----------------------------------------------

    def _reduce_tree(self, op, bits: BitsLike) -> int:
        """Balanced binary reduction tree (minimizes logic depth)."""
        bits = list(bits)
        if not bits:
            raise ValueError("cannot reduce empty bit list")
        while len(bits) > 1:
            nxt: List[int] = []
            for i in range(0, len(bits) - 1, 2):
                nxt.append(op(bits[i], bits[i + 1]))
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    def and_reduce(self, bits: BitsLike) -> int:
        """AND of all bits (balanced tree)."""
        return self._reduce_tree(self.and_, bits)

    def or_reduce(self, bits: BitsLike) -> int:
        """OR of all bits (balanced tree)."""
        return self._reduce_tree(self.or_, bits)

    def xor_reduce(self, bits: BitsLike) -> int:
        """XOR (parity) of all bits (balanced tree)."""
        return self._reduce_tree(self.xor_, bits)

    # -- bitwise word ops ------------------------------------------------------

    def _check_same_width(self, a: BitsLike, b: BitsLike) -> None:
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")

    def not_bus(self, a: BitsLike) -> Bus:
        return Bus([self.not_(x) for x in a])

    def and_bus(self, a: BitsLike, b: BitsLike) -> Bus:
        self._check_same_width(a, b)
        return Bus([self.and_(x, y) for x, y in zip(a, b)])

    def or_bus(self, a: BitsLike, b: BitsLike) -> Bus:
        self._check_same_width(a, b)
        return Bus([self.or_(x, y) for x, y in zip(a, b)])

    def xor_bus(self, a: BitsLike, b: BitsLike) -> Bus:
        self._check_same_width(a, b)
        return Bus([self.xor_(x, y) for x, y in zip(a, b)])

    def mux_bus(self, sel: int, a: BitsLike, b: BitsLike) -> Bus:
        """Word-level 2:1 mux: ``b if sel else a``."""
        self._check_same_width(a, b)
        return Bus([self.mux(sel, x, y) for x, y in zip(a, b)])

    def and_bit_bus(self, bit: int, a: BitsLike) -> Bus:
        """AND a single bit into every bit of a word (masking)."""
        return Bus([self.and_(bit, x) for x in a])

    # -- structural word utilities --------------------------------------------

    def zero_extend(self, a: BitsLike, width: int) -> Bus:
        if len(a) > width:
            raise ValueError("zero_extend to smaller width")
        pad = [self.const_bit(0)] * (width - len(a))
        return Bus(list(a) + pad)

    def shift_left_const(self, a: BitsLike, amount: int, width: int) -> Bus:
        """Constant left shift into a ``width``-bit word (zero fill)."""
        zeros = [self.const_bit(0)] * amount
        bits = zeros + list(a)
        bits = bits[:width]
        while len(bits) < width:
            bits.append(self.const_bit(0))
        return Bus(bits)

    def concat(self, *parts: BitsLike) -> Bus:
        """Concatenate words, first argument in the least-significant spot."""
        bits: List[int] = []
        for p in parts:
            bits.extend(p)
        return Bus(bits)

    # -- arithmetic bit cells ----------------------------------------------------

    def half_adder(self, a: int, b: int) -> Tuple[int, int]:
        """Return ``(sum, carry)``."""
        return self.xor_(a, b), self.and_(a, b)

    def full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        """Return ``(sum, carry)`` — classic 2-XOR/2-AND/1-OR cell."""
        axb = self.xor_(a, b)
        s = self.xor_(axb, cin)
        c = self.or_(self.and_(a, b), self.and_(axb, cin))
        return s, c

    # -- comparison helpers -------------------------------------------------------

    def equal_bus(self, a: BitsLike, b: BitsLike) -> int:
        """1 iff words are equal."""
        self._check_same_width(a, b)
        return self.and_reduce([self.xnor_(x, y) for x, y in zip(a, b)])

    def is_zero(self, a: BitsLike) -> int:
        """1 iff all bits are 0."""
        return self.not_(self.or_reduce(a))

    # -- finalize --------------------------------------------------------------

    def build(self) -> Netlist:
        """Validate and return the underlying netlist."""
        self.netlist.validate()
        return self.netlist
