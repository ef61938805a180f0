"""Tests for barrel shifters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.shifters import (
    barrel_shift_left,
    barrel_shift_right,
    build_barrel_shifter,
)


def _build_right_with_sticky(width, amt_bits):
    b = CircuitBuilder()
    data = b.input_bus(width, "d")
    amount = b.input_bus(amt_bits, "amt")
    out, sticky = barrel_shift_right(b, data, amount, sticky=True)
    b.mark_output_bus(out)
    b.netlist.mark_output(sticky)
    return b.build()


def _run(netlist, value, amount, width, amt_bits):
    bits = [(value >> i) & 1 for i in range(width)]
    bits += [(amount >> i) & 1 for i in range(amt_bits)]
    return netlist.evaluate_outputs(bits)


class TestBarrelShiftRight:
    @given(value=st.integers(0, 2**16 - 1), amount=st.integers(0, 31))
    @settings(max_examples=120, deadline=None)
    def test_matches_python_shift(self, value, amount):
        nl = _cached("right16")
        out = _run(nl, value, amount, 16, 5)
        got = sum(out[i] << i for i in range(16))
        assert got == value >> amount

    @given(value=st.integers(0, 2**16 - 1), amount=st.integers(0, 31))
    @settings(max_examples=120, deadline=None)
    def test_sticky_collects_dropped_bits(self, value, amount):
        nl = _cached("right16")
        out = _run(nl, value, amount, 16, 5)
        dropped = value & ((1 << min(amount, 16)) - 1) if amount else 0
        assert out[16] == (1 if dropped else 0)


class TestBarrelShiftLeft:
    @given(value=st.integers(0, 2**16 - 1), amount=st.integers(0, 31))
    @settings(max_examples=120, deadline=None)
    def test_matches_python_shift(self, value, amount):
        nl = _cached("left16")
        out = _run(nl, value, amount, 16, 5)
        got = sum(out[i] << i for i in range(16))
        assert got == (value << amount) & 0xFFFF


class TestBuildHelpers:
    def test_build_right(self):
        nl = build_barrel_shifter(32, "right")
        assert len(nl.primary_inputs) == 32 + 5
        assert len(nl.primary_outputs) == 32

    def test_build_left(self):
        nl = build_barrel_shifter(32, "left")
        assert len(nl.primary_outputs) == 32

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            build_barrel_shifter(8, "sideways")


_CACHE = {}


def _cached(kind):
    if kind in _CACHE:
        return _CACHE[kind]
    if kind == "right16":
        nl = _build_right_with_sticky(16, 5)
    elif kind == "left16":
        b = CircuitBuilder()
        data = b.input_bus(16)
        amount = b.input_bus(5)
        b.mark_output_bus(barrel_shift_left(b, data, amount))
        nl = b.build()
    _CACHE[kind] = nl
    return nl
