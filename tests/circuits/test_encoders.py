"""Tests for the leading-zero counter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.encoders import build_lzc, leading_zero_counter


def clz(value, width):
    """Reference count-leading-zeros."""
    for i in range(width - 1, -1, -1):
        if (value >> i) & 1:
            return width - 1 - i
    return width


_LZC_CACHE = {}


def _lzc_netlist(width):
    if width not in _LZC_CACHE:
        _LZC_CACHE[width] = build_lzc(width)
    return _LZC_CACHE[width]


class TestLeadingZeroCounter:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8])
    def test_exhaustive_small_widths(self, width):
        nl = _lzc_netlist(width)
        count_bits = len(nl.primary_outputs) - 1
        for value in range(1 << width):
            out = nl.evaluate_outputs([(value >> i) & 1 for i in range(width)])
            got = sum(out[i] << i for i in range(count_bits))
            assert got == clz(value, width), (width, value)
            assert out[count_bits] == (1 if value == 0 else 0)

    @given(value=st.integers(0, 2**28 - 1))
    @settings(max_examples=150, deadline=None)
    def test_width28_matches_reference(self, value):
        nl = _lzc_netlist(28)
        count_bits = len(nl.primary_outputs) - 1
        out = nl.evaluate_outputs([(value >> i) & 1 for i in range(28)])
        got = sum(out[i] << i for i in range(count_bits))
        assert got == clz(value, 28)

    def test_empty_input_raises(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            leading_zero_counter(b, b.input_bus(0))

