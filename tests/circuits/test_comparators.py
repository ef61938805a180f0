"""Tests for gate-level comparators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.builder import CircuitBuilder
from repro.circuits.comparators import build_comparator, unsigned_compare

_CMP8 = build_comparator(8)


class TestUnsignedCompare:
    def test_exhaustive_small(self):
        nl = build_comparator(3)
        for a in range(8):
            for b in range(8):
                bits = [(a >> i) & 1 for i in range(3)]
                bits += [(b >> i) & 1 for i in range(3)]
                lt, eq, gt = nl.evaluate_outputs(bits)
                assert (lt, eq, gt) == (int(a < b), int(a == b), int(a > b))

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_width8_random(self, a, b):
        bits = [(a >> i) & 1 for i in range(8)]
        bits += [(b >> i) & 1 for i in range(8)]
        lt, eq, gt = _CMP8.evaluate_outputs(bits)
        assert (lt, eq, gt) == (int(a < b), int(a == b), int(a > b))

    def test_onehot_invariant(self):
        # exactly one of lt/eq/gt is set, always
        for a in range(8):
            for b in range(8):
                bits = [(a >> i) & 1 for i in range(3)]
                bits += [(b >> i) & 1 for i in range(3)]
                nl = build_comparator(3)
                assert sum(nl.evaluate_outputs(bits)) == 1


def test_width_mismatch_raises():
    import pytest

    bld = CircuitBuilder()
    with pytest.raises(ValueError):
        unsigned_compare(bld, bld.input_bus(4), bld.input_bus(3))
