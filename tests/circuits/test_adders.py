"""Tests for integer adder generators (all architectures)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import (
    ADDER_ARCHITECTURES,
    build_int_adder,
    subtractor,
)
from repro.circuits.builder import CircuitBuilder

ARCHS = sorted(ADDER_ARCHITECTURES)


def run_adder(netlist, a, b, width):
    bits = [(a >> i) & 1 for i in range(width)]
    bits += [(b >> i) & 1 for i in range(width)]
    out = netlist.evaluate_outputs(bits)
    total = 0
    for i in range(width):
        total |= out[i] << i
    return total, out[width]


@pytest.fixture(scope="module", params=ARCHS)
def adder8(request):
    return request.param, build_int_adder(8, request.param)


class TestAdderArchitectures:
    def test_exhaustive_small_width(self):
        for arch in ARCHS:
            nl = build_int_adder(3, arch)
            for a in range(8):
                for b in range(8):
                    s, c = run_adder(nl, a, b, 3)
                    assert s == (a + b) & 7, (arch, a, b)
                    assert c == (a + b) >> 3, (arch, a, b)

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_width8_matches_python(self, adder8, a, b):
        arch, nl = adder8
        s, c = run_adder(nl, a, b, 8)
        assert s == (a + b) & 0xFF
        assert c == (a + b) >> 8

    @pytest.mark.parametrize("arch", ARCHS)
    def test_width32_corner_values(self, arch):
        nl = build_int_adder(32, arch)
        mask = (1 << 32) - 1
        cases = [(0, 0), (mask, 1), (mask, mask), (0x80000000, 0x80000000),
                 (0x55555555, 0xAAAAAAAA), (1, mask - 1)]
        for a, b in cases:
            s, c = run_adder(nl, a, b, 32)
            assert s == (a + b) & mask
            assert c == (a + b) >> 32

    def test_unknown_architecture_raises(self):
        with pytest.raises(ValueError):
            build_int_adder(8, "kogge-stone")

    def test_architectures_have_different_structure(self):
        ripple = build_int_adder(32, "ripple")
        cla = build_int_adder(32, "cla")
        assert ripple.depth() > cla.depth()


class TestSubtractor:
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_subtract_matches_python(self, a, b):
        bld = CircuitBuilder()
        ba = bld.input_bus(8, "a")
        bb = bld.input_bus(8, "b")
        diff, no_borrow = subtractor(bld, ba, bb)
        bld.mark_output_bus(diff)
        bld.netlist.mark_output(no_borrow)
        nl = bld.build()
        bits = [(a >> i) & 1 for i in range(8)] + [(b >> i) & 1 for i in range(8)]
        out = nl.evaluate_outputs(bits)
        got = sum(out[i] << i for i in range(8))
        assert got == (a - b) & 0xFF
        assert out[8] == (1 if a >= b else 0)


def test_width_mismatch_raises():
    bld = CircuitBuilder()
    with pytest.raises(ValueError):
        from repro.circuits.adders import ripple_carry_adder
        ripple_carry_adder(bld, bld.input_bus(4), bld.input_bus(5))
