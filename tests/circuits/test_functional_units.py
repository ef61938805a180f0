"""Tests for the FunctionalUnit registry and operand packing."""

import numpy as np
import pytest

from repro.circuits.functional_units import (
    PAPER_UNITS,
    available_units,
    build_functional_unit,
)


class TestRegistry:
    def test_paper_units_all_registered(self):
        for name in PAPER_UNITS:
            assert name in available_units()

    def test_unknown_unit_raises(self):
        with pytest.raises(ValueError):
            build_functional_unit("div")

    def test_int_add_architecture_kwarg(self):
        ripple = build_functional_unit("int_add", architecture="ripple")
        cla = build_functional_unit("int_add", architecture="cla")
        assert ripple.netlist.depth() != cla.netlist.depth()

    def test_narrow_width_kwarg(self):
        fu = build_functional_unit("int_add", width=8)
        assert fu.operand_width == 8
        assert fu.compute(200, 100) == (300 & 0xFF)


class TestOperandPacking:
    @pytest.fixture(scope="class")
    def fu(self):
        return build_functional_unit("int_add", width=8)

    def test_encode_inputs_lsb_first(self, fu):
        bits = fu.encode_inputs(0b1, 0b10)
        assert bits[0] == 1 and sum(bits[:8]) == 1
        assert bits[9] == 1 and sum(bits[8:]) == 1

    def test_encode_masks_overflow(self, fu):
        assert fu.encode_inputs(1 << 8, 0) == [0] * 16

    def test_encode_array_matches_scalar(self, fu):
        a = np.array([3, 255, 0, 170], dtype=np.uint64)
        b = np.array([7, 1, 0, 85], dtype=np.uint64)
        mat = fu.encode_inputs_array(a, b)
        assert mat.shape == (4, 16)
        for row, (ai, bi) in enumerate(zip(a, b)):
            assert list(mat[row]) == fu.encode_inputs(int(ai), int(bi))

    def test_decode_result_roundtrip(self, fu):
        out_bits = [(123 >> i) & 1 for i in range(8)]
        assert fu.decode_result(out_bits) == 123


class TestSoftwareEvaluation:
    @pytest.mark.parametrize("name", PAPER_UNITS)
    def test_simulate_logic_matches_reference(self, name):
        import random

        fu = build_functional_unit(name)
        random.seed(hash(name) % (2**32))
        n = 20 if name.startswith("fp") else 30
        for _ in range(n):
            a, b = random.getrandbits(32), random.getrandbits(32)
            assert fu.simulate_logic(a, b) == fu.compute(a, b)

    def test_wrong_input_count_validated(self):
        from repro.circuits.adders import build_int_adder
        from repro.circuits.functional_units import FunctionalUnit

        with pytest.raises(ValueError):
            FunctionalUnit(
                name="bad",
                netlist=build_int_adder(8),
                operand_width=16,  # netlist only has 16 input bits total
                result_width=16,
                reference=lambda a, b: 0,
            )


class TestNetlistMemo:
    def test_stats_match_the_netlist(self):
        fu = build_functional_unit("int_add", width=8)
        assert fu.stats() == fu.netlist.stats()
        assert fu.stats() == fu.netlist.stats()  # the memoized read

    def test_stats_copy_cannot_corrupt_the_memo(self):
        fu = build_functional_unit("int_add", width=8)
        fu.stats()["gates"] = -1
        assert fu.stats() == fu.netlist.stats()

    def test_fingerprint_is_the_netlist_pickle(self):
        import hashlib
        import pickle

        fu = build_functional_unit("int_add", width=8)
        key, blob = fu.netlist_fingerprint()
        assert blob == pickle.dumps(fu.netlist,
                                    protocol=pickle.HIGHEST_PROTOCOL)
        assert key == hashlib.sha1(blob).hexdigest()
        assert fu.netlist_fingerprint() is fu.netlist_fingerprint()

    def test_memo_ignored_by_equality_and_repr(self):
        a = build_functional_unit("int_add", width=8)
        b = build_functional_unit("int_add", width=8)
        b.reference = a.reference
        a.stats()
        a.netlist_fingerprint()
        assert "_fingerprint" not in repr(a)
        assert a == b
