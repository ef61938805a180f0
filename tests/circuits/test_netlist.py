"""Unit tests for the netlist core."""

import pytest

from repro.circuits.netlist import (
    GATE_ARITY,
    Gate,
    GateType,
    Netlist,
    NetlistError,
    evaluate_gate,
)

TWO_INPUT_TRUTH = {
    GateType.AND2: lambda a, b: a & b,
    GateType.OR2: lambda a, b: a | b,
    GateType.NAND2: lambda a, b: 1 - (a & b),
    GateType.NOR2: lambda a, b: 1 - (a | b),
    GateType.XOR2: lambda a, b: a ^ b,
    GateType.XNOR2: lambda a, b: 1 - (a ^ b),
}


class TestEvaluateGate:
    @pytest.mark.parametrize("gtype", sorted(TWO_INPUT_TRUTH, key=str))
    def test_two_input_truth_tables(self, gtype):
        fn = TWO_INPUT_TRUTH[gtype]
        for a in (0, 1):
            for b in (0, 1):
                assert evaluate_gate(gtype, [a, b]) == fn(a, b)

    def test_unary_gates(self):
        assert evaluate_gate(GateType.BUF, [0]) == 0
        assert evaluate_gate(GateType.BUF, [1]) == 1
        assert evaluate_gate(GateType.NOT, [0]) == 1
        assert evaluate_gate(GateType.NOT, [1]) == 0

    def test_constants(self):
        assert evaluate_gate(GateType.CONST0, []) == 0
        assert evaluate_gate(GateType.CONST1, []) == 1

    def test_mux_selects_second_input_when_sel_high(self):
        for sel in (0, 1):
            for d0 in (0, 1):
                for d1 in (0, 1):
                    expect = d1 if sel else d0
                    assert evaluate_gate(GateType.MUX2, [sel, d0, d1]) == expect

    def test_every_gate_type_has_arity(self):
        assert set(GATE_ARITY) == set(GateType)


class TestGate:
    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            Gate(GateType.AND2, (0,), 1)

    def test_gate_is_frozen(self):
        g = Gate(GateType.NOT, (0,), 1)
        with pytest.raises(AttributeError):
            g.output = 5


class TestNetlistConstruction:
    def test_add_input_and_gate(self):
        nl = Netlist(name="t")
        a = nl.add_input("a")
        b = nl.add_input("b")
        out = nl.add_gate(GateType.AND2, (a, b))
        nl.mark_output(out)
        nl.validate()
        assert nl.n_gates == 1
        assert nl.n_nets == 3
        assert nl.primary_inputs == [a, b]
        assert nl.primary_outputs == [out]

    def test_gate_referencing_unknown_net_raises(self):
        nl = Netlist()
        with pytest.raises(NetlistError):
            nl.add_gate(GateType.NOT, (7,))

    def test_mark_output_unknown_net_raises(self):
        nl = Netlist()
        with pytest.raises(NetlistError):
            nl.mark_output(3)

    def test_floating_net_fails_validation(self):
        nl = Netlist()
        nl.new_net()  # never driven, not an input
        with pytest.raises(NetlistError):
            nl.validate()

    def test_multiple_drivers_fails_validation(self):
        nl = Netlist()
        a = nl.add_input()
        out = nl.add_gate(GateType.BUF, (a,))
        nl.gates.append(Gate(GateType.NOT, (a,), out))
        with pytest.raises(NetlistError):
            nl.validate()


class TestNetlistEvaluate:
    def _xor_netlist(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        out = nl.add_gate(GateType.XOR2, (a, b))
        nl.mark_output(out)
        return nl, a, b

    def test_evaluate_full_truth_table(self):
        nl, a, b = self._xor_netlist()
        for va in (0, 1):
            for vb in (0, 1):
                values = nl.evaluate({a: va, b: vb})
                assert values[nl.primary_outputs[0]] == va ^ vb

    def test_evaluate_outputs_order(self):
        nl = Netlist()
        a = nl.add_input()
        n1 = nl.add_gate(GateType.NOT, (a,))
        n2 = nl.add_gate(GateType.BUF, (a,))
        nl.mark_output(n1)
        nl.mark_output(n2)
        assert nl.evaluate_outputs([0]) == [1, 0]
        assert nl.evaluate_outputs([1]) == [0, 1]

    def test_missing_input_raises(self):
        nl, a, b = self._xor_netlist()
        with pytest.raises(NetlistError):
            nl.evaluate({a: 1})

    def test_wrong_bit_count_raises(self):
        nl, _, __ = self._xor_netlist()
        with pytest.raises(NetlistError):
            nl.evaluate_outputs([1])


class TestNetlistStructure:
    def test_levelize_and_depth(self):
        nl = Netlist()
        a = nl.add_input()
        b = nl.add_input()
        n1 = nl.add_gate(GateType.AND2, (a, b))   # level 1
        n2 = nl.add_gate(GateType.NOT, (n1,))     # level 2
        n3 = nl.add_gate(GateType.OR2, (n2, a))   # level 3
        nl.mark_output(n3)
        level = nl.levelize()
        assert level[a] == 0 and level[b] == 0
        assert level[n1] == 1 and level[n2] == 2 and level[n3] == 3
        assert nl.depth() == 3

    def test_fanout_counts_include_primary_outputs(self):
        nl = Netlist()
        a = nl.add_input()
        n1 = nl.add_gate(GateType.NOT, (a,))
        n2 = nl.add_gate(GateType.BUF, (n1,))
        nl.mark_output(n1)
        nl.mark_output(n2)
        fo = nl.fanout_counts()
        assert fo[a] == 1
        assert fo[n1] == 2  # drives BUF input + is a primary output
        assert fo[n2] == 1  # primary output load only

    def test_stats_keys(self):
        nl = Netlist()
        a = nl.add_input()
        nl.mark_output(nl.add_gate(GateType.NOT, (a,)))
        stats = nl.stats()
        assert stats == {"nets": 2, "gates": 1, "inputs": 1,
                         "outputs": 1, "depth": 1}

    def test_empty_netlist_depth_zero(self):
        assert Netlist().depth() == 0
