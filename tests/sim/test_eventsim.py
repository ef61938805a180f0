"""Unit tests for the event-driven simulator and cross-validation
against the levelized engine."""

import numpy as np
import pytest

from repro.circuits.adders import build_int_adder
from repro.circuits.builder import CircuitBuilder
from repro.circuits.netlist import GateType, Netlist
from repro.sim.eventsim import EventDrivenSimulator
from repro.sim.levelized import LevelizedSimulator
from repro.timing import DEFAULT_LIBRARY, OperatingCondition, run_sta


@pytest.fixture(scope="module")
def adder8():
    nl = build_int_adder(8)
    delays = DEFAULT_LIBRARY.gate_delays(nl)
    return nl, EventDrivenSimulator(nl, delays), delays


def encode(a, b, width=8):
    return [(a >> i) & 1 for i in range(width)] + \
           [(b >> i) & 1 for i in range(width)]


class TestSingleCycle:
    def test_settle_matches_zero_delay_eval(self, adder8):
        nl, sim, _ = adder8
        state = sim.settle(encode(100, 55))
        want = nl.evaluate(dict(zip(nl.primary_inputs, encode(100, 55))))
        for net, value in want.items():
            assert state[net] == value

    def test_functional_result_after_cycle(self, adder8):
        nl, sim, _ = adder8
        state = sim.settle(encode(0, 0))
        state, _, __ = sim.run_cycle(state, encode(77, 88))
        got = sum(state[nl.primary_outputs[i]] << i for i in range(8))
        assert got == (77 + 88) & 0xFF

    def test_no_input_change_no_events(self, adder8):
        _, sim, __ = adder8
        state = sim.settle(encode(5, 6))
        _, delay, n_events = sim.run_cycle(state, encode(5, 6))
        assert delay == 0.0
        assert n_events == 0

    def test_delay_bounded_by_static_path(self, adder8):
        nl, sim, delays = adder8
        static = run_sta(nl, gate_delays=delays).critical_delay
        rng = np.random.default_rng(0)
        state = sim.settle(encode(0, 0))
        for _ in range(50):
            a, b = rng.integers(0, 256, 2)
            state, delay, _ = sim.run_cycle(state, encode(int(a), int(b)))
            assert 0.0 <= delay <= static + 1e-6


class TestTrace:
    def test_trace_outputs_match_functional(self, adder8):
        nl, sim, _ = adder8
        rng = np.random.default_rng(1)
        ops = rng.integers(0, 256, size=(21, 2))
        rows = np.array([encode(int(a), int(b)) for a, b in ops],
                        dtype=np.uint8)
        res = sim.run_trace(rows)
        for t in range(20):
            a, b = int(ops[t + 1, 0]), int(ops[t + 1, 1])
            got = sum(int(res.outputs[t, i]) << i for i in range(8))
            assert got == (a + b) & 0xFF

    def test_event_counts_positive_when_inputs_change(self, adder8):
        _, sim, __ = adder8
        rows = np.array([encode(0, 0), encode(255, 255)], dtype=np.uint8)
        res = sim.run_trace(rows)
        assert res.event_counts[0] > 0


class TestExactTiming:
    """Hand-built netlists whose per-cycle delays and event counts
    follow from the transport-delay semantics alone."""

    @pytest.mark.parametrize("length", [1, 3, 8])
    def test_inverter_chain_delay_is_path_sum(self, length):
        nl = Netlist(name="chain")
        net = nl.add_input("a")
        for _ in range(length):
            net = nl.add_gate(GateType.NOT, [net])
        nl.mark_output(net, "y")
        delays = [10.0 * (k + 1) for k in range(length)]
        rows = np.array([[0], [1], [1], [0]], dtype=np.uint8)
        res = EventDrivenSimulator(nl, delays).run_trace(rows)
        path = sum(delays)
        assert res.delays.tolist() == [path, 0.0, path]
        assert res.event_counts.tolist() == [length + 1, 0, length + 1]
        assert res.outputs[:, 0].tolist() == [
            bit ^ (length % 2) for bit in (1, 1, 0)]

    def test_glitch_pulse_sets_the_delay(self):
        # y = a XOR buf(a) is constant 0, but a toggle on a reaches the
        # XOR 30 ps before the buffered copy: a 10..40 ps pulse on y
        nl = Netlist(name="pulse")
        a = nl.add_input("a")
        nl.mark_output(nl.add_gate(GateType.XOR2,
                                   [a, nl.add_gate(GateType.BUF, [a])]), "y")
        res = EventDrivenSimulator(nl, [30.0, 10.0]).run_trace(
            np.array([[0], [1]], dtype=np.uint8))
        assert res.delays.tolist() == [40.0]
        assert res.event_counts.tolist() == [4]  # a, y rise, buf, y fall
        assert res.outputs.tolist() == [[0]]

    def test_masked_transition_fires_no_output_event(self):
        # a rises while b falls: OR2 re-evaluates to its current 1 twice,
        # and both redundant schedules are dropped
        nl = Netlist(name="masked")
        a, b = nl.add_input("a"), nl.add_input("b")
        nl.mark_output(nl.add_gate(GateType.OR2, [a, b]), "y")
        res = EventDrivenSimulator(nl, [10.0]).run_trace(
            np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert res.delays.tolist() == [0.0]
        assert res.event_counts.tolist() == [2]

    @pytest.mark.parametrize("cond", [OperatingCondition(0.81, 0),
                                      OperatingCondition(0.85, 50),
                                      OperatingCondition(1.00, 100)],
                             ids=lambda c: c.label)
    def test_corner_delays_bounded_by_corner_sta(self, cond):
        nl = build_int_adder(8)
        delays = DEFAULT_LIBRARY.gate_delays(nl, cond)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(25, 16)).astype(np.uint8)
        got = EventDrivenSimulator(nl, delays).run_trace(rows).delays
        static = run_sta(nl, cond).critical_delay
        assert np.all(got <= static + 1e-6)
        assert got.max() > 0.0


class TestCrossValidation:
    """On fanout-free logic every toggling input produces exactly one
    transition per downstream net, so the engines must agree exactly;
    on reconvergent logic (adders) the event engine additionally sees
    glitch trains, so agreement is statistical."""

    def test_xor_chain_agrees_exactly(self):
        b = CircuitBuilder(name="parity_chain")
        bits = b.input_bus(12)
        acc = bits[0]
        for bit in bits[1:]:
            acc = b.xor_(acc, bit)
        b.netlist.mark_output(acc, "parity")
        nl = b.build()
        delays = DEFAULT_LIBRARY.gate_delays(nl)
        rng = np.random.default_rng(2)
        rows = [rng.integers(0, 2, 12).astype(np.uint8)]
        for _ in range(40):
            nxt = rows[-1].copy()
            nxt[rng.integers(0, 12)] ^= 1  # one flip -> no reconvergence
            rows.append(nxt)
        rows = np.stack(rows)
        ev = EventDrivenSimulator(nl, delays).run_trace(rows)
        lv = LevelizedSimulator(nl).run(rows, delays)
        np.testing.assert_allclose(lv[0], ev.delays, rtol=1e-5)

    def test_adder_engines_strongly_correlated(self, adder8):
        nl, event_sim, delays = adder8
        lev = LevelizedSimulator(nl)
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 2, size=(200, 16)).astype(np.uint8)
        ev = event_sim.run_trace(rows).delays
        lv = lev.run(rows, delays)[0]
        # random vectors toggle most inputs, so the event engine sees
        # glitch trains the graph-based engine ignores: expect positive
        # but imperfect correlation, and glitches only ADD delay on
        # average.
        corr = np.corrcoef(ev, lv)[0, 1]
        assert corr > 0.2
        assert lv.mean() <= ev.mean() * 1.1

    def test_random_vectors_levelized_is_glitch_blind(self, adder8):
        """With arbitrary input changes the event engine sees glitch
        trains the levelized engine ignores, so event >= levelized is
        NOT guaranteed either way; but both must stay within the static
        bound and agree on which cycles are completely quiet."""
        nl, event_sim, delays = adder8
        lev = LevelizedSimulator(nl)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2, size=(60, 16)).astype(np.uint8)
        ev = event_sim.run_trace(rows)
        lv = lev.run(rows, delays)
        static = run_sta(nl, gate_delays=delays).critical_delay
        assert np.all(ev.delays <= static + 1e-6)
        assert np.all(lv[0] <= static + 1e-3)
        quiet_ev = ev.delays == 0.0
        quiet_lv = lv[0] == 0.0
        # a quiet cycle for the event engine is quiet for levelized too
        assert np.all(~quiet_ev | quiet_lv)


class TestValidation:
    def test_wrong_delay_count_raises(self):
        nl = build_int_adder(4)
        with pytest.raises(ValueError):
            EventDrivenSimulator(nl, [1.0, 2.0])

    def test_wrong_input_width_raises(self, adder8):
        _, sim, __ = adder8
        with pytest.raises(ValueError):
            sim.run_trace(np.zeros((3, 15), dtype=np.uint8))

    def test_single_row_raises(self, adder8):
        _, sim, __ = adder8
        with pytest.raises(ValueError):
            sim.run_trace(np.zeros((1, 16), dtype=np.uint8))

    def test_one_dimensional_input_raises(self, adder8):
        _, sim, __ = adder8
        with pytest.raises(ValueError):
            sim.run_trace(np.zeros(16, dtype=np.uint8))
