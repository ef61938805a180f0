"""Unit + property tests for the levelized DTA simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_functional_unit
from repro.circuits.adders import build_int_adder
from repro.sim.levelized import LevelizedSimulator
from repro.timing import DEFAULT_LIBRARY, OperatingCondition, run_sta


@pytest.fixture(scope="module")
def adder8():
    nl = build_int_adder(8)
    return nl, LevelizedSimulator(nl), DEFAULT_LIBRARY.gate_delays(nl)


def encode(a, b, width=8):
    return [(a >> i) & 1 for i in range(width)] + \
           [(b >> i) & 1 for i in range(width)]


class TestValues:
    def test_run_values_matches_scalar_eval(self, adder8):
        nl, sim, _ = adder8
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(20, 16)).astype(np.uint8)
        got = sim.run_values(rows)
        for r in range(rows.shape[0]):
            want = nl.evaluate_outputs(list(rows[r]))
            assert list(got[r]) == want


class TestDelays:
    def test_identical_consecutive_inputs_give_zero_delay(self, adder8):
        _, sim, delays = adder8
        row = np.array(encode(123, 45), dtype=np.uint8)
        rows = np.stack([row, row, row])
        res = sim.run(rows, delays)
        assert np.all(res == 0.0)

    def test_delays_nonnegative_and_bounded_by_sta(self, adder8):
        nl, sim, delays = adder8
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 2, size=(100, 16)).astype(np.uint8)
        res = sim.run(rows, delays)
        static = run_sta(nl, gate_delays=delays).critical_delay
        assert np.all(res >= 0.0)
        assert np.all(res <= static + 1e-3)

    def test_some_cycle_sensitizes_long_path(self, adder8):
        """The full carry chain: 0xFF + 0x01 after 0xFF + 0x00."""
        nl, sim, delays = adder8
        rows = np.array([encode(0xFF, 0), encode(0xFF, 1)], dtype=np.uint8)
        res = sim.run(rows, delays)
        static = run_sta(nl, gate_delays=delays).critical_delay
        # carry ripples the entire width: delay close to the static path
        assert res[0, 0] > 0.6 * static

    def test_multi_corner_rows_match_single_corner_runs(self, adder8):
        nl, sim, _ = adder8
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2, size=(30, 16)).astype(np.uint8)
        conds = [OperatingCondition(0.81, 0), OperatingCondition(1.0, 100)]
        matrix = DEFAULT_LIBRARY.delay_matrix(nl, conds)
        multi = sim.run(rows, matrix)
        for k, cond in enumerate(conds):
            single = sim.run(rows, DEFAULT_LIBRARY.gate_delays(nl, cond))
            np.testing.assert_allclose(multi[k], single[0],
                                       rtol=1e-5)

    def test_chunking_invariant(self, adder8):
        _, sim, delays = adder8
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 2, size=(50, 16)).astype(np.uint8)
        full = sim.run(rows, delays, chunk_cycles=1000)
        small = sim.run(rows, delays, chunk_cycles=7)
        np.testing.assert_allclose(full, small, rtol=1e-6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_lower_voltage_never_speeds_up(self, adder8, seed):
        nl, sim, _ = adder8
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, size=(10, 16)).astype(np.uint8)
        slow = OperatingCondition(0.81, 25)
        fast = OperatingCondition(1.00, 25)
        matrix = DEFAULT_LIBRARY.delay_matrix(nl, [slow, fast])
        res = sim.run(rows, matrix)
        assert np.all(res[0] >= res[1] - 1e-4)


class TestValidation:
    def test_bad_input_width_raises(self, adder8):
        _, sim, delays = adder8
        with pytest.raises(ValueError):
            sim.run(np.zeros((5, 3), dtype=np.uint8), delays)

    def test_single_row_raises(self, adder8):
        _, sim, delays = adder8
        with pytest.raises(ValueError):
            sim.run(np.zeros((1, 16), dtype=np.uint8), delays)

    def test_bad_delay_length_raises(self, adder8):
        _, sim, _ = adder8
        with pytest.raises(ValueError):
            sim.run(np.zeros((3, 16), dtype=np.uint8), np.ones(3))


class TestHistorySensitivity:
    """The paper's Sec. IV-B experiment: D[t] is a function of
    (x[t-1], x[t]) — fixing both fixes the delay; varying the
    *previous* input alone changes the delay."""

    def test_fixed_pair_fixes_delay(self):
        fu = build_functional_unit("int_add", width=16)
        sim = LevelizedSimulator(fu.netlist)
        delays = DEFAULT_LIBRARY.gate_delays(fu.netlist)
        prev = np.array(fu.encode_inputs(0x1234, 0x9876), dtype=np.uint8)
        curr = np.array(fu.encode_inputs(0xFFFF, 0x0001), dtype=np.uint8)
        # repeat the same (prev, curr) pair many times
        rows = np.stack([prev, curr] * 5)
        res = sim.run(rows, delays)
        d = res[0, ::2]  # every prev->curr transition
        assert np.allclose(d, d[0])

    def test_varying_history_changes_delay(self):
        fu = build_functional_unit("int_add", width=16)
        sim = LevelizedSimulator(fu.netlist)
        delays = DEFAULT_LIBRARY.gate_delays(fu.netlist)
        rng = np.random.default_rng(7)
        curr = np.array(fu.encode_inputs(0xFFFF, 0x0001), dtype=np.uint8)
        observed = set()
        for _ in range(12):
            a, b = rng.integers(0, 2**16, 2)
            prev = np.array(fu.encode_inputs(int(a), int(b)), dtype=np.uint8)
            res = sim.run(np.stack([prev, curr]), delays)
            observed.add(round(float(res[0, 0]), 3))
        # same current input, different histories -> different delays
        assert len(observed) > 3
