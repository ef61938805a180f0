"""Tests for the cell library and STA."""

import numpy as np
import pytest

from repro.circuits.adders import build_int_adder
from repro.circuits.functional_units import (
    available_units,
    build_functional_unit,
)
from repro.circuits import PAPER_UNITS
from repro.circuits.netlist import GateType, Netlist
from repro.timing.cells import (
    DEFAULT_CELL_TIMINGS,
    DEFAULT_LIBRARY,
    CellLibrary,
    CellTiming,
)
from repro.timing.corners import OperatingCondition, paper_corner_grid
from repro.timing.sta import run_sta, run_sta_corners, static_delay


@pytest.fixture(scope="module")
def adder():
    return build_int_adder(8)


class TestCellLibrary:
    def test_every_gate_type_has_timing(self):
        for gtype in GateType:
            assert gtype in DEFAULT_LIBRARY.timings

    def test_cell_delay_nominal(self):
        d = DEFAULT_LIBRARY.cell_delay(GateType.NAND2, fanout=1)
        timing = DEFAULT_LIBRARY.timings[GateType.NAND2]
        assert d == pytest.approx(timing.intrinsic + timing.load)

    def test_fanout_increases_delay(self):
        lib = DEFAULT_LIBRARY
        assert lib.cell_delay(GateType.NAND2, 4) > lib.cell_delay(GateType.NAND2, 1)

    def test_condition_derates(self):
        lib = DEFAULT_LIBRARY
        slow = lib.cell_delay(GateType.NAND2, 1, OperatingCondition(0.81, 0))
        assert slow > lib.cell_delay(GateType.NAND2, 1)

    def test_gate_delays_vector(self, adder):
        delays = DEFAULT_LIBRARY.gate_delays(adder)
        assert delays.shape == (len(adder.gates),)
        assert np.all(delays >= 0)

    def test_scaling_not_uniform_across_cell_types(self):
        """Per-cell Vth offsets: XOR derates more than NOT at low V."""
        lib = DEFAULT_LIBRARY
        cond = OperatingCondition(0.81, 0)
        xor_ratio = (lib.cell_delay(GateType.XOR2, 1, cond)
                     / lib.cell_delay(GateType.XOR2, 1))
        not_ratio = (lib.cell_delay(GateType.NOT, 1, cond)
                     / lib.cell_delay(GateType.NOT, 1))
        assert xor_ratio > not_ratio * 1.01

    def test_delay_matrix_shape(self, adder):
        conds = [OperatingCondition(0.81, 0), OperatingCondition(1.0, 25)]
        m = DEFAULT_LIBRARY.delay_matrix(adder, conds)
        assert m.shape == (2, len(adder.gates))

    def test_missing_cell_type_raises(self, adder):
        lib = CellLibrary(timings={GateType.CONST0: CellTiming(0, 0)})
        with pytest.raises(KeyError):
            lib.gate_delays(adder)


def _per_gate_matrix(library, netlist, conditions):
    """Reference: one ``cell_delay`` call per gate per condition."""
    fanout = netlist.fanout_counts()
    return np.array([[library.cell_delay(g.gtype, fanout[g.output], c)
                      for g in netlist.gates] for c in conditions],
                    dtype=np.float64)


class TestDelayMatrixParity:
    """The vectorized matrix equals the per-gate ``cell_delay`` values
    bit for bit."""

    @pytest.mark.parametrize("name", available_units())
    def test_every_fu_on_the_table1_grid(self, name):
        netlist = build_functional_unit(name).netlist
        grid = paper_corner_grid()
        matrix = DEFAULT_LIBRARY.delay_matrix(netlist, grid)
        expected = _per_gate_matrix(DEFAULT_LIBRARY, netlist, grid)
        assert matrix.shape == (len(grid), len(netlist.gates))
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", available_units())
    def test_nominal_condition(self, name):
        netlist = build_functional_unit(name).netlist
        matrix = DEFAULT_LIBRARY.delay_matrix(netlist, [None])
        expected = _per_gate_matrix(DEFAULT_LIBRARY, netlist, [None])
        assert matrix.tobytes() == expected.tobytes()

    def test_gate_delays_is_a_one_corner_matrix(self, adder):
        for cond in (None, OperatingCondition(0.81, 0),
                     OperatingCondition(1.0, 125)):
            row = DEFAULT_LIBRARY.delay_matrix(adder, [cond])[0]
            assert DEFAULT_LIBRARY.gate_delays(adder, cond).tobytes() \
                == row.tobytes()

    def test_key_order_and_unused_types_do_not_matter(self, adder):
        """A library listing the adder's cells in another order, plus a
        type the adder never uses, gives the same bits."""
        used = {g.gtype for g in adder.gates}
        unused = next(t for t in DEFAULT_CELL_TIMINGS if t not in used)
        order = [unused] + sorted(used, key=lambda t: t.value,
                                  reverse=True)
        lib = CellLibrary(timings={t: DEFAULT_CELL_TIMINGS[t]
                                   for t in order})
        assert list(lib.timings) != list(DEFAULT_CELL_TIMINGS)
        grid = paper_corner_grid()
        matrix = lib.delay_matrix(adder, grid)
        assert matrix.tobytes() == \
            _per_gate_matrix(lib, adder, grid).tobytes()
        assert matrix.tobytes() == \
            DEFAULT_LIBRARY.delay_matrix(adder, grid).tobytes()

    def test_missing_cell_type_raises_key_error(self, adder):
        lib = CellLibrary(timings={GateType.CONST0: CellTiming(0, 0)})
        with pytest.raises(KeyError, match="no timing for cell type"):
            lib.delay_matrix(adder, [OperatingCondition(0.9, 25)])

    def test_sub_threshold_corner_raises_value_error(self, adder):
        with pytest.raises(ValueError, match="at or below threshold"):
            DEFAULT_LIBRARY.delay_matrix(
                adder, [OperatingCondition(0.9, 25),
                        OperatingCondition(0.4, 25)])

    def test_empty_condition_list_raises(self, adder):
        with pytest.raises(ValueError,
                           match="need at least one operating condition"):
            DEFAULT_LIBRARY.delay_matrix(adder, [])



class TestSTA:
    def test_critical_delay_positive(self, adder):
        assert static_delay(adder) > 0

    def test_critical_path_is_connected(self, adder):
        result = run_sta(adder)
        path = result.critical_path
        assert len(path) >= 2
        driver = adder.driver_of()
        for upstream, downstream in zip(path, path[1:]):
            gate = driver[downstream]
            assert upstream in gate.inputs

    def test_critical_path_starts_at_input_or_const(self, adder):
        result = run_sta(adder)
        first = result.critical_path[0]
        driver = adder.driver_of()
        assert first in adder.primary_inputs or not driver[first].inputs

    def test_arrival_monotone_along_path(self, adder):
        result = run_sta(adder)
        arr = [result.arrival[n] for n in result.critical_path]
        assert all(b >= a for a, b in zip(arr, arr[1:]))

    def test_low_voltage_increases_static_delay(self, adder):
        slow = static_delay(adder, OperatingCondition(0.81, 0))
        fast = static_delay(adder, OperatingCondition(1.00, 25))
        assert slow > fast * 1.2

    def test_error_free_clock_alias(self, adder):
        result = run_sta(adder)
        assert result.error_free_clock == result.critical_delay

    def test_precomputed_delays_override(self, adder):
        ones = np.ones(len(adder.gates))
        result = run_sta(adder, gate_delays=ones)
        assert result.critical_delay == pytest.approx(adder.depth(), abs=1e-9)

    @pytest.mark.parametrize("cond", [OperatingCondition(0.81, 100),
                                      OperatingCondition(0.85, 75),
                                      OperatingCondition(1.00, 0)],
                             ids=lambda c: c.label)
    def test_delay_vector_matches_condition(self, adder, cond):
        # the in-memory per-gate vector stands in for a per-corner SDF
        via_vector = run_sta(
            adder, gate_delays=DEFAULT_LIBRARY.gate_delays(adder, cond))
        direct = run_sta(adder, cond)
        assert via_vector.arrival.tobytes() == direct.arrival.tobytes()
        assert via_vector.critical_path == direct.critical_path
        assert via_vector.critical_delay == direct.critical_delay

    def test_wrong_delay_count_raises(self, adder):
        with pytest.raises(ValueError):
            run_sta(adder, gate_delays=np.ones(3))

    def test_empty_netlist(self):
        from repro.circuits.netlist import Netlist

        result = run_sta(Netlist())
        assert result.critical_delay == 0.0


def _per_gate_sta(netlist, gate_delays):
    """The per-gate STA walk, one corner: the reference the level-wise
    multi-corner pass must reproduce exactly."""
    arrival = np.zeros(netlist.n_nets, dtype=np.float64)
    worst_pred = np.full(netlist.n_nets, -1, dtype=np.int64)
    for idx, gate in enumerate(netlist.gates):
        if gate.inputs:
            in_arrivals = [arrival[i] for i in gate.inputs]
            worst = int(np.argmax(in_arrivals))
            arrival[gate.output] = in_arrivals[worst] + gate_delays[idx]
            worst_pred[gate.output] = gate.inputs[worst]
        else:
            arrival[gate.output] = 0.0  # constants are always stable
    po_arrivals = [arrival[o] for o in netlist.primary_outputs]
    net = netlist.primary_outputs[int(np.argmax(po_arrivals))]
    critical_delay = float(arrival[net])
    path = []
    while net != -1:
        path.append(net)
        net = int(worst_pred[net])
    return arrival, path[::-1], critical_delay


class TestMultiCornerSTA:
    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_matches_per_gate_walk_on_table1_grid(self, fu_name):
        netlist = build_functional_unit(fu_name).netlist
        grid = paper_corner_grid()
        results = run_sta_corners(netlist, grid)
        assert [r.condition for r in results] == grid
        for cond, result in zip(grid, results):
            arrival, path, delay = _per_gate_sta(
                netlist, DEFAULT_LIBRARY.gate_delays(netlist, cond))
            assert result.arrival.tobytes() == arrival.tobytes(), cond
            assert result.critical_path == path, cond
            assert result.critical_delay == delay, cond

    def test_ties_take_the_first_pin(self):
        # equal-delay reconvergence: both fanins of the XOR arrive at
        # the same time, and the path must follow pin 0 as the walk does
        netlist = Netlist(name="tie")
        a, c = netlist.add_input("a"), netlist.add_input("c")
        x = netlist.add_gate(GateType.XOR2, [
            netlist.add_gate(GateType.NOT, [a]),
            netlist.add_gate(GateType.NOT, [c])])
        netlist.primary_outputs.append(x)
        ones = np.ones((2, len(netlist.gates)))
        for result in run_sta_corners(netlist, [None, None],
                                      gate_delays=ones):
            _, path, delay = _per_gate_sta(netlist, ones[0])
            assert result.critical_path == path
            assert result.critical_delay == delay == 2.0

    def test_constants_arrive_at_zero(self):
        netlist = Netlist(name="const")
        a = netlist.add_input("a")
        one = netlist.add_gate(GateType.CONST1, [])
        netlist.primary_outputs.append(
            netlist.add_gate(GateType.AND2, [a, one]))
        result = run_sta_corners(netlist, [OperatingCondition(0.9, 25)])[0]
        arrival, path, delay = _per_gate_sta(
            netlist, DEFAULT_LIBRARY.gate_delays(
                netlist, OperatingCondition(0.9, 25)))
        assert result.arrival.tobytes() == arrival.tobytes()
        assert result.critical_path == path

    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_low_voltage_corner_is_slower(self, fu_name):
        netlist = build_functional_unit(fu_name).netlist
        slow, fast = run_sta_corners(netlist, [OperatingCondition(0.81, 25),
                                               OperatingCondition(1.00, 25)])
        assert slow.critical_delay > fast.critical_delay > 0

    def test_static_delay_matches_corner_pass(self, adder):
        conds = [OperatingCondition(0.81, 0), OperatingCondition(0.9, 50),
                 OperatingCondition(1.0, 100)]
        results = run_sta_corners(adder, conds)
        for cond, result in zip(conds, results):
            assert static_delay(adder, cond) == result.critical_delay, cond

    def test_explicit_delay_matrix_matches_library(self, adder):
        conds = [OperatingCondition(0.81, 100), OperatingCondition(1.0, 0)]
        given = run_sta_corners(
            adder, conds,
            gate_delays=DEFAULT_LIBRARY.delay_matrix(adder, conds))
        for got, want in zip(given, run_sta_corners(adder, conds)):
            assert got.condition == want.condition
            assert got.arrival.tobytes() == want.arrival.tobytes()
            assert got.critical_path == want.critical_path

    def test_no_conditions_no_results(self, adder):
        assert run_sta_corners(adder, []) == []

    def test_delay_matrix_shape_checked(self, adder):
        with pytest.raises(ValueError):
            run_sta_corners(adder, [None, None],
                            gate_delays=np.ones((1, len(adder.gates))))

