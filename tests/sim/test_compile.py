"""Tests for the compiled netlist programs (repro.sim.compile).

The lowering pass and the level-parallel kernels carry the
load-bearing guarantee: whatever the chunking, delays are
bit-identical to the per-gate reference engine.  ``run`` picks the
dense or the toggle-compacted arrival pass from the corner count and
the program's own crossover (``compact_min_corners``), so the parity
tests run at corner counts that fall on either side of the paper
units' crossovers (``KERNEL_CORNERS``), and the 9-corner training grid
also with each pass forced.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.circuits import PAPER_UNITS, build_functional_unit
from repro.circuits.netlist import GATE_ARITY, GateType, Netlist
from repro.sim import compile_netlist, run_delays
from repro.sim.compile import (
    CompiledNetlist,
    KernelBuffers,
    _PROGRAM_CACHE,
    toggle_word_rows,
)
from repro.sim.levelized import LevelizedSimulator
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.timing.corners import paper_corner_grid
from repro.workloads import stream_for_unit

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]
DTA_BACKENDS = ("compiled", "levelized_ref")
GRID = paper_corner_grid()
#: corner counts that exercise both arrival kernels: 5 (``int_mul``'s
#: crossover: compact there, dense on the other units), the training
#: grid's 9 (dense on the adders, compact on the multipliers), 16
#: (compact on ``fp_add`` too) and the full Table-I grid (compact on
#: every unit; the small test netlists take the dense pass below it)
KERNEL_CORNERS = (5, 9, 16, len(GRID))
#: the 9 Fig.-3 corners models are trained on
FIG3 = [OperatingCondition(v, t)
        for v in (0.81, 0.90, 1.00) for t in (0.0, 50.0, 100.0)]


@pytest.fixture
def compact_calls(monkeypatch):
    """One entry per chunk the toggle-compacted pass runs."""
    calls = []
    real = CompiledNetlist._compact_chunk

    def spy(self, bits, delays_t, buffers):
        calls.append(1)
        return real(self, bits, delays_t, buffers)

    monkeypatch.setattr(CompiledNetlist, "_compact_chunk", spy)
    return calls


def _grid(n_corners):
    """``n_corners`` distinct Table-I corners spread over the grid."""
    picks = np.linspace(0, len(GRID) - 1, n_corners).round().astype(int)
    return [GRID[i] for i in picks]


def _ref_delays(netlist, inputs, delays):
    return LevelizedSimulator(netlist).run(inputs, delays)


def _fu_inputs(fu_name, n_cycles, seed=0, **fu_kwargs):
    fu = build_functional_unit(fu_name, **fu_kwargs)
    stream = stream_for_unit(fu_name, n_cycles, seed=seed)
    return fu, stream.bit_matrix(fu)


class TestLowering:
    def test_every_gate_in_exactly_one_group(self):
        fu = build_functional_unit("int_mul", width=8)
        prog = compile_netlist(fu.netlist)
        seen = np.concatenate([g.gate_idx for g in prog.groups])
        assert sorted(seen) == list(range(fu.netlist.n_gates))

    def test_rows_partition_and_groups_are_contiguous(self):
        fu = build_functional_unit("fp_add")
        prog = compile_netlist(fu.netlist)
        # program rows: PIs first, then each group's outputs back-to-back
        cursor = prog.n_inputs
        for g in prog.groups:
            assert (g.start, g.stop) == (cursor, cursor + len(g.gate_idx))
            cursor = g.stop
        assert cursor == prog.n_nets
        assert sorted(prog.net_row) == list(range(prog.n_nets))

    def test_fanins_come_from_lower_rows(self):
        # a fanin row must be settled before its group runs
        fu = build_functional_unit("int_add", width=8)
        prog = compile_netlist(fu.netlist)
        for g in prog.groups:
            assert g.fanin.size == 0 or g.fanin.max() < g.start

    def test_arrival_blocks_cover_live_non_const_gates(self):
        # dead-cone gates (no structural path to a PO) are excluded
        # from the arrival pass — they cannot influence any delay
        fu = build_functional_unit("fp_mul")
        prog = compile_netlist(fu.netlist)
        covered = np.concatenate(
            [b.gate_idx for b in prog.arrival_blocks])
        live = {idx for g in prog.groups if g.live for idx in g.gate_idx}
        n_live_consts = sum(
            1 for g in prog.groups if g.live and g.arity == 0
            for _ in g.gate_idx)
        assert len(covered) == len(live) - n_live_consts
        assert prog.n_arrival_gates == len(covered)
        assert set(covered.tolist()) <= live
        assert len(set(covered.tolist())) == len(covered)
        for b in prog.arrival_blocks:
            assert b.fanin.shape == (b.width, b.stop - b.start)

    def test_levelize_order_respected(self):
        # live groups first (levels ascending), then the dead cone
        # (levels ascending again) — rows below n_live_rows are live
        fu = build_functional_unit("int_mul", width=8)
        prog = compile_netlist(fu.netlist)
        live_flags = [g.live for g in prog.groups]
        assert live_flags == sorted(live_flags, reverse=True)
        n_live = prog.n_live_groups
        live_levels = [g.level for g in prog.groups[:n_live]]
        dead_levels = [g.level for g in prog.groups[n_live:]]
        assert live_levels == sorted(live_levels)
        assert dead_levels == sorted(dead_levels)
        assert prog.n_live_rows == prog.groups[n_live - 1].stop

    def test_live_gates_never_read_dead_rows(self):
        fu = build_functional_unit("int_mul")
        prog = compile_netlist(fu.netlist)
        for g in prog.groups[:prog.n_live_groups]:
            assert g.fanin.size == 0 or g.fanin.max() < prog.n_live_rows
        for b in prog.arrival_blocks:
            assert b.fanin.max() < prog.n_live_rows
            assert b.start >= prog.n_inputs and b.stop <= prog.n_live_rows

    def test_dead_cone_detected_on_int_mul(self):
        # the 32-bit array multiplier carries unused carry/sign cells;
        # they must be segregated, and delays must not change (covered
        # bit-exactly by the parity tests)
        fu = build_functional_unit("int_mul")
        prog = compile_netlist(fu.netlist)
        n_dead = sum(len(g.gate_idx) for g in prog.groups if not g.live)
        assert n_dead > 0
        assert prog.n_live_rows < prog.n_nets


class TestProgramCache:
    def test_same_netlist_same_program(self):
        fu = build_functional_unit("int_add", width=8)
        assert compile_netlist(fu.netlist) is compile_netlist(fu.netlist)

    def test_different_netlists_different_programs(self):
        a = build_functional_unit("int_add", width=8).netlist
        b = build_functional_unit("int_add", width=8).netlist
        assert compile_netlist(a) is not compile_netlist(b)

    def test_cache_evicts_with_netlist(self):
        fu = build_functional_unit("int_add", width=8)
        nl = fu.netlist
        compile_netlist(nl)
        key = id(nl)
        assert key in _PROGRAM_CACHE
        del fu, nl
        gc.collect()
        assert key not in _PROGRAM_CACHE

    def test_backends_share_one_lowering(self):
        # regression: run_delays used to re-validate and re-lower the
        # netlist on every invocation
        fu, inputs = _fu_inputs("int_add", 10, seed=1, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        run_delays("compiled", fu.netlist, inputs, delays)
        prog = compile_netlist(fu.netlist)
        run_delays("compiled", fu.netlist, inputs, delays)
        assert compile_netlist(fu.netlist) is prog


class TestKernelParity:
    @pytest.mark.parametrize("n_corners", (len(CONDS),) + KERNEL_CORNERS)
    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_delays_and_outputs_bit_identical_to_per_gate(self, fu_name,
                                                          n_corners):
        # 130 cycles: three packed words with a ragged tail
        fu, inputs = _fu_inputs(fu_name, 130, seed=6)
        conds = CONDS if n_corners == len(CONDS) else _grid(n_corners)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, conds)
        ref = LevelizedSimulator(fu.netlist).run(inputs, delays)
        for name in DTA_BACKENDS:
            got = run_delays(name, fu.netlist, inputs, delays)
            assert got.tobytes() == ref.tobytes(), name
        np.testing.assert_array_equal(
            compile_netlist(fu.netlist).run_values(inputs),
            LevelizedSimulator(fu.netlist).run_values(inputs))

    @pytest.mark.parametrize("n_corners", (len(CONDS),) + KERNEL_CORNERS)
    def test_chunking_invariance(self, n_corners):
        # chunks of 37, 100 and 200 cycles start off the 64-cycle word
        # grid, so every chunk after the first repacks its inputs
        fu, inputs = _fu_inputs("int_add", 300, seed=8, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist,
                                              _grid(n_corners))
        prog = compile_netlist(fu.netlist)
        whole = prog.run(inputs, delays)
        ref = LevelizedSimulator(fu.netlist).run(inputs, delays)
        assert whole.tobytes() == ref.tobytes()
        for chunk in (1, 37, 64, 100, 200, 1000):
            part = prog.run(inputs, delays, chunk_cycles=chunk)
            assert part.tobytes() == whole.tobytes(), chunk

    @pytest.mark.parametrize("n_corners", (len(CONDS),) + KERNEL_CORNERS)
    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_chunking_invariance_on_paper_units(self, fu_name, n_corners):
        # the chunk is sized by the program itself; any other size,
        # ragged or word-aligned, must give the same bytes
        fu, inputs = _fu_inputs(fu_name, 130, seed=11)
        conds = CONDS if n_corners == len(CONDS) else _grid(n_corners)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, conds)
        prog = compile_netlist(fu.netlist)
        whole = prog.run(inputs, delays)
        for chunk in (7, 64, 100, prog.default_chunk_cycles(n_corners)):
            part = prog.run(inputs, delays, chunk_cycles=chunk)
            assert part.tobytes() == whole.tobytes(), chunk

    @pytest.mark.parametrize("shift,compact", [
        (None, False), (-1, False), (0, True), (len(GRID), True)])
    @pytest.mark.parametrize("fu_name", ("int_add", "int_mul"))
    def test_corner_count_picks_the_kernel(self, compact_calls, fu_name,
                                           shift, compact):
        # one corner, one below the program's crossover, at it, and
        # the full grid (every crossover lies below 100 corners)
        fu, inputs = _fu_inputs(fu_name, 40, seed=17, width=8)
        prog = compile_netlist(fu.netlist)
        n_corners = (1 if shift is None else
                     min(len(GRID), prog.compact_min_corners + shift))
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist,
                                              _grid(n_corners))
        got = prog.run(inputs, delays)
        assert bool(compact_calls) == compact
        assert got.tobytes() == _ref_delays(
            fu.netlist, inputs, delays).tobytes()

    def test_crossover_follows_the_program(self):
        # the multipliers' wide levels amortize the compact pass's
        # dispatch from the 9-corner training grid up; the adders'
        # narrow levels keep the dense pass there, and every unit is
        # compact on the 100-corner Table-I grid
        cross = {name: compile_netlist(
                     build_functional_unit(name).netlist).compact_min_corners
                 for name in PAPER_UNITS}
        assert cross["int_mul"] <= 9 and cross["fp_mul"] <= 9
        assert cross["int_add"] > 16 and 9 < cross["fp_add"] <= 16
        assert max(cross.values()) <= len(GRID)

    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_forced_passes_agree_on_training_grid(self, monkeypatch,
                                                  compact_calls, fu_name):
        # whichever pass the crossover picks at 9 corners, the other
        # one must give the same bytes
        fu, inputs = _fu_inputs(fu_name, 130, seed=23)
        prog = compile_netlist(fu.netlist)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, FIG3)
        got = {}
        for name, crossover in (("dense", len(FIG3) + 1), ("compact", 1)):
            monkeypatch.setattr(prog, "compact_min_corners", crossover)
            got[name] = prog.run(inputs, delays).tobytes()
            assert bool(compact_calls) == (name == "compact")
        assert got["dense"] == got["compact"] == _ref_delays(
            fu.netlist, inputs, delays).tobytes()

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_one_cycle_stream(self, n_corners):
        fu, inputs = _fu_inputs("int_mul", 1, seed=18, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist,
                                              _grid(n_corners))
        got = compile_netlist(fu.netlist).run(inputs, delays)
        assert got.shape == (n_corners, 1)
        assert got.tobytes() == _ref_delays(
            fu.netlist, inputs, delays).tobytes()

    def test_default_chunk_cycles_shrinks_with_corners(self):
        prog = compile_netlist(build_functional_unit("int_mul").netlist)
        sizes = [prog.default_chunk_cycles(n) for n in (1, 3, 9, 27, 81)]
        assert all(s >= 128 and s % 64 == 0 for s in sizes), sizes
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > sizes[-1]

    def test_run_values_matches_reference_model(self):
        fu, inputs = _fu_inputs("int_mul", 40, seed=9, width=4)
        prog = compile_netlist(fu.netlist)
        ref = LevelizedSimulator(fu.netlist).run_values(inputs)
        np.testing.assert_array_equal(prog.run_values(inputs), ref)

    def test_single_corner_one_dim_delays(self):
        fu, inputs = _fu_inputs("int_add", 20, seed=10, width=8)
        delays = DEFAULT_LIBRARY.gate_delays(fu.netlist, CONDS[0])
        res = run_delays("compiled", fu.netlist, inputs, delays)
        assert res.shape == (1, 20)

    def test_input_validation(self):
        fu = build_functional_unit("int_add", width=8)
        prog = compile_netlist(fu.netlist)
        with pytest.raises(ValueError):
            prog.run(np.zeros((5, 3), np.uint8), np.zeros(161))
        with pytest.raises(ValueError):
            prog.run(np.zeros((1, 64), np.uint8), np.zeros(161))
        with pytest.raises(ValueError):
            prog.run(np.zeros((5, 64), np.uint8), np.zeros(7))
        with pytest.raises(ValueError):
            prog.run_values(np.zeros((5, 3), np.uint8))

    def test_invalid_netlist_rejected_at_compile(self):
        nl = Netlist(name="broken")
        a = nl.add_input("a")
        nl.add_gate(GateType.NOT, [a])
        nl.primary_outputs.append(99)  # undriven
        with pytest.raises(Exception):
            compile_netlist(nl)


class TestArrivalFastPaths:
    """The arrival fast paths — dead-cone exclusion, the level-1
    corner-independent max, the toggle-compacted pass — must all be
    invisible in the delays: bit-identical to the per-gate reference.
    """

    def _parity(self, netlist, inputs, conds, chunk_cycles=None):
        delays = DEFAULT_LIBRARY.delay_matrix(netlist, conds)
        ref = LevelizedSimulator(netlist).run(inputs, delays)
        got = compile_netlist(netlist).run(inputs, delays,
                                           chunk_cycles=chunk_cycles)
        assert got.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(
            compile_netlist(netlist).run_values(inputs),
            LevelizedSimulator(netlist).run_values(inputs))
        return got

    @pytest.mark.parametrize("n_corners", (3,) + KERNEL_CORNERS)
    def test_dangling_gate_netlist_parity(self, n_corners):
        # a gate driving nothing (classic dead cone) plus a dead chain
        nl = Netlist(name="dangling")
        a, b = nl.add_input("a"), nl.add_input("b")
        x = nl.add_gate(GateType.XOR2, [a, b])
        dead1 = nl.add_gate(GateType.AND2, [a, b])
        nl.add_gate(GateType.NOT, [dead1])  # dead chain, never read
        nl.primary_outputs.append(x)
        prog = compile_netlist(nl)
        assert prog.n_arrival_gates == 1  # only the XOR is simulated
        rng = np.random.default_rng(3)
        inputs = rng.integers(0, 2, size=(130, 2)).astype(np.uint8)
        self._parity(nl, inputs, _grid(n_corners))

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_const_feeding_level1_gate_parity(self, n_corners):
        # the fused level-1 path reads constant arrivals as the quiet
        # sentinel where the main path holds -inf; both must lose every
        # max and leave delays bit-identical
        nl = Netlist(name="const_lvl1")
        a = nl.add_input("a")
        one = nl.add_gate(GateType.CONST1, [])
        x = nl.add_gate(GateType.XOR2, [a, one])   # level 1, const fanin
        y = nl.add_gate(GateType.AND2, [x, a])
        nl.primary_outputs.extend([x, y])
        rng = np.random.default_rng(4)
        inputs = rng.integers(0, 2, size=(70, 1)).astype(np.uint8)
        self._parity(nl, inputs, _grid(n_corners))

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_quiet_chunks_stay_exact(self, n_corners):
        # 210 frozen cycles: with 64-cycle chunks, chunks 2 and 3 have
        # no toggling (row, cycle) pair at all
        fu = build_functional_unit("int_mul", width=8)
        stream = stream_for_unit("int_mul", 400, seed=15)
        inputs = stream.bit_matrix(fu)
        inputs[50:260] = inputs[50]
        conds = FIG3 if n_corners == 9 else _grid(n_corners)
        for chunk in (None, 64):
            got = self._parity(fu.netlist, inputs, conds, chunk)
            assert not got[:, 64:192].any()

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_constant_stream_is_all_quiet(self, n_corners):
        fu = build_functional_unit("int_mul", width=8)
        inputs = np.repeat(stream_for_unit("int_mul", 1, seed=19)
                           .bit_matrix(fu)[:1], 100, axis=0)
        got = self._parity(fu.netlist, inputs, _grid(n_corners))
        assert not got.any()

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_rerun_with_another_delay_matrix(self, n_corners):
        # one buffer set serves both runs of the same shape: a second
        # delay matrix must not see the first's values
        fu, inputs = _fu_inputs("int_add", 80, seed=16, width=8)
        prog = compile_netlist(fu.netlist)
        conds = FIG3 if n_corners == 9 else _grid(n_corners)
        dm_a = DEFAULT_LIBRARY.delay_matrix(fu.netlist, conds)
        dm_b = np.asarray(dm_a, np.float32) * np.float32(2.0)
        ref_b = LevelizedSimulator(fu.netlist).run(
            inputs, dm_b)
        buffers = KernelBuffers()
        prog.run(inputs, dm_a, buffers=buffers)  # warm with matrix A
        got_b = prog.run(inputs, dm_b, buffers=buffers)
        assert got_b.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_multi_corner_equals_corner_by_corner(self, n_corners):
        # corner rows are computed independently: slicing the delay
        # matrix row-wise reproduces the same bits (the property the
        # campaign layer's corner sharding relies on), whichever kernel
        # each slice's corner count picks
        fu, inputs = _fu_inputs("int_add", 90, seed=14, width=8)
        conds = FIG3 if n_corners == 9 else _grid(n_corners)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, conds)
        prog = compile_netlist(fu.netlist)
        whole = prog.run(inputs, delays)
        assert whole.tobytes() == _ref_delays(
            fu.netlist, inputs, delays).tobytes()
        half = n_corners // 2
        for lo, hi in ((0, 1), (1, half), (half, n_corners)):
            part = prog.run(inputs, delays[lo:hi])
            assert part.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


class TestKernelBuffers:
    """One caller-owned buffer set serves any program, corner count and
    chunk, and leaves no trace in the results."""

    #: stream length and explicit chunk per pass.  The compact stream
    #: runs past the 128-cycle default chunk at 100 corners, so the
    #: default ends ragged there; the explicit chunks end ragged and
    #: start chunks off the 64-cycle word grid.  The dense stream is
    #: short: its scratch holds every live row, corner and cycle.
    STREAMS = {"compact": (150, 40), "dense": (40, 24)}
    #: the Table-I grid, the training grid and ``int_mul``'s crossover
    CORNERS = (len(GRID), 9, 5)

    @staticmethod
    def _force(monkeypatch, prog, kernel):
        monkeypatch.setattr(prog, "compact_min_corners",
                            1 if kernel == "compact" else len(GRID) + 1)

    @pytest.mark.parametrize("kernel", ("compact", "dense"))
    def test_one_set_across_programs_matches_fresh_runs(
            self, monkeypatch, compact_calls, kernel):
        n_cycles, chunk = self.STREAMS[kernel]
        units = {}
        for name in ("int_mul", "fp_mul"):
            fu, inputs = _fu_inputs(name, n_cycles, seed=31)
            prog = compile_netlist(fu.netlist)
            self._force(monkeypatch, prog, kernel)
            units[name] = (fu, prog, inputs)
        buffers = KernelBuffers()
        fresh = {}
        for name in ("int_mul", "fp_mul", "int_mul"):
            fu, prog, inputs = units[name]
            for n_corners in self.CORNERS:
                delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist,
                                                      _grid(n_corners))
                for chunk_cycles in (None, chunk):
                    key = (name, n_corners, chunk_cycles)
                    if key not in fresh:
                        fresh[key] = prog.run(
                            inputs, delays,
                            chunk_cycles=chunk_cycles).tobytes()
                    got = prog.run(inputs, delays,
                                   chunk_cycles=chunk_cycles,
                                   buffers=buffers)
                    assert got.tobytes() == fresh[key], key
                    pair_of = buffers.arrays.get("pair_of")
                    assert pair_of is None or not pair_of.any(), key
        assert bool(compact_calls) == (kernel == "compact")
        assert ("pair_of" in buffers.arrays) == (kernel == "compact")

    @pytest.mark.parametrize("kernel", ("compact", "dense"))
    def test_same_shape_rerun_reallocates_nothing(self, monkeypatch,
                                                  kernel):
        # buffers are sized by what a chunk uses, which the stream's
        # toggles and the corner count set: a rerun with another delay
        # matrix, after a run on fewer cycles and corners, fits in the
        # warm set
        n_cycles, chunk = self.STREAMS[kernel]
        fu, inputs = _fu_inputs("int_mul", n_cycles, seed=32)
        prog = compile_netlist(fu.netlist)
        self._force(monkeypatch, prog, kernel)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, _grid(9))
        other = np.asarray(delays, np.float32) * np.float32(1.5)
        buffers = KernelBuffers()
        prog.run(inputs, delays, chunk_cycles=chunk, buffers=buffers)
        warm = dict(buffers.arrays)
        prog.run(inputs[:n_cycles // 2 + 1], delays[:5],
                 chunk_cycles=chunk, buffers=buffers)
        got = prog.run(inputs, other, chunk_cycles=chunk, buffers=buffers)
        assert buffers.arrays.keys() == warm.keys()
        assert all(buffers.arrays[name] is arr
                   for name, arr in warm.items())
        assert got.tobytes() == prog.run(inputs, other,
                                         chunk_cycles=chunk).tobytes()

    def test_concurrent_runs_of_one_program_stay_exact(self):
        # two threads run one program at once, one in its own buffer
        # set and one in a set made per call: neither may see the
        # other's scratch
        fu = build_functional_unit("int_mul")
        prog = compile_netlist(fu.netlist)
        work = []
        for seed, buffers in ((34, KernelBuffers()), (35, None)):
            inputs = stream_for_unit("int_mul", 256,
                                     seed=seed).bit_matrix(fu)
            delays = DEFAULT_LIBRARY.delay_matrix(
                fu.netlist, GRID[seed - 34::5])  # 20 corners each
            work.append((inputs, delays, buffers,
                         prog.run(inputs, delays).tobytes()))
        assert work[0][3] != work[1][3]
        start = threading.Barrier(len(work), timeout=60)
        runs = [0] * len(work)
        mismatches = [0] * len(work)

        def worker(k):
            inputs, delays, buffers, serial = work[k]
            start.wait()
            for _ in range(15):
                got = prog.run(inputs, delays, buffers=buffers)
                runs[k] += 1
                mismatches[k] += got.tobytes() != serial

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(work))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert runs == [15, 15]
        assert mismatches == [0, 0]


def _chunk_toggles(prog, chunk, live_only=True):
    """Packed settled values and toggle words of one chunk's input rows."""
    values = prog.settled_net_values(chunk, live_only=live_only)
    return values, toggle_word_rows(values, chunk.shape[0] - 1)


def _unpack(words, n_cycles):
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8),
                         axis=1, count=n_cycles,
                         bitorder="little").astype(bool)


def _brute_force_kept(netlist, prog, tog_bits):
    """Per-gate backward walk over every net (dead cone included): a
    (net, cycle) pair is kept when it toggles and is a primary output
    or feeds a kept pair.  Returns ``(n_nets, n_cycles)`` bool in
    program row order."""
    level = netlist.levelize()
    rows = prog.net_row
    consumers = {}
    for gate in netlist.gates:
        for net in set(gate.inputs):
            consumers.setdefault(net, []).append(gate.output)
    is_po = set(netlist.primary_outputs)
    kept = np.zeros_like(tog_bits)
    for net in sorted(range(netlist.n_nets), key=lambda n: -level[n]):
        seen = tog_bits[rows[net]] if net in is_po else np.zeros_like(
            tog_bits[0])
        for out in consumers.get(net, ()):
            seen = seen | kept[rows[out]]
        kept[rows[net]] = tog_bits[rows[net]] & seen
    return kept


class TestObservableToggles:
    """The compact pass computes only the toggles some toggling primary
    output can observe; the mask must be exactly that set and leave
    every delay bit-identical."""

    @pytest.mark.parametrize("fu_name", ("int_add", "int_mul", "fp_add"))
    def test_mask_equals_brute_force_walk(self, fu_name):
        fu, inputs = _fu_inputs(fu_name, 300, seed=21)
        prog = compile_netlist(fu.netlist)
        po = prog.po_rows
        # the whole stream, then a chunk off the 64-cycle word grid
        for lo, hi in ((0, 300), (37, 237)):
            chunk = inputs[lo:hi + 1]
            n = hi - lo
            _, tog = _chunk_toggles(prog, chunk)
            keep = _unpack(prog.observable_toggles(tog), n)
            tog_bits = _unpack(tog, n)
            _, tog_all = _chunk_toggles(prog, chunk, live_only=False)
            ref = _brute_force_kept(fu.netlist, prog, _unpack(tog_all, n))
            # dead-cone rows reach no output, so nothing there is kept
            assert not ref[prog.n_live_rows:].any()
            np.testing.assert_array_equal(keep, ref[:prog.n_live_rows])
            assert not (keep & ~tog_bits).any()
            np.testing.assert_array_equal(keep[po], tog_bits[po])
            assert keep.sum() < tog_bits.sum()

    @staticmethod
    def _masked_chain_netlist(chain_len=12):
        """A long BUF chain from ``a`` gated by ``b`` (held at 0) and a
        short path through a mux's pin 2 (``sel`` held at 1) into the
        same output, so every chain toggle is masked."""
        nl = Netlist(name="masked_chain")
        a, b, c, sel = (nl.add_input(n) for n in ("a", "b", "c", "sel"))
        chain = [a]
        for _ in range(chain_len):
            chain.append(nl.add_gate(GateType.BUF, [chain[-1]]))
        gated = nl.add_gate(GateType.AND2, [chain[-1], b])
        short = nl.add_gate(GateType.NOT, [
            nl.add_gate(GateType.MUX2, [sel, b, c])])
        nl.primary_outputs.append(nl.add_gate(GateType.OR2, [gated, short]))
        return nl, chain[1:]

    @pytest.mark.parametrize("n_corners", KERNEL_CORNERS)
    def test_masked_chain_is_dropped_and_delays_exact(self, monkeypatch,
                                                      n_corners):
        nl, chain = self._masked_chain_netlist()
        rng = np.random.default_rng(22)
        inputs = rng.integers(0, 2, size=(150, 4)).astype(np.uint8)
        inputs[:, 1] = 0  # b
        inputs[:, 3] = 1  # sel
        prog = compile_netlist(nl)
        chain_rows = prog.net_row[chain]
        _, tog = _chunk_toggles(prog, inputs)
        assert _unpack(tog, 149)[chain_rows].any()
        assert not prog.observable_toggles(tog)[chain_rows].any()

        seen = []
        real = CompiledNetlist._compact_chunk

        def spy(self, bits, delays_t, buffers):
            seen.append(bits[chain_rows].any())
            return real(self, bits, delays_t, buffers)

        monkeypatch.setattr(CompiledNetlist, "_compact_chunk", spy)
        delays = DEFAULT_LIBRARY.delay_matrix(nl, _grid(n_corners))
        got = prog.run(inputs, delays)
        assert got.tobytes() == _ref_delays(nl, inputs, delays).tobytes()
        assert got.any()
        assert seen == ([False] if n_corners >= prog.compact_min_corners
                        else [])


class TestSimulatorFrontEnds:
    def test_compiled_and_reference_agree_through_simulator_api(self):
        fu, inputs = _fu_inputs("int_add", 75, seed=12, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        fast = compile_netlist(fu.netlist).run(inputs, delays)
        slow = LevelizedSimulator(fu.netlist).run(inputs, delays)
        assert fast.tobytes() == slow.tobytes()
        np.testing.assert_array_equal(
            compile_netlist(fu.netlist).run_values(inputs),
            LevelizedSimulator(fu.netlist).run_values(inputs))


class TestCompiledNetlistStandalone:
    def test_direct_construction_matches_cached(self):
        fu, inputs = _fu_inputs("int_add", 30, seed=13, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        direct = CompiledNetlist(fu.netlist)
        cached = compile_netlist(fu.netlist)
        assert (direct.run(inputs, delays).tobytes()
                == cached.run(inputs, delays).tobytes())

    def test_stats_preserved(self):
        fu = build_functional_unit("fp_add")
        prog = compile_netlist(fu.netlist)
        assert prog.n_gates == fu.netlist.n_gates
        assert prog.n_inputs == len(fu.netlist.primary_inputs)
        assert prog.n_outputs == len(fu.netlist.primary_outputs)
        level = fu.netlist.levelize()
        assert prog.n_levels == 1 + max(
            level[g.output] for g in fu.netlist.gates)
