"""Tests for the simulation-engine dispatch.

Covers the engine table, the bit-packing primitives, and — the
load-bearing guarantee — engine parity: all engines agree on settled
output values, and the two DTA engines (``compiled`` and the per-gate
``levelized_ref``) produce bit-identical delays for every paper FU.
"""

import numpy as np
import pytest

from repro.api import SimSpec
from repro.circuits import PAPER_UNITS, build_functional_unit
from repro.cli import main
from repro.flow import CampaignRunner
from repro.sim import (
    CYCLE_SHARDABLE,
    ENGINES,
    EventDrivenSimulator,
    LevelizedSimulator,
    compile_netlist,
    delay_model,
    run_delays,
)
from repro.sim.compile import pack_columns, toggle_word_rows
from repro.timing import DEFAULT_LIBRARY, OperatingCondition, run_sta
from repro.workloads import stream_for_unit

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


def _fu_inputs(fu_name, n_cycles, seed=0, **fu_kwargs):
    fu = build_functional_unit(fu_name, **fu_kwargs)
    stream = stream_for_unit(fu_name, n_cycles, seed=seed)
    return fu, stream.bit_matrix(fu)


def _event_values(netlist, inputs):
    """Settled outputs per input row from the event engine's
    zero-delay settle (the event engine's run_values)."""
    sim = EventDrivenSimulator(netlist, [0.0] * len(netlist.gates))
    return np.array([[sim.settle(list(row))[po]
                      for po in netlist.primary_outputs]
                     for row in inputs], dtype=np.uint8)


#: every way a caller can name an engine: each must reject an unknown
#: name with the same listing.
ENTRY_POINTS = {
    "run_delays": lambda name: run_delays(name, None, None, None),
    "SimSpec": lambda name: SimSpec(backend=name),
    "CampaignRunner": lambda name: CampaignRunner(backend=name,
                                                  use_cache=False),
    "cli": lambda name: main(["characterize", "--fu", "int_add",
                              "--backend", name]),
}


class TestRegistry:
    def test_builtins_registered(self):
        # one compiled DTA engine, its per-gate reference, and the
        # glitch-aware event simulator — nothing else
        assert ENGINES == ("compiled", "event", "levelized_ref")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("name", ["levelized", "bitpacked",
                                      "bitpacked_ref", "modelsim"])
    def test_removed_backends_rejected(self, entry, name, capsys):
        listing = (f"unknown sim backend {name!r}; "
                   "available: compiled, event, levelized_ref")
        if entry == "cli":
            assert ENTRY_POINTS[entry](name) == 2
            assert listing in capsys.readouterr().err
        else:
            with pytest.raises(ValueError) as info:
                ENTRY_POINTS[entry](name)
            assert str(info.value) == listing

    @pytest.mark.parametrize("engine,model", [
        ("compiled", "dta"), ("levelized_ref", "dta"), ("event", "glitch")])
    def test_delay_models(self, engine, model):
        # the glitch-aware engine never shares a cache class with DTA
        assert delay_model(engine) == model

    def test_glitch_and_dta_delays_bound_neither_other(self):
        # the event engine times each output's last transition, glitch
        # pulses included; the DTA engines time the latest toggling
        # input path into each output that changes value.  A glitch may
        # end after that path, and a late toggling input that a
        # controlling side input masks keeps the DTA delay above the
        # last transition, so neither engine's delays bound the other's
        fu = build_functional_unit("int_add")
        inputs = stream_for_unit("int_add", 200, seed=0).bit_matrix(fu)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        glitch = run_delays("event", fu.netlist, inputs, delays)
        dta = run_delays("compiled", fu.netlist, inputs, delays)
        for k in range(len(CONDS)):
            assert (glitch[k] < dta[k]).any() and (glitch[k] > dta[k]).any()
            # what does hold: both stay under the static bound ...
            static = run_sta(fu.netlist,
                             gate_delays=delays[k]).critical_delay
            assert max(glitch[k].max(), dta[k].max()) <= static + 1e-3
        # ... and an output that changes value makes a transition
        assert np.all((dta == 0) | (glitch > 0))

    def test_cycle_sharding_capability(self):
        # the DTA engines compute cycle t from input rows t and t+1
        # only, so campaigns may shard their cycle axis; the event
        # engine may not
        assert CYCLE_SHARDABLE == {"compiled", "levelized_ref"}

    @pytest.mark.parametrize("name", ["compiled", "levelized_ref"])
    @pytest.mark.parametrize("chunk_cycles", [0, -5])
    def test_nonpositive_chunk_cycles_rejected(self, name, chunk_cycles):
        fu, inputs = _fu_inputs("int_add", 4, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS[:1])
        sim = (compile_netlist(fu.netlist) if name == "compiled"
               else LevelizedSimulator(fu.netlist))
        with pytest.raises(ValueError, match="chunk_cycles must be >= 1"):
            sim.run(inputs, delays, chunk_cycles=chunk_cycles)

    def test_reference_backends_bit_identical(self):
        # levelized_ref runs the per-gate loop and must agree with the
        # compiled kernels delay for delay
        fu, inputs = _fu_inputs("int_add", 30, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        ref = run_delays("compiled", fu.netlist, inputs, delays)
        got = run_delays("levelized_ref", fu.netlist, inputs, delays)
        assert got.dtype == np.float32
        assert got.tobytes() == ref.tobytes()

    def test_event_engine_runs_corner_by_corner(self):
        fu, inputs = _fu_inputs("int_add", 12, width=8)
        delays = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        got = run_delays("event", fu.netlist, inputs, delays)
        assert got.shape == (2, 12) and got.dtype == np.float32
        for k in range(len(CONDS)):
            one = EventDrivenSimulator(fu.netlist, delays[k]).run_trace(
                inputs).delays.astype(np.float32)
            assert got[k].tobytes() == one.tobytes(), k

    def test_default_backend_consistent(self):
        from repro.flow.campaign import DEFAULT_BACKEND as flow_default
        from repro.sim.engine import DEFAULT_BACKEND as sim_default

        # the campaign layer re-exports the engine table's default
        assert flow_default is sim_default
        assert sim_default in ENGINES


def _unpack_rows(words, n):
    """First ``n`` bits of each packed word row as uint8 0/1 columns."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8),
                         axis=-1, count=n, bitorder="little")


class TestBitPackingPrimitives:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 2, (130, 5), dtype=np.uint8)
        packed = pack_columns(m)
        assert packed.shape == (5, 3)  # ceil(130/64) words per column
        np.testing.assert_array_equal(_unpack_rows(packed, 130), m.T)

    def test_toggle_words_match_elementwise(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 2, (200, 3), dtype=np.uint8)
        tog = _unpack_rows(toggle_word_rows(pack_columns(m), 199), 199)
        np.testing.assert_array_equal(tog, (m[1:] != m[:-1]).T)

    def test_toggle_words_mask_tail(self):
        # all-ones columns: no toggles anywhere, including the tail
        # word; bits past n_cycles are zeroed even where rows differ
        words = pack_columns(np.ones((70, 2), np.uint8))
        assert not toggle_word_rows(words, 69).any()
        ragged = pack_columns(np.arange(70)[:, None] % 2)
        tog = toggle_word_rows(ragged, 69)
        assert _unpack_rows(tog, 128)[0, 69:].sum() == 0
        assert _unpack_rows(tog, 69).all()


class TestBackendParity:
    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_settled_values_agree_across_all_backends(self, fu_name):
        fu, inputs = _fu_inputs(fu_name, 10, seed=5)
        reference = LevelizedSimulator(fu.netlist).run_values(inputs)
        np.testing.assert_array_equal(
            compile_netlist(fu.netlist).run_values(inputs), reference,
            err_msg="compiled")
        np.testing.assert_array_equal(
            _event_values(fu.netlist, inputs), reference, err_msg="event")

    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_dta_backends_delay_bit_identical(self, fu_name):
        # 130 cycles: spans three 64-cycle words with a ragged tail
        fu, inputs = _fu_inputs(fu_name, 130, seed=6)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        ref = run_delays("levelized_ref", fu.netlist, inputs, dm)
        got = run_delays("compiled", fu.netlist, inputs, dm)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_compiled_backends_match_per_gate_reference(self, fu_name):
        # the load-bearing guarantee: the level-parallel kernels
        # reproduce the per-gate engine bit for bit, chunked or not
        fu, inputs = _fu_inputs(fu_name, 130, seed=6)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        reference = LevelizedSimulator(fu.netlist).run(inputs, dm)
        for chunk in (None, 64, 45):
            got = compile_netlist(fu.netlist).run(
                inputs, dm, chunk_cycles=chunk)
            assert got.tobytes() == reference.tobytes(), chunk

    def test_event_values_on_wide_unit(self):
        fu, inputs = _fu_inputs("int_add", 15, seed=7, width=8)
        ref = LevelizedSimulator(fu.netlist).run_values(inputs)
        np.testing.assert_array_equal(_event_values(fu.netlist, inputs),
                                      ref)


class TestBitPackedSimulator:
    """The compiled program is the bit-packed simulator: settled values
    live 64 cycles to a ``uint64`` word."""

    def test_chunking_does_not_change_results(self):
        fu, inputs = _fu_inputs("int_add", 200, seed=8, width=8)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        sim = compile_netlist(fu.netlist)
        whole = sim.run(inputs, dm)
        chunked = sim.run(inputs, dm, chunk_cycles=64)
        np.testing.assert_array_equal(whole, chunked)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_dim_delays_yield_single_corner(self, engine):
        fu, inputs = _fu_inputs("int_add", 20, seed=9, width=8)
        delays = DEFAULT_LIBRARY.gate_delays(fu.netlist, CONDS[0])
        res = run_delays(engine, fu.netlist, inputs, delays)
        assert res.shape == (1, 20) and res.dtype == np.float32

    def test_run_values_matches_reference_model(self):
        fu, inputs = _fu_inputs("int_add", 40, seed=10, width=8)
        vals = compile_netlist(fu.netlist).run_values(inputs)
        ref = LevelizedSimulator(fu.netlist).run_values(inputs)
        np.testing.assert_array_equal(vals, ref)

    def test_input_validation(self):
        fu = build_functional_unit("int_add", width=8)
        sim = compile_netlist(fu.netlist)
        with pytest.raises(ValueError):
            sim.run(np.zeros((5, 3), np.uint8), np.zeros(161))
        with pytest.raises(ValueError):
            sim.run_values(np.zeros((5, 3), np.uint8))


class TestLevelizedResultShape:
    def test_one_dim_delays_not_squeezed(self):
        # documented invariant: delays are always (n_corners, n_cycles)
        fu, inputs = _fu_inputs("int_add", 12, seed=11, width=8)
        delays = DEFAULT_LIBRARY.gate_delays(fu.netlist, CONDS[0])
        res = LevelizedSimulator(fu.netlist).run(inputs, delays)
        assert res.shape == (1, 12)
