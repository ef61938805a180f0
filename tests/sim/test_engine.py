"""Tests for the pluggable simulation-engine layer.

Covers the registry/capability surface, the bit-packing primitives,
and — the load-bearing guarantee — backend parity: all engines agree
on settled output values, and the two DTA engines (``compiled`` and
the per-gate ``levelized_ref``) produce bit-identical delays for every
paper FU.
"""

import numpy as np
import pytest

from repro.circuits import PAPER_UNITS, build_functional_unit
from repro.sim import (
    CompiledBackend,
    DelayTraceResult,
    LevelizedSimulator,
    SimBackend,
    available_backends,
    compile_netlist,
    get_backend,
    register_backend,
)
from repro.sim.compile import pack_columns, toggle_word_rows
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.workloads import stream_for_unit

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


def _fu_inputs(fu_name, n_cycles, seed=0, **fu_kwargs):
    fu = build_functional_unit(fu_name, **fu_kwargs)
    stream = stream_for_unit(fu_name, n_cycles, seed=seed)
    return fu, stream.bit_matrix(fu)


class TestRegistry:
    def test_builtins_registered(self):
        # one compiled DTA engine, its per-gate reference, and the
        # glitch-aware event simulator — nothing else
        assert available_backends() == ("compiled", "event",
                                        "levelized_ref")

    @pytest.mark.parametrize("name", ["levelized", "bitpacked",
                                      "bitpacked_ref"])
    def test_removed_backends_rejected(self, name):
        with pytest.raises(ValueError, match="available: compiled, "
                                             "event, levelized_ref"):
            get_backend(name)

    def test_get_backend_returns_singleton(self):
        assert get_backend("compiled") is get_backend("compiled")

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(ValueError, match="levelized_ref"):
            get_backend("modelsim")

    def test_capability_flags(self):
        assert SimBackend.CAPABILITY_FLAGS == (
            "supports_cycle_sharding", "supports_corner_sharding",
            "models_glitches")
        ref = get_backend("levelized_ref")
        comp = get_backend("compiled")
        ev = get_backend("event")
        assert ev.models_glitches
        assert not (ref.models_glitches or comp.models_glitches)
        assert ref.delay_model == comp.delay_model == "dta"
        assert ev.delay_model == "glitch"

    def test_cycle_sharding_capability(self):
        # the DTA engines compute cycle t from input rows t and t+1
        # only, so campaigns may shard their cycle axis; the event
        # engine never advertises it
        for name in ("compiled", "levelized_ref"):
            assert get_backend(name).supports_cycle_sharding, name
        assert not get_backend("event").supports_cycle_sharding

    def test_corner_sharding_capability(self):
        # every built-in computes corner rows independently — including
        # the event engine, which loops corner by corner
        for name in available_backends():
            assert get_backend(name).supports_corner_sharding, name

    @pytest.mark.parametrize("name", ["compiled", "levelized_ref",
                                      "event"])
    def test_run_delays_signature_matches_protocol(self, name):
        # the campaign layer calls every backend the same way, so no
        # built-in may grow (or keep) a keyword the protocol lacks
        import inspect

        want = inspect.signature(SimBackend.run_delays).parameters
        got = inspect.signature(
            type(get_backend(name)).run_delays).parameters
        assert [(p.name, p.kind, p.default) for p in got.values()] == \
            [(p.name, p.kind, p.default) for p in want.values()]

    @pytest.mark.parametrize("name", ["compiled", "levelized_ref",
                                      "event"])
    def test_every_capability_attribute_is_validated(self, name):
        # a capability-looking attribute outside CAPABILITY_FLAGS would
        # never be validated by the registry nor read by the campaign
        backend = get_backend(name)
        flags = {attr for attr in dir(backend)
                 if attr.startswith(("supports_", "models_"))}
        assert flags == set(SimBackend.CAPABILITY_FLAGS)
        for flag in flags:
            assert isinstance(getattr(backend, flag), bool), flag

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
        ref = get_backend("compiled").run_delays(fu.netlist, inputs,
                                                 delays).delays
        got = get_backend("levelized_ref").run_delays(fu.netlist, inputs,
                                                      delays).delays
        assert got.tobytes() == ref.tobytes()

    def test_event_backend_declares_all_flags_explicitly(self):
        # satellite regression: absent attrs used to be probed with
        # getattr defaults, so a typo'd flag silently disabled sharding
        from repro.sim.eventsim import EventBackend

        for flag in SimBackend.CAPABILITY_FLAGS:
            assert flag in vars(EventBackend), flag

    def test_registry_rejects_non_bool_capabilities(self):
        class BrokenFlags(SimBackend):
            name = "brokenflags"
            supports_cycle_sharding = None  # type: ignore[assignment]

            def run_delays(self, *a, **k):  # pragma: no cover
                raise NotImplementedError

            def run_values(self, *a, **k):  # pragma: no cover
                raise NotImplementedError

        register_backend("brokenflags", BrokenFlags)
        try:
            with pytest.raises(ValueError, match="capability"):
                get_backend("brokenflags")
        finally:
            import repro.sim.engine as engine
            engine._REGISTRY.pop("brokenflags", None)
            engine._INSTANCES.pop("brokenflags", None)

    def test_default_backend_consistent(self):
        import inspect

        from repro.flow.campaign import DEFAULT_BACKEND as flow_default
        from repro.sim.dta import dynamic_delay_trace
        from repro.sim.engine import DEFAULT_BACKEND as sim_default

        # satellite regression: dynamic_delay_trace defaulted to
        # "levelized" while campaigns defaulted to "bitpacked"
        assert flow_default is sim_default
        sig = inspect.signature(dynamic_delay_trace)
        assert sig.parameters["engine"].default == sim_default
        assert sim_default in available_backends()

    def test_register_custom_backend(self):
        class DummyBackend(SimBackend):
            name = "dummy"

            def run_delays(self, netlist, input_matrix, gate_delays,
                           collect_outputs=False):
                return DelayTraceResult(np.zeros((1, 1), np.float32))

            def run_values(self, netlist, input_matrix):
                return np.zeros((1, 1), np.uint8)

        register_backend("dummy", DummyBackend)
        try:
            assert isinstance(get_backend("dummy"), DummyBackend)
            assert "dummy" in available_backends()
        finally:
            import repro.sim.engine as engine
            engine._REGISTRY.pop("dummy", None)
            engine._INSTANCES.pop("dummy", None)

    def test_registered_name_must_match_class(self):
        class Misnamed(SimBackend):
            name = "other"

            def run_delays(self, *a, **k):  # pragma: no cover
                raise NotImplementedError

            def run_values(self, *a, **k):  # pragma: no cover
                raise NotImplementedError

        register_backend("wrong", Misnamed)
        try:
            with pytest.raises(ValueError, match="declares name"):
                get_backend("wrong")
        finally:
            import repro.sim.engine as engine
            engine._REGISTRY.pop("wrong", None)


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
        reference = get_backend("levelized_ref").run_values(fu.netlist,
                                                            inputs)
        for name in ("compiled", "event"):
            got = get_backend(name).run_values(fu.netlist, inputs)
            np.testing.assert_array_equal(got, reference, err_msg=name)

    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_dta_backends_delay_bit_identical(self, fu_name):
        # 130 cycles: spans three 64-cycle words with a ragged tail
        fu, inputs = _fu_inputs(fu_name, 130, seed=6)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        ref = get_backend("levelized_ref").run_delays(
            fu.netlist, inputs, dm, collect_outputs=True)
        got = get_backend("compiled").run_delays(
            fu.netlist, inputs, dm, collect_outputs=True)
        assert got.delays.tobytes() == ref.delays.tobytes()
        np.testing.assert_array_equal(got.outputs, ref.outputs)

    @pytest.mark.parametrize("fu_name", PAPER_UNITS)
    def test_compiled_backends_match_per_gate_reference(self, fu_name):
        # the load-bearing guarantee: the level-parallel kernels
        # reproduce the per-gate engine bit for bit, chunked or not
        fu, inputs = _fu_inputs(fu_name, 130, seed=6)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        reference = LevelizedSimulator(fu.netlist).run(
            inputs, dm, collect_outputs=True)
        for chunk in (None, 64, 45):
            got = compile_netlist(fu.netlist).run(
                inputs, dm, collect_outputs=True, chunk_cycles=chunk)
            assert got.delays.tobytes() == reference.delays.tobytes(), chunk
            np.testing.assert_array_equal(got.outputs, reference.outputs,
                                          err_msg=str(chunk))

    def test_event_values_on_wide_unit(self):
        fu, inputs = _fu_inputs("int_add", 15, seed=7, width=8)
        ref = get_backend("levelized_ref").run_values(fu.netlist, inputs)
        got = get_backend("event").run_values(fu.netlist, inputs)
        np.testing.assert_array_equal(got, ref)


class TestBitPackedSimulator:
    """The compiled program is the bit-packed simulator: settled values
    live 64 cycles to a ``uint64`` word."""

    def test_chunking_does_not_change_results(self):
        fu, inputs = _fu_inputs("int_add", 200, seed=8, width=8)
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, CONDS)
        sim = compile_netlist(fu.netlist)
        whole = sim.run(inputs, dm)
        chunked = sim.run(inputs, dm, chunk_cycles=64)
        np.testing.assert_array_equal(whole.delays, chunked.delays)

    def test_one_dim_delays_yield_single_corner(self):
        fu, inputs = _fu_inputs("int_add", 20, seed=9, width=8)
        delays = DEFAULT_LIBRARY.gate_delays(fu.netlist, CONDS[0])
        res = CompiledBackend().run_delays(fu.netlist, inputs, delays)
        assert res.delays.shape == (1, 20)

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
        assert res.delays.shape == (1, 12)
        assert res.n_corners == 1
