"""Tests for VCD writing/parsing and the VCD-based DTA pipeline."""

import numpy as np
import pytest

from repro.circuits.adders import build_int_adder
from repro.sim import run_delays
from repro.sim.dta import delays_via_vcd
from repro.sim.vcd import (
    VCDWriter,
    delays_from_vcd,
    identifier_code,
    read_vcd,
)
from repro.timing import DEFAULT_LIBRARY, OperatingCondition


class TestIdentifierCodes:
    def test_unique_for_many_indices(self):
        codes = {identifier_code(i) for i in range(5000)}
        assert len(codes) == 5000

    def test_no_whitespace(self):
        for i in (0, 93, 94, 1000):
            assert " " not in identifier_code(i)


class TestWriteReadRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.vcd"
        writer = VCDWriter(path, ["a", "b"])
        writer.write_header([0, 1])
        writer.change(100, 0, 1)
        writer.change(100, 1, 0)
        writer.change(250, 0, 0)
        writer.close()

        vcd = read_vcd(path)
        assert vcd.timescale == "1ps"
        assert set(vcd.var_names) == {"a", "b"}
        assert vcd.changes_for("a") == [(0, 0), (100, 1), (250, 0)]
        assert vcd.changes_for("b") == [(0, 1), (100, 0)]
        assert vcd.all_change_times() == [100, 250]

    def test_unknown_variable_raises(self, tmp_path):
        path = tmp_path / "t.vcd"
        writer = VCDWriter(path, ["a"])
        writer.write_header([0])
        writer.close()
        vcd = read_vcd(path)
        with pytest.raises(KeyError):
            vcd.changes_for("nope")

    def test_change_before_header_raises(self, tmp_path):
        writer = VCDWriter(tmp_path / "x.vcd", ["a"])
        with pytest.raises(RuntimeError):
            writer.change(1, 0, 1)


class TestDelayExtraction:
    def test_delays_from_vcd_windows(self, tmp_path):
        path = tmp_path / "t.vcd"
        writer = VCDWriter(path, ["o"])
        writer.write_header([0])
        writer.change(120, 0, 1)    # cycle 0 (clock 1000): delay 120
        writer.change(1750, 0, 0)   # cycle 1: delay 750
        writer.change(3000, 0, 1)   # boundary: belongs to cycle 2, delay 1000
        writer.close()
        vcd = read_vcd(path)
        delays = delays_from_vcd(vcd, clock_period=1000, n_cycles=4)
        assert delays == [120.0, 750.0, 1000.0, 0.0]

    def test_bad_clock_raises(self, tmp_path):
        path = tmp_path / "t.vcd"
        VCDWriter(path, ["o"]).write_header([0])
        vcd = read_vcd(path)
        with pytest.raises(ValueError):
            delays_from_vcd(vcd, 0, 1)


class TestVcdPipelineMatchesInMemory:
    def test_paper_pipeline_agrees_with_event_engine(self, tmp_path):
        """simulate -> dump VCD -> parse VCD == in-memory event delays."""
        nl = build_int_adder(8)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(25, 16)).astype(np.uint8)
        cond = OperatingCondition(0.85, 50)
        via_vcd = delays_via_vcd(nl, rows, cond, tmp_path / "dta.vcd")
        in_memory = run_delays("event", nl, rows,
                               DEFAULT_LIBRARY.delay_matrix(nl, [cond]))
        np.testing.assert_allclose(via_vcd, in_memory[0], atol=0.51)
