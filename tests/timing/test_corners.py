"""Tests for operating conditions and the Table I grid."""

import pytest

from repro.timing.corners import (
    CLOCK_SPEEDUPS,
    OperatingCondition,
    fig3_corner_subset,
    nominal_condition,
    paper_corner_grid,
    sped_up_clock,
    temperature_points,
    voltage_points,
)


class TestTableIGrid:
    def test_exactly_100_conditions(self):
        assert len(paper_corner_grid()) == 100

    def test_20_voltage_points(self):
        v = voltage_points()
        assert len(v) == 20
        assert v[0] == pytest.approx(0.81)
        assert v[-1] == pytest.approx(1.00)
        steps = {round(b - a, 10) for a, b in zip(v, v[1:])}
        assert steps == {0.01}

    def test_5_temperature_points(self):
        t = temperature_points()
        assert t == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_three_speedups(self):
        assert CLOCK_SPEEDUPS == (0.05, 0.10, 0.15)

    def test_grid_is_unique(self):
        grid = paper_corner_grid()
        assert len(set(grid)) == 100

    def test_fig3_subset(self):
        subset = fig3_corner_subset()
        assert len(subset) == 9
        assert OperatingCondition(0.81, 0.0) in subset
        assert OperatingCondition(1.00, 100.0) in subset


class TestOperatingCondition:
    def test_label(self):
        assert OperatingCondition(0.81, 50.0).label == "(0.81,50)"

    def test_as_tuple(self):
        assert OperatingCondition(0.9, 25.0).as_tuple() == (0.9, 25.0)

    def test_nonpositive_voltage_rejected(self):
        with pytest.raises(ValueError):
            OperatingCondition(0.0, 25.0)

    @pytest.mark.parametrize("voltage", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_nonfinite_voltage_rejected(self, voltage):
        with pytest.raises(ValueError, match="finite"):
            OperatingCondition(voltage, 25.0)

    def test_insane_temperature_rejected(self):
        with pytest.raises(ValueError):
            OperatingCondition(1.0, 400.0)

    def test_ordering_and_hash(self):
        a = OperatingCondition(0.81, 0.0)
        b = OperatingCondition(0.81, 25.0)
        assert a < b
        assert len({a, b, OperatingCondition(0.81, 0.0)}) == 2

    def test_nominal(self):
        assert nominal_condition() == OperatingCondition(1.00, 25.0)


class TestSpedUpClock:
    def test_reduces_period(self):
        assert sped_up_clock(1000.0, 0.10) == pytest.approx(1000.0 / 1.1)

    def test_zero_speedup_is_identity(self):
        assert sped_up_clock(800.0, 0.0) == 800.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sped_up_clock(1000.0, -0.1)
