"""Tests for DTA campaigns."""

import numpy as np

from repro.circuits import build_functional_unit
from repro.core import experiment_impl
from repro.flow import CampaignJob, CampaignRunner, error_free_clocks
from repro.timing import OperatingCondition
from repro.workloads import random_stream, stream_for_unit

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]


def characterize(fu, stream, conditions, store):
    """One cached single-job campaign."""
    runner = CampaignRunner(store=store)
    return runner.run([CampaignJob(fu, stream, conditions)])[0]


class TestCharacterize:
    """Single-job campaigns through the store."""

    def test_delay_trace_shape(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(30, operand_width=8, seed=0)
        trace = characterize(fu, stream, CONDS, tmp_path)
        assert trace.delays.shape == (2, 30)
        assert np.all(trace.delays >= 0)

    def test_cache_roundtrip(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(30, operand_width=8, seed=1)
        first = characterize(fu, stream, CONDS, tmp_path)
        cached = characterize(fu, stream, CONDS, tmp_path)
        np.testing.assert_array_equal(first.delays, cached.delays)
        assert len(list(tmp_path.glob("dta_*.npz"))) == 1

    def test_cache_distinguishes_streams(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        s1 = random_stream(30, operand_width=8, seed=2)
        s2 = random_stream(30, operand_width=8, seed=3)
        characterize(fu, s1, CONDS, tmp_path)
        characterize(fu, s2, CONDS, tmp_path)
        assert len(list(tmp_path.glob("dta_*.npz"))) == 2

    def test_error_free_clocks_are_max_delays(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        stream = random_stream(50, operand_width=8, seed=4)
        trace = characterize(fu, stream, CONDS, tmp_path)
        clocks = error_free_clocks(trace)
        for k, cond in enumerate(CONDS):
            assert clocks[cond] == trace.delays[k].max()
            # error-free: no training delay exceeds the clock
            assert not np.any(trace.delays[k] > clocks[cond])


class TestEndToEndSmall:
    def test_run_experiment_smoke(self, tmp_path):
        fu = build_functional_unit("int_add", width=8)
        res = experiment_impl(
            fu, stream_for_unit("int_add", 150, seed=0),
            stream_for_unit("int_add", 100, seed=1), CONDS,
            runner=CampaignRunner(store=tmp_path))
        summary = res.summary()
        assert set(summary) == {"TEVoT", "Delay-based", "TER-based",
                                "TEVoT-NH"}
        for value in summary.values():
            assert 0.0 <= value <= 1.0
        # the workload-aware model must beat the pessimist
        assert summary["TEVoT"] > summary["Delay-based"]
