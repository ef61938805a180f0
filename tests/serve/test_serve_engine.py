"""Tests for the micro-batching prediction engine.

The acceptance bar: served predictions are bit-identical to the offline
path (feature build + ``predict_delay``) for the same model and
operands, whatever the batching, corner mix, or stream interleaving.
"""

import numpy as np
import pytest

from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set, make_tevot_nh
from repro.flow import CampaignJob, CampaignRunner
from repro.serve import (
    ModelRegistry,
    PredictionEngine,
    PredictRequest,
)
from repro.timing import OperatingCondition
from repro.workloads import random_stream

CONDS = [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)]
FU_KW = dict(width=8)


def _requests(stream, condition, stream_id="s", clock=None):
    """The serving replay of a stream: row 0 primes the history."""
    return [PredictRequest(fu="int_add", a=int(stream.a[t]),
                           b=int(stream.b[t]), voltage=condition.voltage,
                           temperature=condition.temperature,
                           stream_id=stream_id, clock_period=clock)
            for t in range(len(stream.a))]


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    fu = build_functional_unit("int_add", **FU_KW)
    stream = random_stream(70, operand_width=8, seed=0)
    stream.name = "eng_train"
    trace = CampaignRunner(use_cache=False).run(
        [CampaignJob(fu, stream, CONDS)])[0]
    tevot = TEVoT(operand_width=8)
    X, y = build_training_set(stream, CONDS, trace.delays, spec=tevot.spec)
    tevot.fit(X, y)
    nh = make_tevot_nh(operand_width=8)
    X_nh, y_nh = build_training_set(stream, CONDS, trace.delays,
                                    spec=nh.spec)
    nh.fit(X_nh, y_nh)
    root = tmp_path_factory.mktemp("registry")
    registry = ModelRegistry(root)
    registry.publish(tevot, fu=fu, conditions=CONDS, train_stream=stream)
    registry.publish(nh, fu=fu, kind="tevot_nh", conditions=CONDS,
                     train_stream=stream)
    return registry, tevot, nh


class TestModelParity:
    def test_stream_replay_bit_identical(self, published):
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        stream = random_stream(40, operand_width=8, seed=3)
        for cond in CONDS:
            engine.reset_stream()
            ref = tevot.predict_stream_delays(stream, cond)
            out = engine.predict_batch(_requests(stream, cond))
            served = np.array([p.delay_ps for p in out[1:]])
            np.testing.assert_array_equal(served, ref)
            assert all(p.source == "model" for p in out)

    def test_parity_across_single_request_calls(self, published):
        """History chains across separate predict calls, not just
        within one batch."""
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        stream = random_stream(15, operand_width=8, seed=4)
        ref = tevot.predict_stream_delays(stream, CONDS[0])
        served = []
        for req in _requests(stream, CONDS[0]):
            served.append(engine.predict_one(req).delay_ps)
        np.testing.assert_array_equal(np.array(served[1:]), ref)

    def test_mixed_corner_batch_parity(self, published):
        """One vectorized pass serves interleaved corners correctly."""
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        stream = random_stream(20, operand_width=8, seed=5)
        refs = {c: tevot.predict_stream_delays(stream, c) for c in CONDS}
        # interleave: per cycle, one request per corner on its own stream
        reqs, owners = [], []
        for t in range(len(stream.a)):
            for c in CONDS:
                reqs.append(PredictRequest(
                    fu="int_add", a=int(stream.a[t]), b=int(stream.b[t]),
                    voltage=c.voltage, temperature=c.temperature,
                    stream_id=f"corner{c.label}"))
                owners.append(c)
        out = engine.predict_batch(reqs)
        per_corner = {c: [] for c in CONDS}
        for pred, c in zip(out, owners):
            per_corner[c].append(pred.delay_ps)
        for c in CONDS:
            np.testing.assert_array_equal(np.array(per_corner[c][1:]),
                                          refs[c])

    def test_nh_kind_served_without_history_features(self, published):
        registry, _, nh = published
        engine = PredictionEngine(registry=registry, kind="tevot_nh")
        stream = random_stream(10, operand_width=8, seed=6)
        ref = nh.predict_stream_delays(stream, CONDS[0])
        out = engine.predict_batch(_requests(stream, CONDS[0]))
        np.testing.assert_array_equal(
            np.array([p.delay_ps for p in out[1:]]), ref)

    def test_explicit_prev_overrides_state(self, published):
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        # same request twice with different explicit histories must
        # differ from each other only via the history features
        base = dict(fu="int_add", a=170, b=85, voltage=0.81,
                    temperature=0.0)
        p1 = engine.predict_one(PredictRequest(prev_a=0, prev_b=0, **base))
        p2 = engine.predict_one(PredictRequest(prev_a=255, prev_b=255,
                                               **base))
        from repro.core.features import build_feature_matrix
        from repro.workloads import OperandStream
        s1 = OperandStream("x", np.array([0, 170]), np.array([0, 85]))
        s2 = OperandStream("x", np.array([255, 170]), np.array([255, 85]))
        r1 = tevot.predict_delay(build_feature_matrix(s1, CONDS[0],
                                                      tevot.spec))[0]
        r2 = tevot.predict_delay(build_feature_matrix(s2, CONDS[0],
                                                      tevot.spec))[0]
        assert p1.delay_ps == r1
        assert p2.delay_ps == r2


class TestClockClassification:
    def test_timing_error_flag_matches_threshold(self, published):
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        stream = random_stream(25, operand_width=8, seed=7)
        ref = tevot.predict_stream_delays(stream, CONDS[0])
        clock = float(np.median(ref))
        out = engine.predict_batch(_requests(stream, CONDS[0], clock=clock))
        flags = np.array([p.timing_error for p in out[1:]])
        np.testing.assert_array_equal(flags, ref > clock)

    def test_nonpositive_clock_fails_cleanly(self, published):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry)
        out = engine.predict_batch([PredictRequest(
            fu="int_add", a=1, b=2, voltage=0.9, temperature=25.0,
            clock_period=0.0)])
        assert not out[0].ok
        assert "clock_period" in out[0].message


class TestFallbackAndErrors:
    def test_sim_fallback_matches_gate_level(self):
        """With no registry every prediction is ground-truth DTA."""
        engine = PredictionEngine(registry=None)
        fu = build_functional_unit("int_add")
        stream = random_stream(12, seed=8)
        stream.name = "fb"
        trace = CampaignRunner(use_cache=False).run(
            [CampaignJob(fu, stream, CONDS[:1])])[0]
        out = engine.predict_batch(_requests(stream, CONDS[0]))
        served = np.array([p.delay_ps for p in out[1:]], dtype=np.float32)
        np.testing.assert_array_equal(served, trace.delays[0])
        assert all(p.source == "sim" for p in out)
        assert engine.stats.served_by_sim == len(out)

    def test_fallback_disabled_reports_failure(self, tmp_path):
        engine = PredictionEngine(registry=tmp_path, sim_fallback=False)
        out = engine.predict_batch([PredictRequest(
            fu="int_add", a=1, b=2, voltage=0.9, temperature=25.0)])
        assert not out[0].ok
        assert "fallback" in out[0].message
        assert engine.stats.failed == 1

    def test_unknown_fu_fails_that_request_only(self, published):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry)
        out = engine.predict_batch([
            PredictRequest(fu="int_add", a=1, b=2, voltage=0.9,
                           temperature=25.0),
            PredictRequest(fu="not_a_unit", a=1, b=2, voltage=0.9,
                           temperature=25.0),
        ])
        assert out[0].ok
        assert not out[1].ok and "unknown FU" in out[1].message

    def test_invalid_condition_rejected(self, published):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry)
        out = engine.predict_batch([PredictRequest(
            fu="int_add", a=1, b=2, voltage=-1.0, temperature=25.0)])
        assert not out[0].ok

    def test_predict_one_raises_on_failure(self, published):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry)
        with pytest.raises(ValueError):
            engine.predict_one(PredictRequest(
                fu="no_such", a=0, b=0, voltage=0.9, temperature=25.0))


class TestHotCacheAndStats:
    def test_model_cache_hits_after_first_batch(self, published):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry)
        req = PredictRequest(fu="int_add", a=1, b=2, voltage=0.9,
                             temperature=25.0)
        engine.predict_batch([req])
        engine.predict_batch([req])
        assert engine.stats.model_cache_hits == 1
        assert engine.stats.model_cache_misses == 1

    def test_refresh_picks_up_new_publish(self, published, tmp_path):
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        req = PredictRequest(fu="int_add", a=1, b=2, voltage=0.9,
                             temperature=25.0)
        first = engine.predict_batch([req])[0]
        assert first.model_id.endswith("/v1")
        registry.publish(tevot, fu="int_add")
        engine.refresh()
        # fresh engine state so the request is identical
        engine.reset_stream()
        second = engine.predict_batch([req])[0]
        assert second.model_id.split("/v")[-1] > "1"


class TestResourceBounds:
    def test_history_state_is_lru_bounded(self, published):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry, max_streams=4)
        for k in range(10):
            engine.predict_one(PredictRequest(
                fu="int_add", a=k, b=k, voltage=0.9, temperature=25.0,
                stream_id=f"s{k}"))
        assert len(engine._history) == 4
        # the newest streams survive
        assert ("int_add", "s9") in engine._history
        assert ("int_add", "s0") not in engine._history

    def test_unpublished_fu_negatively_cached(self, tmp_path):
        engine = PredictionEngine(registry=tmp_path, sim_fallback=True)
        req = PredictRequest(fu="int_add", a=1, b=2, voltage=0.9,
                             temperature=25.0, prev_a=1, prev_b=2)
        engine.predict_batch([req])
        engine.predict_batch([req])
        # second batch answers from the negative cache, no manifest read
        assert engine.stats.model_cache_misses == 1
        assert engine.stats.model_cache_hits == 1
        engine.refresh()
        engine.predict_batch([req])
        assert engine.stats.model_cache_misses == 2

    def test_rejected_clock_does_not_advance_history(self, published):
        registry, tevot, _ = published
        engine = PredictionEngine(registry=registry)
        bad = PredictRequest(fu="int_add", a=200, b=100, voltage=0.81,
                             temperature=0.0, clock_period=-1.0,
                             stream_id="guard")
        assert not engine.predict_batch([bad])[0].ok
        assert engine.stats.failed == 1
        assert ("int_add", "guard") not in engine._history

    @pytest.mark.parametrize("field, value", [
        ("voltage", float("nan")), ("voltage", float("inf")),
        ("clock_period", float("nan")), ("clock_period", float("inf")),
        ("deadline_ms", float("nan")), ("deadline_ms", float("inf")),
    ])
    def test_nonfinite_fields_rejected_without_history(self, published,
                                                       field, value):
        registry, _, _ = published
        engine = PredictionEngine(registry=registry)
        fields = dict(fu="int_add", a=200, b=100, voltage=0.81,
                      temperature=0.0, stream_id="nonfinite")
        fields[field] = value
        (out,) = engine.predict_batch([PredictRequest(**fields)])
        assert not out.ok
        assert "finite" in out.message
        assert ("int_add", "nonfinite") not in engine._history
