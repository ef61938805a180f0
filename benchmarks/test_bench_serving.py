"""Serving throughput: micro-batched vs single-request-loop inference.

The point of the serving subsystem: a request that arrives alone pays
feature-build + forest-pass overhead by itself, while a micro-batch
amortizes one vectorized pass over every queued request.  This bench
publishes a TEVoT model for a paper FU, replays the same request slab
through ``PredictionEngine`` both ways, and requires the batched path
to clear 5x the single-request-loop throughput (the PR's acceptance
floor — in practice it is far higher).
"""

import time

import numpy as np
import pytest

from conftest import characterize_one, format_table, record_report
from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.serve import ModelRegistry, PredictionEngine, PredictRequest
from repro.timing import OperatingCondition
from repro.workloads import stream_for_unit

FU_NAME = "int_add"  # paper FU, full 32-bit operand width
N_REQUESTS = 256
MIN_SPEEDUP = 5.0


def _publish_model(tmp_path, campaign_runner):
    fu = build_functional_unit(FU_NAME)
    stream = stream_for_unit(FU_NAME, 300, seed=50)
    stream.name = "bench_serve_train"
    conditions = [OperatingCondition(0.90, 25.0)]
    trace = characterize_one(campaign_runner, fu, stream, conditions)
    model = TEVoT(operand_width=fu.operand_width)
    X, y = build_training_set(stream, conditions, trace.delays,
                              spec=model.spec)
    model.fit(X, y)
    registry = ModelRegistry(tmp_path)
    registry.publish(model, fu=fu, conditions=conditions,
                     train_stream=stream)
    return registry


def _request_slab(seed=51):
    stream = stream_for_unit(FU_NAME, N_REQUESTS, seed=seed)
    return [PredictRequest(fu=FU_NAME, a=int(stream.a[t]),
                           b=int(stream.b[t]), voltage=0.90,
                           temperature=25.0, stream_id="bench")
            for t in range(1, N_REQUESTS + 1)]


@pytest.mark.benchmark(group="serving")
def test_micro_batching_throughput(benchmark, tmp_path, campaign_runner):
    registry = _publish_model(tmp_path, campaign_runner)
    engine = PredictionEngine(registry=registry, sim_fallback=False)
    requests = _request_slab()

    def measure():
        # warm the hot-model cache out of the measured region
        engine.reset_stream()
        engine.predict_batch(requests[:2])

        engine.reset_stream()
        t0 = time.perf_counter()
        batched = engine.predict_batch(requests)
        batched_s = time.perf_counter() - t0

        engine.reset_stream()
        t0 = time.perf_counter()
        looped = [engine.predict_one(r) for r in requests]
        loop_s = time.perf_counter() - t0
        return batched, looped, batched_s, loop_s

    batched, looped, batched_s, loop_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    # identical answers either way (same history chaining, same model)
    np.testing.assert_array_equal(
        np.array([p.delay_ps for p in batched]),
        np.array([p.delay_ps for p in looped]))

    speedup = loop_s / batched_s
    batched_rps = N_REQUESTS / batched_s
    loop_rps = N_REQUESTS / loop_s
    record_report(
        "Serving - micro-batched vs single-request throughput",
        format_table(
            ["path", "wall (s)", "requests/s"],
            [["single-request loop", f"{loop_s:.3f}", f"{loop_rps:,.0f}"],
             ["micro-batched", f"{batched_s:.3f}", f"{batched_rps:,.0f}"],
             ["speedup", f"{speedup:.1f}x", ""]]))
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batching speedup {speedup:.1f}x below the {MIN_SPEEDUP}x "
        f"acceptance floor")

