"""The "TEVoT is 100X faster than gate-level simulation" claim.

Compares per-cycle wall-clock cost of (a) delay-annotated event-driven
gate-level simulation — the ModelSim stand-in — against (b) TEVoT
inference (feature build + forest prediction) on the same stream.
Also verifies the paper's scaling argument: simulation slows down with
circuit complexity while TEVoT's per-cycle inference cost stays flat.
"""

import time

import numpy as np
import pytest

from conftest import characterize_one, format_table, record_report
from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.core.features import build_feature_matrix
from repro.sim.eventsim import EventDrivenSimulator
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.workloads import stream_for_unit

COND = OperatingCondition(0.81, 0.0)
_ROWS = []


def _measure(fu_name, runner):
    fu = build_functional_unit(fu_name)
    n_sim_cycles = 60
    n_pred_cycles = 4000
    stream = stream_for_unit(fu_name, n_pred_cycles, seed=30)
    stream.name = f"speedup_{fu_name}"

    # train a small TEVoT so inference is realistic
    small = stream.head(400)
    trace = characterize_one(runner, fu, small, [COND])
    X, y = build_training_set(small, [COND], trace.delays)
    model = TEVoT().fit(X, y)

    # gate-level simulation cost
    delays = DEFAULT_LIBRARY.gate_delays(fu.netlist, COND)
    sim = EventDrivenSimulator(fu.netlist, delays)
    bits = stream.head(n_sim_cycles).bit_matrix(fu)
    t0 = time.perf_counter()
    sim.run_trace(bits)
    sim_per_cycle = (time.perf_counter() - t0) / n_sim_cycles

    # TEVoT inference cost (features + forest)
    t0 = time.perf_counter()
    features = build_feature_matrix(stream, COND, model.spec)
    model.predict_errors(features, clock_period=1000.0)
    tevot_per_cycle = (time.perf_counter() - t0) / n_pred_cycles

    return sim_per_cycle, tevot_per_cycle, fu.netlist.n_gates


@pytest.mark.benchmark(group="speedup")
@pytest.mark.parametrize("fu_name", ["int_add", "fp_mul"])
def test_speedup_vs_gate_level_sim(benchmark, fu_name, campaign_runner):
    sim_pc, tevot_pc, n_gates = benchmark.pedantic(
        _measure, args=(fu_name, campaign_runner), rounds=1, iterations=1)
    speedup = sim_pc / tevot_pc
    _ROWS.append([fu_name, n_gates, f"{sim_pc*1e3:.3f}ms",
                  f"{tevot_pc*1e6:.1f}us", f"{speedup:.0f}x"])
    # the paper claims ~100X on average; require a conservative floor
    assert speedup > 10.0, (fu_name, speedup)

    if len(_ROWS) == 2:
        record_report("Speedup - TEVoT inference vs gate-level simulation",
                      format_table(["FU", "gates", "sim/cycle",
                                    "TEVoT/cycle", "speedup"], _ROWS))
        # simulation cost grows with circuit size; TEVoT cost does not
        sim_costs = [float(r[2][:-2]) for r in _ROWS]
        assert sim_costs[1] > sim_costs[0]
