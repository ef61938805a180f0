"""Ablation: the history feature x[t-1] (Sec. IV-B's core design choice).

Two parts:

1. The paper's determinism experiment: fixing (x[t-1], x[t]) fixes
   D[t]; varying x[t-1] with x[t] fixed changes D[t] irregularly —
   evidence that path sensitization depends on the previous input.
2. Delay-model quality with and without history: the full model's
   delay-prediction error on application data is no worse than the
   no-history model's (it is usually substantially better, because app
   operands are temporally correlated).
"""

import numpy as np
import pytest

from conftest import characterize_one, format_table, record_report
from repro.core.features import build_feature_matrix
from repro.ml import mean_absolute_error
from repro.sim import compile_netlist
from repro.timing import DEFAULT_LIBRARY, OperatingCondition


def _determinism_experiment(trained_models):
    """Part 1 on the real netlist (100 repeated pairs vs 100 varied)."""
    fu = trained_models("int_add")["fu"]
    sim = compile_netlist(fu.netlist)
    delays = DEFAULT_LIBRARY.gate_delays(fu.netlist,
                                         OperatingCondition(0.81, 0))
    rng = np.random.default_rng(5)
    curr = np.array(fu.encode_inputs(0xDEADBEEF, 0x01234567),
                    dtype=np.uint8)

    fixed_prev = np.array(fu.encode_inputs(0x0F0F0F0F, 0x33CC33CC),
                          dtype=np.uint8)
    fixed_rows = np.stack([fixed_prev, curr] * 50)
    fixed = sim.run(fixed_rows, delays)[0, ::2]

    varied = []
    for _ in range(50):
        a, b = rng.integers(0, 2**32, 2, dtype=np.uint64)
        prev = np.array(fu.encode_inputs(int(a), int(b)), dtype=np.uint8)
        varied.append(float(sim.run(np.stack([prev, curr]), delays)[0, 0]))
    return fixed, np.array(varied)


@pytest.mark.benchmark(group="ablation-history")
def test_history_determines_delay(benchmark, trained_models):
    fixed, varied = benchmark.pedantic(
        _determinism_experiment, args=(trained_models,),
        rounds=1, iterations=1)
    # fixed (x[t-1], x[t]) -> one delay value, always
    assert np.allclose(fixed, fixed[0])
    # varying x[t-1] alone spreads the delay widely
    assert np.unique(np.round(varied, 3)).size > 10
    record_report("Ablation - history determinism (Sec IV-B)", [
        f"fixed-pair delay spread: {fixed.max() - fixed.min():.3f} ps",
        f"varied-history delay range: [{varied.min():.0f}, "
        f"{varied.max():.0f}] ps over 50 samples",
        f"distinct varied-history delays: "
        f"{np.unique(np.round(varied, 3)).size}/50",
    ])


@pytest.mark.benchmark(group="ablation-history")
@pytest.mark.parametrize("fu_name", ["int_mul", "fp_mul"])
def test_history_improves_app_delay_prediction(benchmark, fu_name,
                                               trained_models, datasets,
                                               conditions, campaign_runner):
    def run():
        bundle = trained_models(fu_name)
        stream = datasets(fu_name)["sobel"]
        trace = characterize_one(campaign_runner, bundle["fu"], stream,
                                 conditions)
        maes = {"TEVoT": [], "TEVoT-NH": []}
        for k, condition in enumerate(conditions):
            X = build_feature_matrix(stream, condition,
                                     bundle["tevot"].spec)
            X_nh = build_feature_matrix(stream, condition,
                                        bundle["tevot_nh"].spec)
            maes["TEVoT"].append(mean_absolute_error(
                trace.delays[k], bundle["tevot"].predict_delay(X)))
            maes["TEVoT-NH"].append(mean_absolute_error(
                trace.delays[k], bundle["tevot_nh"].predict_delay(X_nh)))
        return {m: float(np.mean(v)) for m, v in maes.items()}

    maes = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(
        f"Ablation - delay MAE with/without history ({fu_name}, sobel)",
        format_table(["model", "MAE (ps)"],
                     [[m, f"{v:.1f}"] for m, v in maes.items()]))
    # history never hurts, usually helps substantially
    assert maes["TEVoT"] <= maes["TEVoT-NH"] * 1.05
