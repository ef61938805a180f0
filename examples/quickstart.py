#!/usr/bin/env python
"""Quickstart: train TEVoT for one FU and predict timing errors.

Walks the full Fig.-2 pipeline at a small scale through the
declarative ``repro.api`` layer — the same specs ``repro --config``
runs from TOML files:

1. elaborate a 32-bit integer adder to a gate netlist (the "synthesis"
   step of the simulated ASIC flow) and run STA at every corner,
2. characterize its dynamic delay over a few (V, T) corners with a
   ``CampaignSpec`` executed by a ``Workspace``,
3. train the TEVoT random-forest delay model from a ``TrainSpec``,
4. classify unseen cycles as timing correct / erroneous at an
   overclocked period and compare against simulation ground truth,
5. save the model to a per-run temporary directory and reload it.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import CampaignSpec, CornerSpec, StreamSpec, TrainSpec, Workspace
from repro.core import TEVoT, prediction_accuracy
from repro.core.features import build_feature_matrix
from repro.circuits import build_functional_unit
from repro.flow import error_free_clocks
from repro.timing import run_sta_corners, sped_up_clock


def main() -> None:
    corners = CornerSpec(voltages=(0.81, 0.90, 1.00),
                         temperatures=(0.0, 50.0, 100.0))
    conditions = corners.conditions()
    workspace = Workspace()  # default trace store, no registry

    print("== 1. simulated ASIC flow ==")
    netlist = build_functional_unit("int_add").netlist
    static = {r.condition: r.critical_delay
              for r in run_sta_corners(netlist, conditions)}
    print(f"netlist: {netlist!r}")
    for cond in conditions[:3]:
        print(f"  static delay @ {cond.label}: {static[cond]:.0f} ps")

    print("\n== 2. dynamic timing analysis (declarative campaign) ==")
    test_spec = CampaignSpec(fus=("int_add",), corners=corners,
                             stream=StreamSpec(cycles=1000, seed=1,
                                               name="test"))
    test_trace = workspace.characterize(test_spec).traces[0]

    print("\n== 3. train TEVoT from a TrainSpec ==")
    train_spec = TrainSpec(fu="int_add", corners=corners,
                           stream=StreamSpec(cycles=2000, seed=0,
                                             name="train"))
    print(f"spec fingerprint: {train_spec.fingerprint()} "
          f"(keys the artifact like any content hash)")
    trained = workspace.train(train_spec)
    model = trained.model
    clocks = error_free_clocks(trained.train_trace)
    cond = conditions[0]
    print(f"trained on {trained.n_rows} rows; "
          f"mean dynamic delay @ {cond.label}: "
          f"{trained.train_trace.delays[0].mean():.0f} ps "
          f"(static: {static[cond]:.0f} ps)")

    print("\n== 4. predict timing errors on unseen data ==")
    test_stream = test_spec.stream.build("int_add")
    for speedup in (0.05, 0.10, 0.15):
        accs = []
        for k, condition in enumerate(conditions):
            tclk = sped_up_clock(clocks[condition], speedup)
            truth = (test_trace.delays[k] > tclk).astype(int)
            features = build_feature_matrix(test_stream, condition,
                                            model.spec)
            pred = model.predict_errors(features, tclk)
            accs.append(prediction_accuracy(truth, pred))
        print(f"  +{speedup:.0%} clock speedup: "
              f"prediction accuracy {np.mean(accs)*100:.1f}%")

    # a fresh directory per run: parallel runs never share the file,
    # and it is removed on exit
    with tempfile.TemporaryDirectory(prefix="tevot_quickstart_") as tmp:
        path = Path(tmp) / "tevot_int_add.pkl"
        model.save(path)
        reloaded = TEVoT.load(path)
        if not np.array_equal(reloaded.predict_delay(features),
                              model.predict_delay(features)):
            raise SystemExit("the reloaded model predicts differently")
        print(f"\nmodel saved to {path} and reloaded with TEVoT.load: "
              f"identical predictions (the directory is removed on exit)")
    print("the same flow runs from a config file: "
          "python -m repro train --config examples/run.toml")


if __name__ == "__main__":
    main()
