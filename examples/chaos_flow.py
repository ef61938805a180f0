#!/usr/bin/env python
"""Chaos drill for the persistence layer: crash everywhere, recover.

For every registered persistence fault point, this driver runs the full
characterize -> publish -> record flow in a child process with
``REPRO_FAULT_PLAN=<site>:exit:<nth>`` armed, asserts the child really
died at the fault point (exit code 23), then reruns the same flow clean
and verifies every store reopened without error and converged:

- the trace store returns the campaign trace (cache hit or recovered),
- a checkpointed campaign killed mid-journal resumes its finished
  shards instead of re-simulating them,
- the model registry resolves the published model,
- the request log replays its sealed prefix and the rerun appends a
  complete session after it.

CI runs this as the chaos step::

    PYTHONPATH=src python examples/chaos_flow.py

Exit status is non-zero if any site fails to crash where told to or
fails to recover.
"""

import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import repro
import repro.flow.tracestore  # noqa: F401 - registers fault sites
import repro.serve.registry  # noqa: F401
import repro.serve.requestlog  # noqa: F401
from repro.flow import TraceStore
from repro.serve import ModelRegistry, read_request_log
from repro.testing import faults

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)

#: One full pipeline pass, run in a child so a fault can kill it.
FLOW = """
import sys
from pathlib import Path
from repro.circuits import build_functional_unit
from repro.core import TEVoT, build_training_set
from repro.flow import CampaignJob, CampaignRunner, TraceStore
from repro.serve import (ModelRegistry, PredictionEngine, PredictRequest,
                         RequestLog)
from repro.timing import OperatingCondition
from repro.workloads import random_stream

root = Path(sys.argv[1])
conds = [OperatingCondition(0.9, 25.0)]
fu = build_functional_unit("int_add", width=8)
stream = random_stream(200, operand_width=8, seed=3)
stream.name = "chaos_flow"

runner = CampaignRunner(store=TraceStore(root / "store"), shard_cycles=50)
trace = runner.run([CampaignJob(fu, stream, conds)])[0]
print(f"resumed_shards={runner.stats.resumed_shards}")

model = TEVoT(operand_width=8)
X, y = build_training_set(stream, conds, trace.delays, spec=model.spec)
model.fit(X, y)
registry = ModelRegistry(root / "registry")
registry.publish(model, fu=fu, conditions=conds, train_stream=stream)

engine = PredictionEngine(registry=registry, sim_fallback=False)
reqs = [PredictRequest(fu="int_add", a=i, b=i + 1, voltage=0.9,
                       temperature=25.0) for i in range(8)]
with RequestLog(root / "requests.jsonl") as log:
    log.append_batch(reqs[:4], engine.predict_batch(reqs[:4]))
    log.append_batch(reqs[4:], engine.predict_batch(reqs[4:]))
print("flow complete")
"""

#: Which hit of each site to kill at.  Later hits leave partial state
#: behind (journaled shards, a written artifact) so the rerun has real
#: recovery work to do, not just an empty directory.
KILL_AT = {
    "campaign.journal.replace": 3,  # two shards journaled, then killed
    "requestlog.append": 2,  # header sealed, killed mid first batch
}


def run_flow(root, plan=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(faults.PLAN_ENV, None)
    env.pop(faults.STATE_ENV, None)
    if plan is not None:
        env[faults.PLAN_ENV] = plan
    return subprocess.run([sys.executable, "-c", FLOW, str(root)],
                          env=env, capture_output=True, text=True)


def check_recovery(root, site, rerun_stdout):
    store = TraceStore(root / "store")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        entries = store.entries()
        assert entries, f"{site}: trace store lost the campaign trace"
        model, record = ModelRegistry(root / "registry").resolve("int_add")
        assert model is not None, f"{site}: registry lost the model"
        records = list(read_request_log(root / "requests.jsonl"))
    batches = [r for r in records if r["kind"] == "batch"]
    assert len(batches) >= 2, \
        f"{site}: rerun did not record a complete session"
    assert not list((root / "store").glob("journal_*.json")), \
        f"{site}: campaign journal not cleared after completion"
    if site == "campaign.journal.replace":
        assert "resumed_shards=2" in rerun_stdout, \
            f"{site}: rerun re-simulated journaled shards:\n{rerun_stdout}"
    return record.model_id


def main():
    sites = sorted(faults.persistence_sites())
    assert sites, "no persistence fault points registered"
    print(f"chaos drill over {len(sites)} persistence fault point(s)")
    for site in sites:
        nth = KILL_AT.get(site, 1)
        with tempfile.TemporaryDirectory(prefix="chaos_flow_") as tmp:
            root = Path(tmp)
            crashed = run_flow(root, plan=f"{site}:exit:{nth}")
            assert crashed.returncode == faults.EXIT_CODE, (
                f"{site}: expected crash (exit {faults.EXIT_CODE}), got "
                f"{crashed.returncode}:\n{crashed.stderr}")
            rerun = run_flow(root)
            assert rerun.returncode == 0, \
                f"{site}: rerun after crash failed:\n{rerun.stderr}"
            model_id = check_recovery(root, site, rerun.stdout)
            print(f"  {site}:exit:{nth} -> crashed, recovered, "
                  f"serving {model_id}")
    print("chaos drill passed: every crash recovered")


if __name__ == "__main__":
    main()
