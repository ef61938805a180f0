"""Regenerate ``digests.json``, the reference outputs the benchmark checks.

Run from the repository root::

    python3 perfbench/record_digests.py [--seeds 100]

Campaign digests are recorded per seed from an unsharded in-process run
(not the worker pool the benchmark measures), and the train digest from
one train flow on its fixed stream.  Only rerun this for a change that is
meant to alter simulated delays or fitted trees.
"""

from __future__ import annotations

import argparse
import json

from run import bench_env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    with bench_env() as work:
        from repro.api import ShardSpec, SimSpec, Workspace
        from repro.flow.campaign import CampaignJob
        from workloads import (
            DIGESTS_PATH, TABLE1, Campaign, Train, array_digest, tree_digest)

        campaign = {}
        with Workspace(work / "campaign") as ws:
            fus = [ws.functional_unit(name) for name in Campaign.FUS]
            runner = ws.runner(SimSpec(), ShardSpec(workers=1), cache=False)
            for seed in range(args.seeds):
                streams = Campaign.streams_for(seed)
                traces = runner.run([CampaignJob(fu, streams[fu.name], TABLE1)
                                     for fu in fus])
                campaign[str(seed)] = array_digest(t.delays for t in traces)
        train = Train(0, work)
        model, _ = train.op(train.fresh_dir())
        digests = {"campaign": campaign, "train_tree": tree_digest(model)}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")


if __name__ == "__main__":
    main()
