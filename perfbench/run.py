"""Benchmark of the characterize -> train -> serve flow.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``campaign``, ``train``,
``serve_seq``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured without tracing:

* ``setup_s`` - median of three complete set-ups of the workload;
* ``peak_rss_mb`` - peak resident memory of the benchmark process over
  the set-ups and the loop, plus the peak of each worker process still
  alive at the end of the loop (the campaign pool's workers; a worker's
  peak includes the pages it shares with the process that forked it);
* ``op_p50_q1_ms`` - latency of one operation (a campaign, a train
  flow, or one POST): the loop is cut into windows of consecutive
  operations that each take at least a second, and this is the lower
  quartile of the windows' median latencies.  On a shared host another
  tenant can slow a whole stretch of a run; the lower quartile keeps
  such stretches out as long as they cover less than three quarters of
  it, where the plain median spread 0.30 over ten seeded ``serve_seq``
  runs.

``--trace 1`` sets up once under tracing, runs the loop untraced and
then again traced, and reports per-layer metrics from the traced
windows: ``*_s`` are layer self times summed over the windows (set-up
included), ``*_ms`` are means per call, and ``trace.unattributed_s`` is
the traced wall time no layer span covers.  A layer the workload never
calls reads 0.  ``trace.overhead_ratio`` is the traced over the untraced
median operation latency.

A line before the result holds the details: a stamp with the git sha,
CPU count and numpy/Python versions; the sample count, the plain median
and the tail latency
(the highest percentile with at least ten samples above it, or the
median when a run has too few samples) and the work done per second;
failure kinds and check results; in traced runs the per-layer
breakdown.  Tail latency and work per second are not bounded metrics:
on a shared 2-CPU host their run-to-run spread was wider than any bound
a regression check may use.

Every run works in a fresh directory under ``.bench_work/`` in the
checkout (trace store, model registry, ``REPRO_CACHE_DIR``, ``TMPDIR``)
and removes it at exit; servers bind ephemeral ports; pools, engines and
servers are closed, and leftover worker processes or shared-memory
segments make the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
WINDOW_S = 1.0
WORKLOAD_NAMES = ("campaign", "train", "serve_seq")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def git_sha() -> str:
    """HEAD's sha read from ``.git``, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """(value, percentile) of the highest percentile with >= 10 samples
    above it, never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - 11
    if i < n // 2:
        return median(ordered), 50.0
    return ordered[i], 100.0 * (i + 1) / n


def windowed_p50_q1(latencies):
    """Lower quartile of the median latencies of consecutive windows of
    operations that each take at least ``WINDOW_S``; a shorter last
    window is dropped unless it is the only one."""
    medians, window = [], []
    for x in latencies:
        window.append(x)
        if sum(window) >= WINDOW_S:
            medians.append(median(window))
            window = []
    if not medians:
        return median(window)
    if len(medians) == 1:
        return medians[0]
    return quantiles(medians, n=4, method="inclusive")[0]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of every live
    child process (read from ``/proc``, so before the children exit)."""
    import multiprocessing

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        status = Path(f"/proc/{child.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                kb += int(line.split()[1])
    return kb / 1024.0


def end_to_end(setups, loop, rss_mb):
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_p50_q1_ms": (1e3 * windowed_p50_q1(loop.latencies), "ms"),
    }


def per_layer(tracer, extras, untraced, traced):
    layers = tracer.layer_summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def total(layer, key="self_s"):
        return layers.get(layer, empty)[key]

    def per_call_ms(layer, key):
        entry = layers.get(layer, empty)
        return 1e3 * entry[key] / entry["calls"] if entry["calls"] else 0.0

    runs = tracer.campaign_runs
    sim_s = sum(r.sim_s for r in runs)
    capacity_s = sum(r.wall_s * r.workers for r in runs)
    model = tracer.last_fit
    trees = model.regressor.estimators_ if model is not None else []
    posts = layers.get("serve.server", empty)
    overhead_ms = (1e3 * (posts["total_s"] - total("serve.engine.batch",
                                                  "total_s"))
                   / posts["calls"] if posts["calls"] else 0.0)
    metrics = {
        "sim.compile.lower_s": (total("sim.compile.lower"), "s"),
        "flow.campaign.run_s": (total("flow.campaign.run"), "s"),
        "flow.campaign.sim_s": (sim_s, "s"),
        "flow.campaign.shards": (sum(r.shards for r in runs) / len(runs)
                                 if runs else 0.0, "count"),
        "flow.pool.busy_frac": (sim_s / capacity_s if capacity_s else 0.0,
                                "frac"),
        "flow.tracestore.put_s": (total("flow.tracestore.put"), "s"),
        "core.features.build_s": (total("core.features.build"), "s"),
        "ml.fit_s": (total("ml.fit"), "s"),
        "ml.nodes": (sum(t.n_nodes for t in trees), "count"),
        "ml.depth_max": (max((t.depth() for t in trees), default=0),
                         "count"),
        "serve.registry.publish_s": (total("serve.registry.publish"), "s"),
        "serve.registry.resolve_s": (total("serve.registry.resolve"), "s"),
        "serve.engine.batch_ms": (per_call_ms("serve.engine.batch",
                                              "total_s"), "ms"),
        "ml.predict_ms": (per_call_ms("ml.predict", "total_s"), "ms"),
        "serve.engine.featurize_ms": (per_call_ms("serve.engine.batch",
                                                  "self_s"), "ms"),
        "serve.server.overhead_ms": (overhead_ms, "ms"),
        "serve.batcher.mean_batch": (extras.get("serve.batcher.mean_batch",
                                                0.0), "count"),
        "trace.wall_s": (tracer.wall_s(), "s"),
        "trace.unattributed_s": (layers["unattributed"]["self_s"], "s"),
        "trace.overhead_ratio": (
            median(traced.latencies)
            / median(untraced.latencies), "ratio"),
    }
    return metrics, layers


def leftovers():
    """Worker processes still alive and shared-memory segments this
    process created and never unlinked."""
    import multiprocessing

    children = [p.name for p in multiprocessing.active_children()]
    shm = Path("/dev/shm")
    segments = ([p.name for p in shm.glob(f"repro_pool_{os.getpid()}_*")]
                if shm.is_dir() else [])
    return children, segments


def stop_resource_tracker() -> None:
    """The worker pool starts multiprocessing's resource tracker; stop it
    and wait for it so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(args, work: Path) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS
    import numpy

    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    setups = []
    try:
        if tracer is None:
            for i in range(SETUP_REPEATS):
                if i:
                    workload.close()
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            loop = workload.run(args.seconds)
            # before the checks, whose offline replays are not the program's,
            # and before close() reaps the pool workers
            rss_mb = peak_rss_mb()
        else:
            tracer.start()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            tracer.stop()
            untraced = workload.run(args.seconds)
            tracer.start()
            loop = workload.run(args.seconds)
            tracer.stop()
        checks = workload.check()
        extras = workload.layer_extras()
    finally:
        workload.close()
    children, segments = leftovers()

    if tracer is None:
        metrics = end_to_end(setups, loop, rss_mb)
        layers = None
    else:
        metrics, layers = per_layer(tracer, extras, untraced, loop)
    accounted = layers is None or layers["unattributed"]["self_s"] >= 0
    attempted = max(1, workload.attempted)
    failed = min(attempted, sum(workload.failures.values()))
    tail_s, tail_pct = tail(loop.latencies)
    detail = {
        "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": {"git_sha": git_sha(), "cpu_count": os.cpu_count(),
                  "numpy": numpy.__version__,
                  "python": platform.python_version()},
        "samples": len(loop.latencies),
        "op_p50_ms": 1e3 * median(loop.latencies), "op_tail_ms": 1e3 * tail_s,
        "tail_pct": tail_pct, "work_per_s": loop.work / loop.elapsed,
        "work_unit": workload.work_unit,
        "setups_s": setups, "succeeded": attempted - failed,
        "failed_frac": failed / attempted,
        "failures": dict(workload.failures), "checks": checks,
        "leftover_processes": children, "leftover_shm": segments,
    }
    if layers is not None:
        detail["layers"] = layers
    print("perfbench " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    return {
        "correct": bool(failed == 0 and accounted and not children
                        and not segments),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


@contextmanager
def bench_env():
    """A fresh work directory under ``.bench_work/`` holding the trace
    cache and temp files; removed, with the resource tracker stopped, on
    exit."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    base = ROOT / ".bench_work"
    work = base / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    for sub in ("cache", "tmp"):
        (work / sub).mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    # One BLAS thread: on a 2-CPU host the forest fit ran 15-25% slower
    # and spread wider with OpenBLAS's default thread per CPU, and the
    # fitted trees are identical either way.  Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        yield work
    finally:
        stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with bench_env() as work:
        result = run(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
