"""Simulation throughput: per-gate engine vs compiled kernels vs shards.

Offline characterization bounds everything downstream (training-set
generation, the speedup bench, every ablation), so this bench tracks
the perf trajectory of the simulation substrate:

* **kernel table** — cycles/sec of the per-gate reference engine
  (:class:`~repro.sim.levelized.LevelizedSimulator`, rebuilt per call
  exactly as the ``levelized_ref`` engine does) against the compiled
  level-parallel engine, per FU and corner count, with a bit-identity
  check on every measured run.  Floor: the compiled engine must clear
  ``MIN_KERNEL_SPEEDUP`` over the per-gate engine on the ``FLOOR_FU``
  at one corner.
* **corner-scaling table** — the multi-corner trajectory this repo's
  characterization actually runs (every paper table simulates the
  full corner grid): on the ``FLOOR_FU`` at 1/3/9/16/25/50/100
  corners, the dense and the toggle-compacted arrival kernels (each
  forced, whichever one ``run`` would pick) against each other, and
  against the per-gate engine up to 9 corners (rows above 9 corners
  run a campaign job's ``WIDE_CYCLES``), with the share of toggling
  (row, cycle) pairs the compact pass keeps as observable.  Every
  timed run is checked bit for bit.  Two floors:
  ``MIN_KERNEL_SPEEDUP_9C``, dense vs per-gate at 9 corners (the
  training grid), and ``MIN_COMPACT_SPEEDUP_100C``, compact vs dense
  at the 100-corner Table-I grid — asserted in smoke mode too.
* **settled-value table** — ``run_values`` throughput (the functional-
  verification pass), where the compiled engine's bit-packed
  level-parallel evaluation wins by an order of magnitude.
* **sharding table** — cold and warm wall time of one huge
  single-stream campaign job, inline and across worker/shard-grid
  configurations of the warm pool (cycle shards, corner shards, and
  mixed), reporting the planner's chosen grid and per-shard cold/warm
  timings, and asserting byte-identical stitched delay matrices
  whatever the configuration.  Scaling is reported, not asserted: CI
  boxes may have a single core, where the interesting number is how
  close the warm pool gets to the inline baseline.

``REPRO_BENCH_SMOKE=1`` shrinks every stream and skips the throughput
floors except ``MIN_COMPACT_SPEEDUP_100C`` (keeps the kernels imported,
exercised, and parity-checked on cheap CI runs).
"""

import contextlib
import os
import time

import numpy as np
import pytest

from conftest import format_table, record_report
from repro.circuits import build_functional_unit
from repro.flow import CampaignJob, CampaignRunner
from repro.sim import compile_netlist, run_delays
from repro.sim.compile import toggle_word_rows
from repro.sim.levelized import LevelizedSimulator
from repro.timing import DEFAULT_LIBRARY, OperatingCondition
from repro.timing.corners import paper_corner_grid
from repro.workloads import stream_for_unit

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
# long enough that per-call constants (program lookup, scratch pages)
# amortize the way they do in real campaign streams
CYCLES = 130 if SMOKE else int(os.environ.get("REPRO_BENCH_CYCLES", 6000))
SHARD_JOB_CYCLES = 400 if SMOKE else 12_000
#: Both floors were first set against a per-gate *bit-packed* engine
#: (5.0x at 1 corner, 3.3x at 9), which has since been removed.  They
#: are re-based onto the per-gate levelized engine so they still assert
#: the same compiled speed: new floor = old floor x median(t_levelized
#: / t_bitpacked), both per-gate, each timed with :func:`_time` on
#: FLOOR_FU over CYCLES=6000 cycles on the last commit that had both
#: (2-vCPU Xeon VM, numpy 2.4, Python 3.11).  32 runs per corner count
#: (12 levelized-first, then 20 alternating which engine ran first):
#:
#: * 1 corner (seed 42): ratios 0.768-1.172, quartiles 0.902/1.037,
#:   median 0.942 -> 5.0 x 0.942
#: * 9 corners (seed 45): ratios 0.712-1.213, quartiles 0.891/1.025,
#:   median 0.940 -> 3.3 x 0.940
#:
#: floor for compiled vs the per-gate engine on FLOOR_FU at 1 corner.
MIN_KERNEL_SPEEDUP = 5.0 * 0.942
#: floor at the full 9-corner grid (the regime campaigns run in) —
#: the corner-aware arrival kernels must keep most of their edge as
#: the corner axis widens, not just at one corner.  The asserted floor
#: leaves headroom because the compiled engine is memory-bandwidth-
#: bound and shared-VM contention slows it asymmetrically vs the
#: dispatch-bound per-gate reference.  Losing any one of the structural
#: optimizations (dead-cone exclusion, level-1 corner collapse,
#: cache-sized sub-blocks) lands the ratio well below this and trips
#: it reliably.
MIN_KERNEL_SPEEDUP_9C = 3.3 * 0.940
#: floor for the toggle-compacted arrival pass vs the dense one on
#: FLOOR_FU at the 100-corner Table-I grid.  With observable-toggle
#: pruning it measured 9.4-10.5x at 130 cycles (smoke, 3 runs) and
#: 11.05x at 1000 (the recorded table; 2-vCPU VM, numpy 2.4).  Without
#: pruning it was ~3.4x and ~2.8x, so the floor, which leaves room for
#: shared-box noise, also trips if the pruning is lost.
MIN_COMPACT_SPEEDUP_100C = 5.0
FLOOR_FU = "int_mul"
LARGE_FUS = ("int_mul", "fp_mul")  # 3540 / 4182 gates

CORNER_SETS = {
    1: [OperatingCondition(0.90, 25.0)],
    2: [OperatingCondition(0.81, 0.0), OperatingCondition(1.00, 100.0)],
}

def _table1_corners(n):
    """``n`` distinct Table-I corners spread over the 100-corner grid."""
    grid = paper_corner_grid()
    return [grid[i] for i in
            np.linspace(0, len(grid) - 1, n).round().astype(int)]


#: corner grids for the corner-scaling table: a 3x3 V/T grid at 9, then
#: Table-I subsets up to the full grid.
SCALING_CORNER_SETS = {
    1: [OperatingCondition(0.90, 25.0)],
    3: [OperatingCondition(0.81, 0.0), OperatingCondition(0.90, 50.0),
        OperatingCondition(1.00, 100.0)],
    9: [OperatingCondition(v, t) for v in (0.81, 0.90, 1.00)
        for t in (0.0, 50.0, 100.0)],
    **{n: _table1_corners(n) for n in (16, 25, 50, 100)},
}
#: the per-gate engine is timed up to this corner count (beyond it a
#: full-length run takes tens of seconds)
PER_GATE_MAX_CORNERS = 9
#: stream length of the wider rows: a campaign job's 1000 cycles (a
#: 6000-cycle dense run at 100 corners takes ~5 s a rep)
WIDE_CYCLES = 130 if SMOKE else 1000


def _per_gate(netlist, inputs, delay_matrix):
    """One ``levelized_ref``-style call: rebuild the simulator, then run."""
    return LevelizedSimulator(netlist).run(inputs, delay_matrix)


def _record(title, lines):
    """Write the report only on full runs: smoke mode must not clobber
    the committed full-scale result tables with 130-cycle numbers."""
    if not SMOKE:
        record_report(title, lines)


def _time(fn, min_reps=2):
    """Best-of-reps wall time: min filters scheduler noise out of the
    speedup ratios (shared CI boxes inflate individual reps)."""
    budget = 0.05 if SMOKE else 0.4
    fn()  # warm caches (and the compiled program) out of the timing
    best = float("inf")
    reps = 0
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - rep_start)
        reps += 1
        if reps >= min_reps and time.perf_counter() - start > budget:
            return best


def _time_pair(ref, comp, rounds=3, comp_reps=2):
    """Best-of-reps wall times of a reference and a compiled run, timed
    in alternating rounds for a speedup floor: a burst of contention on
    a shared box then lands on both engines' reps instead of on
    whichever one happened to be timed during it."""
    ref()  # warm caches (and the compiled program) out of the timing
    comp()
    best_ref = best_comp = float("inf")
    for _ in range(rounds):
        rep_start = time.perf_counter()
        ref()
        best_ref = min(best_ref, time.perf_counter() - rep_start)
        for _ in range(comp_reps):
            rep_start = time.perf_counter()
            comp()
            best_comp = min(best_comp, time.perf_counter() - rep_start)
    return best_ref, best_comp


@pytest.mark.benchmark(group="simspeed")
def test_compiled_kernel_throughput(benchmark):
    rows, floors = benchmark.pedantic(_measure_kernels, rounds=1,
                                      iterations=1)
    _record(
        "Simspeed - compiled kernels vs per-gate engines",
        format_table(["fu", "corners", "engine", "cycles/s",
                      "vs per-gate"], rows))
    if not SMOKE:
        speedup = floors[FLOOR_FU]
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"compiled engine is {speedup:.2f}x the per-gate engine on "
            f"{FLOOR_FU} (floor {MIN_KERNEL_SPEEDUP:.3f}x)")


def _measure_kernels():
    rows = []
    floors = {}
    for fu_name in LARGE_FUS:
        fu = build_functional_unit(fu_name)
        inputs = stream_for_unit(fu_name, CYCLES, seed=42).bit_matrix(fu)
        for n_corners, conditions in CORNER_SETS.items():
            dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, conditions)

            ref_run = (lambda: _per_gate(fu.netlist, inputs, dm))
            comp_run = (lambda: run_delays("compiled", fu.netlist,
                                           inputs, dm))
            np.testing.assert_array_equal(
                comp_run(), ref_run(),
                err_msg=f"{fu_name}/{n_corners}-corner delay parity")
            per_gate, compiled = _time_pair(ref_run, comp_run)
            measured = {"levelized (per-gate)": per_gate,
                        "compiled": compiled}
            for label, seconds in measured.items():
                rows.append([fu_name, f"{n_corners}", label,
                             f"{CYCLES / seconds:,.0f}",
                             f"{per_gate / seconds:.1f}x"])
            if n_corners == 1:
                floors[fu_name] = per_gate / measured["compiled"]
    return rows, floors


@contextlib.contextmanager
def _forced_kernel(prog, compact):
    """Make ``prog.run`` take one arrival kernel whatever the corner
    count, by moving the crossover it reads."""
    saved = prog.compact_min_corners
    prog.compact_min_corners = 1 if compact else 1 << 30
    try:
        yield
    finally:
        prog.compact_min_corners = saved


def _checked(fn, expected, what):
    """Wrap a timed run so every call is checked bit for bit."""
    def run():
        got = fn()
        assert got.tobytes() == expected, what
    return run


@pytest.mark.benchmark(group="simspeed")
def test_corner_scaling(benchmark):
    rows, ratio_9c, compact_100c = benchmark.pedantic(
        _measure_corner_scaling, rounds=1, iterations=1)
    _record(
        "Simspeed - corner scaling on int_mul",
        format_table(["corners", "cycles", "per-gate cyc/s",
                      "dense cyc/s", "compact cyc/s", "dense vs per-gate",
                      "compact vs dense", "kept / toggling pairs",
                      "run picks"], rows))
    if not SMOKE:
        assert ratio_9c >= MIN_KERNEL_SPEEDUP_9C, (
            f"compiled engine is {ratio_9c:.2f}x the per-gate engine on "
            f"{FLOOR_FU} at 9 corners "
            f"(floor {MIN_KERNEL_SPEEDUP_9C:.3f}x)")
    assert compact_100c >= MIN_COMPACT_SPEEDUP_100C, (
        f"compact arrival pass is {compact_100c:.2f}x the dense one on "
        f"{FLOOR_FU} at 100 corners "
        f"(floor {MIN_COMPACT_SPEEDUP_100C:.1f}x)")


def _kept_share(prog, rows_in):
    """Share of the toggling (live row, cycle) pairs of a stream that
    the compact pass keeps as observable (the mask is per cycle, so one
    whole-stream walk equals the chunked ones)."""
    values = prog.settled_net_values(rows_in, live_only=True)
    tog = toggle_word_rows(values, rows_in.shape[0] - 1)
    kept = prog.observable_toggles(tog)
    n_tog = np.unpackbits(tog.view(np.uint8)).sum()
    return np.unpackbits(kept.view(np.uint8)).sum() / n_tog


def _measure_corner_scaling():
    fu = build_functional_unit(FLOOR_FU)
    inputs = stream_for_unit(FLOOR_FU, CYCLES, seed=45).bit_matrix(fu)
    prog = compile_netlist(fu.netlist)
    rows = []
    ratio_9c = compact_100c = None
    for n_corners, conditions in SCALING_CORNER_SETS.items():
        dm = DEFAULT_LIBRARY.delay_matrix(fu.netlist, conditions)
        n_cycles = (CYCLES if n_corners <= PER_GATE_MAX_CORNERS
                    else min(CYCLES, WIDE_CYCLES))
        rows_in = inputs[:n_cycles + 1]
        with _forced_kernel(prog, False):
            expected = prog.run(rows_in, dm).tobytes()
        what = f"{FLOOR_FU}/{n_corners}-corner delay parity"

        def dense(dm=dm, rows_in=rows_in):
            with _forced_kernel(prog, False):
                return prog.run(rows_in, dm)

        def compact(dm=dm, rows_in=rows_in):
            with _forced_kernel(prog, True):
                return prog.run(rows_in, dm)

        dense_run = _checked(dense, expected, what)
        compact_run = _checked(compact, expected, what)
        per_gate_cell = ratio_cell = "-"
        if n_corners <= PER_GATE_MAX_CORNERS:
            ref_run = _checked(
                lambda dm=dm: _per_gate(fu.netlist, inputs, dm),
                expected, what)
            t_ref, t_dense = _time_pair(ref_run, dense_run)
            per_gate_cell = f"{n_cycles / t_ref:,.0f}"
            ratio_cell = f"{t_ref / t_dense:.1f}x"
            if n_corners == 9:
                ratio_9c = t_ref / t_dense
        t_dense, t_compact = _time_pair(dense_run, compact_run)
        if n_corners == 100:
            compact_100c = t_dense / t_compact
        picks = ("compact" if n_corners >= prog.compact_min_corners
                 else "dense")
        rows.append([f"{n_corners}", f"{n_cycles}", per_gate_cell,
                     f"{n_cycles / t_dense:,.0f}",
                     f"{n_cycles / t_compact:,.0f}", ratio_cell,
                     f"{t_dense / t_compact:.2f}x",
                     f"{_kept_share(prog, rows_in):.1%}", picks])
    return rows, ratio_9c, compact_100c


@pytest.mark.benchmark(group="simspeed")
def test_settled_value_throughput(benchmark):
    rows = benchmark.pedantic(_measure_values, rounds=1, iterations=1)
    _record("Simspeed - settled-value (run_values) throughput",
                  format_table(["fu", "engine", "rows/s"], rows))


def _measure_values():
    rows = []
    for fu_name in LARGE_FUS:
        fu = build_functional_unit(fu_name)
        inputs = stream_for_unit(fu_name, CYCLES, seed=43).bit_matrix(fu)
        reference = LevelizedSimulator(fu.netlist).run_values(inputs)
        for label, run in (
            ("levelized (per-gate)",
             lambda: LevelizedSimulator(fu.netlist).run_values(inputs)),
            ("compiled",
             lambda: compile_netlist(fu.netlist).run_values(inputs)),
        ):
            np.testing.assert_array_equal(run(), reference,
                                          err_msg=f"{fu_name}/{label}")
            seconds = _time(run)
            rows.append([fu_name, label, f"{CYCLES / seconds:,.0f}"])
    return rows


@pytest.mark.benchmark(group="simspeed")
def test_shard_grid_scaling(benchmark):
    rows = benchmark.pedantic(_measure_sharding, rounds=1, iterations=1)
    rows.insert(0, ["job", f"{SHARD_JOB_CYCLES} cycles",
                    f"{os.cpu_count()} cpu(s)", "", "", "", "", ""])
    _record(
        "Simspeed - corner x cycle sharding of one int_mul job",
        format_table(["workers", "pool", "grid", "shards", "cold (s)",
                      "warm (s)", "speedup", "shard cold/warm (s)"],
                     rows))


def _shard_report(cold_stats, warm_stats):
    """(grid, per-shard cold/warm) cells from the two runs' stats."""
    grid = warm_stats.job_grids.get(0)
    grid_cell = f"{grid[0]}c x {grid[1]}t" if grid else "-"
    cold = [s.seconds for s in cold_stats.shard_log if s.warm is False]
    warm = [s.seconds for s in warm_stats.shard_log if s.warm]
    if not cold:  # inline runs cannot observe worker state
        cold = [s.seconds for s in cold_stats.shard_log]
    if not warm:
        warm = [s.seconds for s in warm_stats.shard_log]
    return grid_cell, (f"{sum(cold) / len(cold):.2f}/"
                       f"{sum(warm) / len(warm):.2f}")


def _measure_sharding():
    fu = build_functional_unit("int_mul")
    stream = stream_for_unit("int_mul", SHARD_JOB_CYCLES, seed=44)
    stream.name = "bench_simspeed_shard"
    conditions = SCALING_CORNER_SETS[3]

    rows = []
    reference = None
    base_warm = None
    # (pool label, runner kwargs): the persistent warm pool against the
    # inline baseline
    configs = [
        ("inline", dict(n_workers=1)),
        ("warm", dict(n_workers=2)),
        ("warm", dict(n_workers=4)),
        ("warm", dict(n_workers=2, shard_corners=1)),   # corner-parallel
        ("warm", dict(n_workers=2, shard_corners=2,
                      shard_cycles=SHARD_JOB_CYCLES // 4)),  # 2-D grid
    ]
    for pool_label, kwargs in configs:
        with CampaignRunner(use_cache=False, **kwargs) as runner:
            start = time.perf_counter()
            trace = runner.run([CampaignJob(fu, stream, conditions)])[0]
            cold = time.perf_counter() - start
            cold_stats = runner.stats
            # second run through the same (now warm) pool: workers hold
            # the compiled program and the registered payload, tasks are
            # tiny descriptors
            start = time.perf_counter()
            warm_trace = runner.run(
                [CampaignJob(fu, stream, conditions)])[0]
            warm = time.perf_counter() - start
            warm_stats = runner.stats
        if reference is None:
            reference, base_warm = trace, warm
        # byte-identical whatever the worker count, shard grid, or pool
        assert trace.delays.tobytes() == reference.delays.tobytes()
        assert warm_trace.delays.tobytes() == reference.delays.tobytes()
        grid_cell, shard_cell = _shard_report(cold_stats, warm_stats)
        rows.append([f"{kwargs['n_workers']}", pool_label, grid_cell,
                     f"{warm_stats.total_shards}", f"{cold:.2f}",
                     f"{warm:.2f}", f"{base_warm / warm:.2f}x",
                     shard_cell])

    return rows
