"""Shared fixtures and reporting for the reproduction benches.

Each bench regenerates one table or figure of the paper at a reduced
default scale (documented in EXPERIMENTS.md).  Scale knobs:

* ``REPRO_BENCH_FULL_GRID=1`` — use all 100 Table-I corners instead of
  the 9-corner Fig.-3 subset.
* ``REPRO_BENCH_CYCLES`` — characterization cycles per stream
  (default 1500).
* ``REPRO_BENCH_BACKEND`` — simulation backend for every
  characterization (default: the campaign layer's default, the
  compiled level-parallel engine).
* ``REPRO_BENCH_WORKERS`` — campaign process-pool width (default 1).
* ``REPRO_BENCH_SHARD_CYCLES`` / ``REPRO_BENCH_SHARD_CORNERS`` —
  cycle- / corner-axis shard pitch for single jobs (default:
  auto-sized from the worker count by the static shard planner).
* ``REPRO_BENCH_SMOKE=1`` — shrink the simspeed bench to an
  import/parity smoke test (skips the throughput floors against the
  per-gate engine; the compact-vs-dense floor at 100 corners stays).

Rendered tables are printed in the pytest terminal summary and written
to ``benchmarks/results/latest/``, which git ignores, so running the
benches leaves the working tree clean.  The tables checked in under
``benchmarks/results/`` are a recorded run: copy the ``latest`` files
over them to record a new one.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.apps import app_stream, image_corpus, split_corpus
from repro.circuits import build_functional_unit
from repro.core.pipeline import train_models
from repro.flow import DEFAULT_BACKEND, CampaignJob, CampaignRunner
from repro.timing import fig3_corner_subset, paper_corner_grid
from repro.workloads import OperandStream, stream_for_unit

RESULTS_DIR = Path(__file__).parent / "results" / "latest"
_REPORTS: List[str] = []


def record_report(title: str, lines) -> None:
    """Queue a rendered table for the terminal summary + results file."""
    text = f"\n=== {title} ===\n" + "\n".join(lines)
    _REPORTS.append(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    safe = title.lower().replace(" ", "_").replace("/", "-")
    (RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for report in _REPORTS:
        terminalreporter.write_line(report)


def bench_cycles(default: int = 1500) -> int:
    return int(os.environ.get("REPRO_BENCH_CYCLES", default))


def characterize_one(runner: CampaignRunner, fu, stream,
                     conditions):
    """Single-job characterization via :meth:`CampaignRunner.run`, the
    batch API the rest of the pipeline uses."""
    return runner.run([CampaignJob(fu, stream, list(conditions))])[0]


@pytest.fixture(scope="session")
def conditions():
    """Operating-condition set for the benches."""
    if os.environ.get("REPRO_BENCH_FULL_GRID") == "1":
        return paper_corner_grid()
    return fig3_corner_subset()


@pytest.fixture(scope="session")
def campaign_runner():
    """Shared campaign runner for every bench characterization."""
    shard = os.environ.get("REPRO_BENCH_SHARD_CYCLES")
    shard_corners = os.environ.get("REPRO_BENCH_SHARD_CORNERS")
    return CampaignRunner(
        backend=os.environ.get("REPRO_BENCH_BACKEND", DEFAULT_BACKEND),
        n_workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
        shard_cycles=int(shard) if shard else None,
        shard_corners=int(shard_corners) if shard_corners else None)


@pytest.fixture(scope="session")
def corpus_split():
    """Synthetic image corpus split per the paper (5 % -> train)."""
    corpus = image_corpus(8, size=20, seed=0)
    return split_corpus(corpus, train_fraction=0.125, seed=0)


def concat_streams(name: str, streams) -> OperandStream:
    a = np.concatenate([s.a for s in streams])
    b = np.concatenate([s.b for s in streams])
    return OperandStream(name, a, b)


@pytest.fixture(scope="session")
def datasets(corpus_split):
    """Per-FU train stream (random + app sample) and 3 test streams."""
    train_images, test_images = corpus_split
    n = bench_cycles()

    def build(fu_name: str) -> Dict[str, OperandStream]:
        rand_train = stream_for_unit(fu_name, n, seed=10)
        rand_train.name = "random_train"
        sobel_sample = app_stream(fu_name, "sobel", train_images,
                                  max_cycles=n // 4)
        gauss_sample = app_stream(fu_name, "gauss", train_images,
                                  max_cycles=n // 4)
        train = concat_streams(
            f"train_mix_{fu_name}", [rand_train, sobel_sample, gauss_sample])

        rand_test = stream_for_unit(fu_name, n, seed=11)
        rand_test.name = "random_data"
        sobel_test = app_stream(fu_name, "sobel", test_images, max_cycles=n)
        sobel_test.name = "sobel_data"
        gauss_test = app_stream(fu_name, "gauss", test_images, max_cycles=n)
        gauss_test.name = "gauss_data"
        return {"train": train, "random": rand_test,
                "sobel": sobel_test, "gauss": gauss_test}

    cache: Dict[str, Dict[str, OperandStream]] = {}

    def get(fu_name: str) -> Dict[str, OperandStream]:
        if fu_name not in cache:
            cache[fu_name] = build(fu_name)
        return cache[fu_name]

    return get


@pytest.fixture(scope="session")
def trained_models(datasets, conditions, campaign_runner):
    """Session cache: fitted TEVoT/NH/baselines + clocks per FU."""
    cache = {}

    def get(fu_name: str):
        if fu_name not in cache:
            fu = build_functional_unit(fu_name)
            streams = datasets(fu_name)
            tevot, nh, delay_based, ter_based, train_trace, clocks = \
                train_models(fu, streams["train"], conditions,
                             max_train_rows=60_000, seed=0,
                             runner=campaign_runner)
            cache[fu_name] = {
                "fu": fu,
                "tevot": tevot,
                "tevot_nh": nh,
                "delay_based": delay_based,
                "ter_based": ter_based,
                "train_trace": train_trace,
                "clocks": clocks,
            }
        return cache[fu_name]

    return get


def format_table(headers, rows) -> List[str]:
    """Plain-text table renderer used by every bench report."""
    widths = [len(h) for h in headers]
    str_rows = []
    for row in rows:
        cells = [str(c) for c in row]
        str_rows.append(cells)
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines += [fmt.format(*cells) for cells in str_rows]
    return lines
