"""End-to-end TEVoT pipeline (Fig. 2): DTA -> training -> evaluation.

:func:`experiment_impl` performs the whole Table III protocol for one
(FU, dataset) pair: characterize the training workload, derive the
per-corner error-free clocks, train TEVoT / TEVoT-NH and fit the
Delay-based / TER-based baselines on the *training* trace, then score
every model on the *test* workload's ground-truth delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits.functional_units import FunctionalUnit
from ..flow.campaign import CampaignJob, CampaignRunner, error_free_clocks
from ..sim.dta import DelayTrace
from ..timing.cells import CellLibrary, DEFAULT_LIBRARY
from ..timing.corners import (
    CLOCK_SPEEDUPS,
    OperatingCondition,
    sped_up_clock,
)
from ..workloads.streams import OperandStream
from .baselines import DelayBasedModel, TERBasedModel, make_tevot_nh
from .evaluation import SweepResult, evaluate_models
from .features import build_training_set
from .model import TEVoT


@dataclass
class ExperimentResult:
    """Everything produced by one (FU, dataset) experiment."""

    fu_name: str
    dataset: str
    sweep: SweepResult
    tevot: TEVoT
    tevot_nh: TEVoT
    delay_based: DelayBasedModel
    ter_based: TERBasedModel
    train_trace: DelayTrace
    test_trace: DelayTrace
    clocks: Dict[OperatingCondition, float]

    def summary(self) -> Dict[str, float]:
        return self.sweep.averages().as_dict()

    def publish(self, registry) -> List:
        """Publish all four trained models; see :func:`publish_models`."""
        return publish_models(registry, self)


def publish_models(registry, result: "ExperimentResult",
                   metadata: Optional[Dict] = None) -> List:
    """Publish an experiment's models into a serving registry.

    ``registry`` is a :class:`~repro.serve.registry.ModelRegistry` or a
    directory path for one.  Each of TEVoT, TEVoT-NH, and the two
    baselines becomes one versioned artifact keyed by the FU, the
    corner grid, the training-stream fingerprint (from the train
    trace's input bits), and the feature-spec version.  Returns the new
    :class:`~repro.serve.registry.ModelRecord` list.
    """
    # imported here: repro.serve depends on repro.core, not vice versa
    from ..serve.registry import ModelRegistry

    if not isinstance(registry, ModelRegistry):
        registry = ModelRegistry(registry)
    conditions = result.train_trace.conditions
    train_inputs = result.train_trace.inputs
    meta = {"dataset": result.dataset, **(metadata or {})}
    records = []
    for kind, model in (("tevot", result.tevot),
                        ("tevot_nh", result.tevot_nh),
                        ("delay_based", result.delay_based),
                        ("ter_based", result.ter_based)):
        records.append(registry.publish(
            model, fu=result.fu_name, kind=kind, conditions=conditions,
            train_stream=train_inputs, metadata=meta))
    return records


def train_models(fu: FunctionalUnit,
                 train_stream: OperandStream,
                 conditions: Sequence[OperatingCondition],
                 library: CellLibrary = DEFAULT_LIBRARY,
                 max_train_rows: int = 200_000,
                 speedups: Sequence[float] = CLOCK_SPEEDUPS,
                 seed: int = 0,
                 use_cache: bool = True,
                 runner: Optional[CampaignRunner] = None,
                 train_trace: Optional[DelayTrace] = None):
    """Characterize a training stream and fit all four models.

    ``runner`` selects the campaign runner (backend, store, worker
    pool); a default one is built when omitted.  A precomputed
    ``train_trace`` (e.g. from a batched campaign) skips the
    characterization step.  Returns ``(tevot, tevot_nh, delay_based,
    ter_based, train_trace, clocks)``.
    """
    if train_trace is None:
        if runner is None:
            runner = CampaignRunner(use_cache=use_cache)
        train_trace = runner.run([CampaignJob(fu, train_stream,
                                              list(conditions), library)])[0]
    clocks = error_free_clocks(train_trace)

    tevot = TEVoT(operand_width=fu.operand_width)
    X, y = build_training_set(train_stream, train_trace.conditions,
                              train_trace.delays, spec=tevot.spec,
                              max_rows=max_train_rows, seed=seed)
    tevot.fit(X, y)

    nh = make_tevot_nh(operand_width=fu.operand_width)
    X_nh, y_nh = build_training_set(train_stream, train_trace.conditions,
                                    train_trace.delays, spec=nh.spec,
                                    max_rows=max_train_rows, seed=seed)
    nh.fit(X_nh, y_nh)

    delay_based = DelayBasedModel().fit(train_trace.conditions,
                                        train_trace.delays)
    clock_table = {
        condition: [sped_up_clock(clocks[condition], s) for s in speedups]
        for condition in train_trace.conditions
    }
    ter_based = TERBasedModel(seed=seed).fit(train_trace.conditions,
                                             train_trace.delays, clock_table)
    return tevot, nh, delay_based, ter_based, train_trace, clocks


def experiment_impl(fu: FunctionalUnit,
                    train_stream: OperandStream,
                    test_stream: OperandStream,
                    conditions: Sequence[OperatingCondition],
                    library: CellLibrary = DEFAULT_LIBRARY,
                    max_train_rows: int = 200_000,
                    speedups: Sequence[float] = CLOCK_SPEEDUPS,
                    seed: int = 0,
                    runner: Optional[CampaignRunner] = None,
                    registry=None) -> ExperimentResult:
    """Full Fig.-2 protocol over already-built objects.

    The working core behind :meth:`repro.api.Workspace.experiment`
    (which expands a declarative :class:`~repro.api.ExperimentSpec`).
    The train and
    test characterizations run as one campaign batch, so a runner with
    ``n_workers > 1`` overlaps them; a ``registry`` (path or
    :class:`~repro.serve.registry.ModelRegistry`) publishes the
    trained models for serving before returning.
    """
    conditions = list(conditions)
    if runner is None:
        runner = CampaignRunner()
    train_trace, test_trace = runner.run([
        CampaignJob(fu, train_stream, conditions, library),
        CampaignJob(fu, test_stream, conditions, library),
    ])

    tevot, nh, delay_based, ter_based, train_trace, clocks = train_models(
        fu, train_stream, conditions, library,
        max_train_rows=max_train_rows, speedups=speedups, seed=seed,
        runner=runner, train_trace=train_trace)
    sweep = evaluate_models(tevot, nh, delay_based, ter_based,
                            test_stream, test_trace, clocks, speedups)
    result = ExperimentResult(
        fu_name=fu.name,
        dataset=test_stream.name,
        sweep=sweep,
        tevot=tevot,
        tevot_nh=nh,
        delay_based=delay_based,
        ter_based=ter_based,
        train_trace=train_trace,
        test_trace=test_trace,
        clocks=clocks,
    )
    if registry is not None:
        result.publish(registry)
    return result
