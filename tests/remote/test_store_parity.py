"""The local and remote stores are interchangeable behind their callers.

:class:`~repro.flow.campaign.CampaignRunner` takes either trace store
object as-is, and :class:`~repro.serve.engine.PredictionEngine`,
:class:`~repro.api.workspace.Workspace` and :mod:`repro.core.pipeline`
take either model registry as-is.  So every method those callers use
must accept the same arguments on both classes.  These tests enforce
that contract: they compare parameter names, kinds and defaults
(annotations differ between the two and are not compared).
"""

import inspect
import re

import pytest

from repro.api import Workspace
from repro.core import pipeline
from repro.flow import CampaignRunner, TraceStore
from repro.remote import RemoteModelRegistry, RemoteTraceStore
from repro.serve import ModelRegistry, PredictionEngine

#: Every ``self.store.<method>(`` call in the runner's source.
RUNNER_STORE_METHODS = sorted(set(re.findall(
    r"self\.store\.(\w+)\(", inspect.getsource(CampaignRunner))))

#: Every ``registry.<method>(`` call in the registry's callers, plus the
#: two methods reached another way: ``len(registry)`` in ``/health`` and
#: ``manifest_fingerprint`` on the store service's fingerprint route.
REGISTRY_METHODS = sorted(set(re.findall(
    r"registry\.(\w+)\(", "".join(inspect.getsource(obj) for obj in (
        PredictionEngine, Workspace, pipeline)))) | {
    "__len__", "manifest_fingerprint"})


def _shape(cls, method):
    return [(p.name, p.kind, p.default) for p in
            inspect.signature(getattr(cls, method)).parameters.values()]


def test_runner_store_calls_found():
    # guards the source scan above against silently matching nothing
    assert {"get", "put", "get_throughput", "record_throughput",
            "load_journal", "record_journal_shard",
            "clear_journal"} <= set(RUNNER_STORE_METHODS)


@pytest.mark.parametrize("method", RUNNER_STORE_METHODS)
def test_signatures_match(method):
    assert _shape(TraceStore, method) == _shape(RemoteTraceStore, method)


def test_registry_calls_found():
    # guards the registry scan the same way
    assert {"resolve", "publish"} <= set(REGISTRY_METHODS)


@pytest.mark.parametrize("method", REGISTRY_METHODS)
def test_registry_signatures_match(method):
    assert _shape(ModelRegistry, method) == \
        _shape(RemoteModelRegistry, method)
