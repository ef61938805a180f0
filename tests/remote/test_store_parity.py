"""The local and remote trace stores are interchangeable behind
:class:`~repro.flow.campaign.CampaignRunner`.

The runner takes either store object as-is, so every store method it
calls must accept the same arguments on both.  This test is what
enforces that contract: it compares parameter names, kinds and
defaults (annotations differ between the two and are not compared).
"""

import inspect
import re

import pytest

from repro.flow import CampaignRunner, TraceStore
from repro.remote import RemoteTraceStore

#: Every ``self.store.<method>(`` call in the runner's source.
RUNNER_STORE_METHODS = sorted(set(re.findall(
    r"self\.store\.(\w+)\(", inspect.getsource(CampaignRunner))))


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
