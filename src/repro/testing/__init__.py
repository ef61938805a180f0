"""Test-support machinery that ships with the package.

`repro.testing.faults` is imported by production modules (tracestore,
registry, request log, pool, remote client) to plant named fault points, so it
lives in the package proper rather than under tests/.
"""
from . import faults
from .faults import (
    EXIT_CODE,
    TORN_EXIT_CODE,
    FaultInjected,
    FaultPlanError,
    FaultRule,
    consume_crash_token,
    crash_token_hook,
    fault_point,
    parse_plan,
    persistence_sites,
    register_site,
    registered_sites,
    trigger,
)

__all__ = [
    "EXIT_CODE",
    "TORN_EXIT_CODE",
    "FaultInjected",
    "FaultPlanError",
    "FaultRule",
    "consume_crash_token",
    "crash_token_hook",
    "fault_point",
    "faults",
    "parse_plan",
    "persistence_sites",
    "register_site",
    "registered_sites",
    "trigger",
]
