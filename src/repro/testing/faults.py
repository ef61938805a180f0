"""Deterministic fault injection for crash-safety testing.

Production persistence code plants *named fault points* (for example
``fault_point("tracestore.manifest.replace")``).  In normal operation a
fault point is a no-op costing one dict lookup.  Under test, the
environment variable ``REPRO_FAULT_PLAN`` arms a plan of rules::

    REPRO_FAULT_PLAN=site:action:nth[,site:action:nth ...]

* ``site``   — the fault-point name (``tracestore.blob.write``, ...)
* ``action`` — ``raise`` (raise :class:`FaultInjected`), ``exit``
  (``os._exit(EXIT_CODE)`` — simulates ``kill -9`` mid-operation),
  ``hang`` (sleep :func:`hang_seconds` — the process is alive but
  wedged, the failure mode only a watchdog can see; the sleep length
  comes from ``REPRO_FAULT_HANG_S`` so a broken watchdog fails a test
  instead of freezing the suite), or
  ``torn-write`` (the caller writes a truncated artifact to the *final*
  path, then ``os._exit(TORN_EXIT_CODE)`` — simulates a crash while a
  legacy in-place writer was mid-write)
* ``nth``    — trigger on the nth *hit* of that site (1-based)

Because the plan rides in the environment, forked pool workers
inherit and honor it, which makes multi-process crash tests replayable.

Hit counters are per-process.  For plans that must fire **once
globally** across respawned workers or across two invocations of the
same command (crash run, then clean rerun), set ``REPRO_FAULT_STATE`` to
a scratch directory: each rule then records its firing in a marker file
created with ``O_CREAT | O_EXCL``, and never fires twice.

The pool's respawn/reissue path is driven the same way: the fault point
``pool.worker.task`` fires at task receipt in every worker, so
``pool.worker.task:exit:1`` with ``REPRO_FAULT_STATE`` kills exactly one
worker mid-task, and without it kills every freshly forked worker.
"""
from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

PLAN_ENV = "REPRO_FAULT_PLAN"
STATE_ENV = "REPRO_FAULT_STATE"
HANG_ENV = "REPRO_FAULT_HANG_S"

#: default ``hang`` sleep — long enough that any sane watchdog fires
#: first, short enough that a broken one eventually unblocks the suite.
DEFAULT_HANG_SECONDS = 300.0

#: exit status used by the ``exit`` action (distinct from real crashes).
EXIT_CODE = 23
#: exit status used by the ``torn-write`` action.
TORN_EXIT_CODE = 25

ACTIONS = ("raise", "exit", "hang", "torn-write")


class FaultPlanError(ValueError):
    """REPRO_FAULT_PLAN is malformed.  Always fails loudly."""


class FaultInjected(RuntimeError):
    """Raised by the ``raise`` action at an armed fault point."""


@dataclass(frozen=True)
class FaultRule:
    site: str
    action: str
    nth: int

    @property
    def tag(self) -> str:
        return f"{self.site}:{self.action}:{self.nth}"


# Sites register at import time of the module that plants them, so a
# chaos test can enumerate every persistence fault point it must cover.
_SITES: Dict[str, bool] = {}
_HITS: Dict[str, int] = {}
_FIRED: set = set()
_LOCK = threading.Lock()


def register_site(site: str, *, persistence: bool = False) -> str:
    """Declare a fault point.  ``persistence=True`` marks sites whose
    ``exit`` injection must leave the store reopenable (the chaos suite
    iterates exactly these)."""
    with _LOCK:
        _SITES[site] = _SITES.get(site, False) or persistence
    return site


def registered_sites() -> Tuple[str, ...]:
    with _LOCK:
        return tuple(sorted(_SITES))


def persistence_sites() -> Tuple[str, ...]:
    with _LOCK:
        return tuple(sorted(s for s, p in _SITES.items() if p))


def parse_plan(text: str) -> List[FaultRule]:
    rules = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise FaultPlanError(
                f"bad fault rule {chunk!r}: want site:action:nth")
        site, action, nth_s = parts
        if action not in ACTIONS:
            raise FaultPlanError(
                f"bad fault action {action!r} in {chunk!r}: "
                f"want one of {'/'.join(ACTIONS)}")
        try:
            nth = int(nth_s)
        except ValueError:
            raise FaultPlanError(
                f"bad fault count {nth_s!r} in {chunk!r}") from None
        if nth < 1:
            raise FaultPlanError(f"fault count must be >= 1 in {chunk!r}")
        rules.append(FaultRule(site, action, nth))
    return rules


def active_plan() -> List[FaultRule]:
    text = os.environ.get(PLAN_ENV, "")
    if not text:
        return []
    return parse_plan(text)


def reset() -> None:
    """Forget per-process hit counts (test isolation helper)."""
    with _LOCK:
        _HITS.clear()
        _FIRED.clear()


def _claim_global(rule: FaultRule) -> bool:
    """True if this rule may fire.  With REPRO_FAULT_STATE set, firing
    is recorded in a marker file so the rule fires once *globally* —
    across forked workers and across process invocations."""
    state_dir = os.environ.get(STATE_ENV, "")
    if not state_dir:
        return True
    os.makedirs(state_dir, exist_ok=True)
    marker = os.path.join(
        state_dir,
        "fired-" + rule.tag.replace(":", "_").replace("/", "_"))
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
    finally:
        os.close(fd)
    return True


def hang_seconds() -> float:
    """How long the ``hang`` action sleeps (``REPRO_FAULT_HANG_S``)."""
    raw = os.environ.get(HANG_ENV, "")
    try:
        return float(raw) if raw else DEFAULT_HANG_SECONDS
    except ValueError:
        return DEFAULT_HANG_SECONDS


def trigger(site: Optional[str]) -> Optional[str]:
    """Record a hit at ``site`` and return the armed action, if any.

    Callers that can produce a torn artifact themselves (npz / pickle
    writers) use the returned action; plain callers use
    :func:`fault_point`.  Returns None when nothing is armed — the
    common case, which costs one env lookup.

    The ``hang`` action is handled *here*, uniformly for every site:
    the process sleeps :func:`hang_seconds` and then proceeds normally
    (returning None), so to a supervising parent it is indistinguishable
    from a wedged worker until a watchdog intervenes.
    """
    if site is None or PLAN_ENV not in os.environ:
        return None
    rules = active_plan()
    if not rules:
        return None
    with _LOCK:
        n = _HITS.get(site, 0) + 1
        _HITS[site] = n
        matched = None
        for rule in rules:
            if rule.site == site and rule.nth == n and rule.tag not in _FIRED:
                matched = rule
                break
        if matched is None:
            return None
        _FIRED.add(matched.tag)
    if not _claim_global(matched):
        return None
    if matched.action == "hang":
        time.sleep(hang_seconds())
        return None
    return matched.action


def fault_point(site: str) -> None:
    """Plant a fault point with no torn-write capability.

    ``raise`` raises :class:`FaultInjected`; ``exit`` hard-kills the
    process.  Arming ``torn-write`` at such a site is a plan error.
    """
    action = trigger(site)
    if action is None:
        return
    if action == "raise":
        raise FaultInjected(f"fault injected at {site}")
    if action == "exit":
        os._exit(EXIT_CODE)
    raise FaultPlanError(
        f"site {site!r} does not support the {action!r} action")

