"""Tests for the deterministic fault-injection harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.testing import faults

SRC = str(Path(next(iter(repro.__path__))).resolve().parent)


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestParsePlan:
    def test_single_rule(self):
        (rule,) = faults.parse_plan("a.site:raise:3")
        assert rule == faults.FaultRule("a.site", "raise", 3)
        assert rule.tag == "a.site:raise:3"

    def test_nth_defaults_to_one(self):
        (rule,) = faults.parse_plan("a.site:exit")
        assert rule.nth == 1

    def test_multiple_rules_and_whitespace(self):
        rules = faults.parse_plan("a:raise:1, b:exit:2 ,")
        assert [(r.site, r.action, r.nth) for r in rules] == [
            ("a", "raise", 1), ("b", "exit", 2)]

    def test_bad_action_rejected(self):
        with pytest.raises(faults.FaultPlanError, match="bad fault action"):
            faults.parse_plan("a:explode:1")

    def test_bad_count_rejected(self):
        with pytest.raises(faults.FaultPlanError, match="bad fault count"):
            faults.parse_plan("a:raise:soon")
        with pytest.raises(faults.FaultPlanError, match=">= 1"):
            faults.parse_plan("a:raise:0")

    def test_malformed_rule_rejected(self):
        with pytest.raises(faults.FaultPlanError, match="site:action:nth"):
            faults.parse_plan("a:raise:1:extra")


class TestRegistry:
    def test_register_and_enumerate(self):
        site = faults.register_site("test.registry.site")
        assert site in faults.registered_sites()
        assert site not in faults.persistence_sites()

    def test_persistence_flag_is_sticky(self):
        site = "test.registry.sticky"
        faults.register_site(site, persistence=True)
        faults.register_site(site)  # re-registering cannot demote it
        assert site in faults.persistence_sites()

    def test_production_persistence_sites_registered(self):
        # importing the persistence layers must register their sites —
        # the chaos suite enumerates exactly these
        import repro.flow.tracestore  # noqa: F401
        import repro.serve.registry  # noqa: F401
        import repro.serve.requestlog  # noqa: F401

        assert {"tracestore.manifest.replace", "tracestore.blob.write",
                "campaign.journal.replace", "registry.manifest.replace",
                "registry.artifact.write", "requestlog.append"} \
            <= set(faults.persistence_sites())


class TestTrigger:
    def test_unarmed_is_noop(self):
        assert faults.trigger("test.trig.a") is None
        assert faults.trigger(None) is None

    def test_fires_on_nth_hit_only_once(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, "test.trig.b:raise:2")
        assert faults.trigger("test.trig.b") is None
        assert faults.trigger("test.trig.b") == "raise"
        assert faults.trigger("test.trig.b") is None  # already fired

    def test_other_sites_unaffected(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, "test.trig.c:raise:1")
        assert faults.trigger("test.trig.other") is None
        assert faults.trigger("test.trig.c") == "raise"

    def test_reset_forgets_hits(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, "test.trig.d:raise:1")
        assert faults.trigger("test.trig.d") == "raise"
        faults.reset()
        assert faults.trigger("test.trig.d") == "raise"

    def test_state_dir_makes_firing_global(self, monkeypatch, tmp_path):
        monkeypatch.setenv(faults.PLAN_ENV, "test.trig.e:raise:1")
        monkeypatch.setenv(faults.STATE_ENV, str(tmp_path))
        assert faults.trigger("test.trig.e") == "raise"
        markers = list(tmp_path.glob("fired-*"))
        assert len(markers) == 1
        faults.reset()  # a "new process" must still honor the marker
        assert faults.trigger("test.trig.e") is None


class TestFaultPoint:
    def test_raise_action(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, "test.fp.a:raise:1")
        with pytest.raises(faults.FaultInjected, match="test.fp.a"):
            faults.fault_point("test.fp.a")

    def test_torn_write_unsupported_at_plain_point(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, "test.fp.b:torn-write:1")
        with pytest.raises(faults.FaultPlanError, match="torn-write"):
            faults.fault_point("test.fp.b")

    def test_exit_action_kills_process(self):
        code = ("from repro.testing import faults\n"
                "faults.fault_point('test.fp.exit')\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        env[faults.PLAN_ENV] = "test.fp.exit:exit:1"
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == faults.EXIT_CODE


class TestHangAction:
    def test_hang_parses(self):
        (rule,) = faults.parse_plan("a.site:hang:2")
        assert rule.action == "hang"

    def test_hang_seconds_env_and_fallback(self, monkeypatch):
        monkeypatch.delenv(faults.HANG_ENV, raising=False)
        assert faults.hang_seconds() == faults.DEFAULT_HANG_SECONDS
        monkeypatch.setenv(faults.HANG_ENV, "2.5")
        assert faults.hang_seconds() == 2.5
        monkeypatch.setenv(faults.HANG_ENV, "soon")
        assert faults.hang_seconds() == faults.DEFAULT_HANG_SECONDS

    def test_trigger_sleeps_then_proceeds(self, monkeypatch):
        """``hang`` wedges inside trigger() and then returns None — to
        the caller the hit looks clean; only wall-clock (and a
        watchdog) can tell the difference."""
        import time

        monkeypatch.setenv(faults.PLAN_ENV, "test.hang.a:hang:1")
        monkeypatch.setenv(faults.HANG_ENV, "0.2")
        t0 = time.monotonic()
        assert faults.trigger("test.hang.a") is None
        assert time.monotonic() - t0 >= 0.2
        # fired once: the next hit is instantaneous
        t0 = time.monotonic()
        assert faults.trigger("test.hang.a") is None
        assert time.monotonic() - t0 < 0.1

    def test_hang_respects_global_state_marker(self, monkeypatch,
                                               tmp_path):
        import time

        monkeypatch.setenv(faults.PLAN_ENV, "test.hang.b:hang:1")
        monkeypatch.setenv(faults.STATE_ENV, str(tmp_path))
        monkeypatch.setenv(faults.HANG_ENV, "0.2")
        assert faults.trigger("test.hang.b") is None
        faults.reset()  # a "respawned worker" honors the marker
        t0 = time.monotonic()
        assert faults.trigger("test.hang.b") is None
        assert time.monotonic() - t0 < 0.1

