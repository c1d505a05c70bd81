"""The deterministic fault-injection harness itself."""

from __future__ import annotations

import time

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultInjected, FaultPlan


class TestSpecParsing:
    def test_single_clause(self):
        plan = FaultPlan.parse("fit.margins:raise:OSError:2")
        (clause,) = plan.clauses
        assert clause.site == "fit.margins"
        assert clause.action == "raise"
        assert clause.value == "OSError"
        assert clause.remaining == 2

    def test_defaults(self):
        (clause,) = FaultPlan.parse("x:delay").clauses
        assert clause.value == ""
        assert clause.remaining == 1

    def test_unlimited_count(self):
        (clause,) = FaultPlan.parse("x:delay:0.01:*").clauses
        assert clause.remaining is None

    def test_multiple_clauses_split_on_semicolons(self):
        plan = FaultPlan.parse("a:kill;b:raise:RuntimeError")
        assert [c.site for c in plan.clauses] == ["a", "b"]

    @pytest.mark.parametrize(
        "spec",
        ["nocolon", "site:frobnicate", ":raise", "a:raise:X:1:extra", "a:raise:X:-1"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestFiring:
    def test_raise_action_default_exception(self):
        plan = FaultPlan.parse("here:raise")
        with pytest.raises(FaultInjected, match="here"):
            plan.fire("here")

    def test_raise_action_named_exception(self):
        plan = FaultPlan.parse("here:raise:OSError")
        with pytest.raises(OSError):
            plan.fire("here")

    def test_count_limits_firings(self):
        plan = FaultPlan.parse("here:raise::2")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.fire("here")
        plan.fire("here")  # budget exhausted: no-op

    def test_other_sites_unaffected(self):
        FaultPlan.parse("here:raise").fire("elsewhere")

    def test_delay_sleeps(self):
        plan = FaultPlan.parse("here:delay:0.05")
        started = time.monotonic()
        plan.fire("here")
        assert time.monotonic() - started >= 0.04


class TestLatchDirectory:
    def test_count_is_global_across_plans(self, tmp_path):
        # Two plans over the same latch dir model two processes that
        # both inherited the same spec: the clause fires once, total.
        spec = "here:raise::1"
        first = FaultPlan.parse(spec, latch_dir=str(tmp_path))
        second = FaultPlan.parse(spec, latch_dir=str(tmp_path))
        with pytest.raises(FaultInjected):
            first.fire("here")
        second.fire("here")  # latch already claimed: no-op
        assert len(list(tmp_path.iterdir())) == 1


class TestModuleLevelInjection:
    def test_inert_without_a_plan(self):
        faults.inject("anything")

    def test_env_var_arms_the_plan(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "site:raise")
        with pytest.raises(FaultInjected):
            faults.inject("site")

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "env.site:raise")
        faults.configure("code.site:raise")
        faults.inject("env.site")  # env plan is shadowed
        with pytest.raises(FaultInjected):
            faults.inject("code.site")

    def test_configure_none_disarms(self):
        faults.configure("site:raise")
        faults.configure(None)
        faults.inject("site")
