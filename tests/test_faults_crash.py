"""The crash fault plane: rules, plans, deterministic draws, caps.

Crash rules are the third fault plane (disk lies, domains misbehave,
components *die*); these tests pin the pure-plan semantics the
supervisor and the mission plane build on — scoping, first-rule-wins,
keyed-BLAKE2b determinism and ``max_crashes`` budget enforcement.
"""

import pytest

from repro.faults import CrashPlan, CrashRule
from repro.sim.units import MS, SEC


class TestCrashRule:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="rate"):
            CrashRule(rate=1.5)
        with pytest.raises(ValueError, match="start_ns"):
            CrashRule(start_ns=-1)
        with pytest.raises(ValueError, match="end_ns"):
            CrashRule(start_ns=2 * SEC, end_ns=1 * SEC)
        with pytest.raises(ValueError, match="max_crashes"):
            CrashRule(max_crashes=-1)

    def test_component_and_window_scoping(self):
        rule = CrashRule(component="balancer", start_ns=1 * SEC,
                         end_ns=2 * SEC)
        assert rule.applies("balancer", 1 * SEC)
        assert not rule.applies("balancer", 1 * SEC - 1)
        assert not rule.applies("balancer", 2 * SEC)   # end exclusive
        assert not rule.applies("usd", 1 * SEC)

    def test_wildcard_component_matches_everything(self):
        rule = CrashRule(component=None)
        for component in ("pager:a", "balancer", "usd", "volume:0"):
            assert rule.applies(component, 0)


class TestCrashPlan:
    def test_rate_one_always_fires_in_window(self):
        plan = CrashPlan(seed=1, rules=(CrashRule(component="usd"),))
        decision = plan.decide("usd", 5 * SEC)
        assert decision is not None
        assert decision.rule_index == 0
        assert decision.component == "usd"
        assert plan.decide("balancer", 5 * SEC) is None

    def test_draws_are_deterministic_and_seed_keyed(self):
        """The same (seed, component, now, seq) always draws the same
        verdict; a different seed draws a different storm."""
        rules = (CrashRule(component=None, rate=0.4, max_crashes=0),)

        def storm(seed):
            plan = CrashPlan(seed=seed, rules=rules)
            return [plan.decide("pager:a", tick * 100 * MS) is not None
                    for tick in range(200)]

        first = storm(11)
        assert first == storm(11)
        assert first != storm(12)
        # The empirical rate is in the right ballpark for rate=0.4.
        assert 40 <= sum(first) <= 120

    def test_first_firing_rule_wins_but_all_are_observed(self):
        plan = CrashPlan(seed=1, rules=(
            CrashRule(component="usd"),
            CrashRule(component=None),
        ))
        decision = plan.decide("usd", 0)
        assert decision.rule_index == 0
        assert plan.observed == {0: 1, 1: 1}   # the audit sees both firing

    def test_max_crashes_budget_enforced_through_fired(self):
        plan = CrashPlan(seed=1, rules=(
            CrashRule(component="volume:0", max_crashes=2),))
        kills = [plan.decide("volume:0", tick * SEC) for tick in range(5)]
        assert [k is not None for k in kills] == [True, True, False,
                                                 False, False]
        assert plan.fired == {0: 2}

    def test_max_crashes_zero_is_unlimited(self):
        plan = CrashPlan(seed=1, rules=(
            CrashRule(component="usd", max_crashes=0),))
        assert all(plan.decide("usd", tick * SEC) for tick in range(10))


class TestCrashState:
    def test_injector_tracks_observed_fired_and_sequence(self):
        plan = CrashPlan(seed=1, rules=(
            CrashRule(component="usd", max_crashes=1),))
        assert plan.decide("balancer", 0) is None
        assert plan.decide("usd", 100 * MS) is not None
        assert plan.decide("usd", 200 * MS) is None   # budget spent
        assert plan.injected == 1
        assert plan.observed == {0: 1}
        assert plan.fired == {0: 1}
        # Heartbeat sequence numbers advance per component.
        assert plan._seq == {"balancer": 1, "usd": 2}
