"""Unit tests for the domain-behaviour fault plane."""

import pytest

from repro.faults import (ALLOC_THRASH, BEHAVIOR_KINDS, REVOKE_LIE,
                          REVOKE_PARTIAL, REVOKE_SILENT, REVOKE_SLOW,
                          BehaviorPlan, BehaviorRule)
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import MS, SEC


class TestBehaviorRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BehaviorRule(kind="explode")

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rate_bounds(self, bad):
        with pytest.raises(ValueError):
            BehaviorRule(kind=REVOKE_SILENT, rate=bad)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            BehaviorRule(kind=REVOKE_PARTIAL, fraction=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            BehaviorRule(kind=REVOKE_SLOW, delay_ns=-1)

    def test_thrash_factor_floor(self):
        with pytest.raises(ValueError):
            BehaviorRule(kind=ALLOC_THRASH, thrash_factor=0)

    def test_bad_time_window_rejected(self):
        with pytest.raises(ValueError, match="start_ns"):
            BehaviorRule(kind=REVOKE_SILENT, start_ns=-1)
        with pytest.raises(ValueError, match="end_ns"):
            BehaviorRule(kind=REVOKE_SILENT, start_ns=2 * SEC,
                         end_ns=1 * SEC)

    def test_applies_scopes_domain_and_window(self):
        rule = BehaviorRule(kind=REVOKE_SILENT, domain="hog",
                            start_ns=1 * SEC, end_ns=2 * SEC)
        assert rule.applies("hog", int(1.5 * SEC))
        assert not rule.applies("other", int(1.5 * SEC))
        assert not rule.applies("hog", int(0.5 * SEC))
        assert not rule.applies("hog", 2 * SEC)      # end exclusive

    def test_domain_none_matches_everyone(self):
        rule = BehaviorRule(kind=REVOKE_LIE)
        assert rule.applies("anyone", 0)


class TestBehaviorPlan:
    def test_first_firing_rule_wins(self):
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=REVOKE_SILENT, domain="a"),
            BehaviorRule(kind=REVOKE_LIE)))
        assert plan.revocation_decision("a", 0).kind == REVOKE_SILENT
        assert plan.revocation_decision("b", 0).kind == REVOKE_LIE

    def test_scopes_are_separate(self):
        """Revocation consultation never fires alloc rules and vice
        versa."""
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=ALLOC_THRASH, domain="a"),))
        assert plan.revocation_decision("a", 0) is None
        assert plan.alloc_count("a", 0, count=1, room=100) == 8
        assert plan.observed == {0: 1}

    def test_no_matching_rule_means_cooperative(self):
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=REVOKE_SILENT, domain="hog"),))
        assert plan.revocation_decision("polite", 123) is None

    def test_rate_zero_never_fires(self):
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=REVOKE_SILENT, rate=0.0),))
        assert all(plan.revocation_decision("d", now) is None
                   for now in range(0, 10 * MS, MS)
                   for _ in range(10))

    def test_rate_one_always_fires(self):
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=REVOKE_SILENT, rate=1.0),))
        assert all(plan.revocation_decision("d", now) is not None
                   for now in range(0, 10 * MS, MS)
                   for _ in range(10))

    def test_partial_rate_deterministic(self):
        rules = (BehaviorRule(kind=REVOKE_SILENT, rate=0.5),)

        def draws(seed):
            plan = BehaviorPlan(seed=seed, rules=rules)
            return [plan.revocation_decision("d", now) is not None
                    for now in range(0, 100 * MS, MS) for _ in range(3)]

        first = draws(42)
        assert first == draws(42)                # pure function of inputs
        assert any(first) and not all(first)     # genuinely partial
        assert first != draws(43)                # the seed matters

    def test_decision_carries_rule_parameters(self):
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=REVOKE_PARTIAL, fraction=0.25,
                         delay_ns=7 * MS, thrash_factor=3),))
        decision = plan.revocation_decision("d", 0)
        assert decision.fraction == 0.25
        assert decision.delay_ns == 7 * MS
        assert decision.thrash_factor == 3


class TestBehaviorState:
    def test_counts_injections_by_kind_and_domain(self):
        metrics = MetricsRegistry()
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=REVOKE_SILENT, domain="hog"),)).bind(metrics)
        assert plan.revocation_decision("hog", 0) is not None
        assert plan.revocation_decision("polite", 0) is None
        assert plan.injected == 1
        assert metrics.counter("behavior_faults_injected_total").get(
            kind=REVOKE_SILENT, domain="hog") == 1

    def test_sequence_numbers_decorrelate_same_instant_draws(self):
        """Two consultations at the same simulated time must be
        independent draws (the per-domain sequence sees to it)."""
        plan = BehaviorPlan(seed=9, rules=(
            BehaviorRule(kind=REVOKE_SILENT, rate=0.5),))
        outcomes = {plan.revocation_decision("d", 0) is not None
                    for _ in range(64)}
        assert outcomes == {True, False}

    def test_alloc_count_inflates_and_caps(self):
        plan = BehaviorPlan(seed=1, rules=(
            BehaviorRule(kind=ALLOC_THRASH, thrash_factor=8),))
        assert plan.alloc_count("d", 0, count=2, room=100) == 16
        assert plan.alloc_count("d", 0, count=2, room=5) == 5
        assert plan.alloc_count("d", 0, count=2, room=0) == 2
        assert plan.alloc_count("d", 0, count=2, room=-3) == 2

    def test_alloc_count_cooperative_passthrough(self):
        plan = BehaviorPlan(seed=1, rules=())
        assert plan.alloc_count("d", 0, count=3, room=100) == 3

    def test_kind_constants_cover_plan(self):
        assert set(BEHAVIOR_KINDS) == {REVOKE_SLOW, REVOKE_SILENT,
                                       REVOKE_PARTIAL, REVOKE_LIE,
                                       ALLOC_THRASH}
