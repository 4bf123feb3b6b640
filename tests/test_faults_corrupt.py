"""The silent-corruption fault plane: deterministic draws, kind
semantics, and scope isolation.

Corruption is the failure class the loud planes cannot see: a read
that succeeds with the wrong bytes. These tests pin the plane's
contract — ``bit_flip`` re-draws per read occasion while torn and
misdirected writes stick to the written version, draws are pure
functions of the seed, the first firing rule wins while the audit
still observes the rest — and the property the whole integrity
argument leans on: a plan scoped to one extent NEVER touches a read
outside it, for any seed, rate and corruption kind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.corrupt import (BIT_FLIP, CORRUPT_KINDS,
                                  MISDIRECTED_WRITE, TORN_WRITE,
                                  CorruptPlan, CorruptRule,
                                  extent_corruption)
from repro.faults.plan import _draw
from repro.hw.disk import READ, DiskRequest
from repro.obs.metrics import MetricsRegistry
from repro.sim.units import MS
from repro.usd.sfs import Extent


def _req(lba, nblocks=8, client="victim"):
    return DiskRequest(kind=READ, lba=lba, nblocks=nblocks, client=client)


class TestRuleValidation:
    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError):
            CorruptRule(kind="gamma_ray")

    def test_rate_out_of_range_refused(self):
        for rate in (-0.1, 1.5):
            with pytest.raises(ValueError):
                CorruptRule(kind=BIT_FLIP, rate=rate)

    def test_bad_time_window_refused(self):
        with pytest.raises(ValueError):
            CorruptRule(kind=BIT_FLIP, start_ns=5, end_ns=5)
        with pytest.raises(ValueError):
            CorruptRule(kind=BIT_FLIP, start_ns=-1)


class TestKindSemantics:
    def test_bit_flip_redraws_per_read_time(self):
        """The same blok read at different times draws independently:
        at rate 0.5 a transient flip cannot be a permanent property of
        the blok — some occasions corrupt, some do not."""
        plan = CorruptPlan(seed=3, rules=(
            CorruptRule(kind=BIT_FLIP, rate=0.5),))
        outcomes = {plan.decide_read(_req(100), now) is not None
                    for now in range(0, 200 * MS, MS)}
        assert outcomes == {True, False}

    def test_torn_write_sticks_to_the_written_version(self):
        """Torn/misdirected corruption is keyed per (LBA, generation):
        every read of one version agrees, and only a rewrite
        re-draws."""
        plan = CorruptPlan(seed=3, rules=(
            CorruptRule(kind=TORN_WRITE, rate=0.5),))
        for _ in range(8):
            decisions = {plan.decide_read(_req(100), now) is not None
                         for now in range(0, 10 * MS, MS)}
            assert len(decisions) == 1   # constant across read times
            plan.note_write(_req(100), 10 * MS)
        by_generation = set()
        for _ in range(64):
            by_generation.add(plan.decide_read(_req(100), 0) is not None)
            plan.note_write(_req(100), 0)
        assert by_generation == {True, False}

    def test_draws_are_pure_functions_of_the_seed(self):
        def reads(kind):
            plan = CorruptPlan(seed=11, rules=(
                CorruptRule(kind=kind, rate=0.3),))
            for lba in range(0, 1024, 8):
                plan.note_write(_req(lba), 0)
                plan.note_write(_req(lba), MS)
            return [plan.decide_read(_req(lba), 5 * MS)
                    for lba in range(0, 1024, 8)]

        for kind in CORRUPT_KINDS:
            assert reads(kind) == reads(kind)

    def test_explicit_blocks_corrupt_unconditionally(self):
        plan = CorruptPlan(seed=1, rules=(
            CorruptRule(kind=MISDIRECTED_WRITE, rate=0.0,
                        blocks=(104,)),))
        hit = plan.decide_read(_req(100), 0)
        assert hit is not None and hit.kind == MISDIRECTED_WRITE
        assert plan.decide_read(_req(200), 0) is None

    def test_first_firing_rule_wins_but_audit_sees_all(self):
        plan = CorruptPlan(seed=1, rules=(
            CorruptRule(kind=TORN_WRITE, blocks=(100,)),
            CorruptRule(kind=BIT_FLIP, blocks=(100,)),))
        decision = plan.decide_read(_req(100), 0)
        assert decision.rule_index == 0 and decision.kind == TORN_WRITE
        assert plan.observed == {0: 1, 1: 1}


class TestInjector:
    def test_note_write_advances_the_generation(self):
        """Each write of a blok moves its torn-write draw on to the next
        generation; a write elsewhere leaves the blok's draw alone."""
        plan = CorruptPlan(seed=2, rules=(
            CorruptRule(kind=TORN_WRITE, rate=0.5),))

        def torn(lba):
            return plan.decide_read(_req(lba), 0) is not None

        def drawn(lba, generation):
            return _draw(2, TORN_WRITE, 0, lba, generation) < 0.5

        seen = [torn(100)]
        for now in (0, MS):
            plan.note_write(_req(100), now)
            seen.append(torn(100))
        assert seen == [drawn(100, generation) for generation in range(3)]
        assert seen == [False, True, False]   # each generation counted
        assert torn(200) == drawn(200, 0) != drawn(200, 2)

    def test_injected_count_and_metrics(self):
        metrics = MetricsRegistry()
        plan = CorruptPlan(seed=1, rules=(
            CorruptRule(kind=BIT_FLIP, blocks=(100,)),)).bind(metrics)
        assert plan.decide_read(_req(100), 0) is not None
        assert plan.decide_read(_req(200), 0) is None
        assert plan.injected == 1
        assert plan.observed == {0: 1}
        snap = metrics.snapshot()
        assert snap.total("corruptions_injected_total",
                          kind=BIT_FLIP) == 1


class TestExtentIsolation:
    """The property the bystander-retention gates rest on."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(CORRUPT_KINDS),
           rate=st.floats(0.0, 1.0),
           lba=st.integers(0, 10_000_000),
           now=st.integers(0, 10 ** 12),
           generation=st.integers(0, 64))
    @settings(max_examples=200, deadline=None)
    def test_scoped_plan_never_touches_a_bystander(self, seed, kind,
                                                   rate, lba, now,
                                                   generation):
        """For ANY seed, kind, rate and occasion, a plan scoped to one
        extent decides None for every read wholly outside it."""
        extent = Extent(500_000, 40_000)
        plan = extent_corruption(seed, extent, kind=kind, rate=rate)
        req = _req(lba)
        if req.end > extent.start and req.lba < extent.end:
            return   # overlaps the victim extent: fair game
        for _ in range(generation):
            plan.note_write(req, now)
        assert plan.decide_read(req, now) is None

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scoped_plan_does_hit_inside_the_extent(self, seed):
        """The isolation above is not vacuous: at rate 1.0 every read
        inside the extent corrupts."""
        extent = Extent(500_000, 40_000)
        plan = extent_corruption(seed, extent, kind=BIT_FLIP, rate=1.0)
        assert plan.decide_read(_req(extent.start), 0) is not None
