"""The fault-injection plane itself: determinism, scoping, precedence."""

import pytest

from repro.faults import (
    BAD_BLOCK,
    LATENCY,
    STATUS_IO_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    STUCK,
    TRANSIENT,
    FaultPlan,
    FaultRule,
)
from repro.hw.disk import Disk, DiskRequest, READ, WRITE
from repro.obs.metrics import MetricsRegistry
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC


def req(lba=1000, nblocks=16, kind=READ, client="c"):
    return DiskRequest(kind=kind, lba=lba, nblocks=nblocks, client=client)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        rules = (FaultRule(kind=TRANSIENT, rate=0.3),
                 FaultRule(kind=BAD_BLOCK, rate=0.001),
                 FaultRule(kind=LATENCY, rate=0.2),
                 FaultRule(kind=STUCK, rate=0.05))
        a = FaultPlan(seed=7, rules=rules)
        b = FaultPlan(seed=7, rules=rules)
        probes = [(req(lba=lba, kind=kind), t)
                  for lba in range(0, 4000, 160)
                  for kind in (READ, WRITE)
                  for t in (0, 50 * MS, 1 * SEC)]
        assert [a.decide(r, t) for r, t in probes] \
            == [b.decide(r, t) for r, t in probes]

    def test_different_seed_different_decisions(self):
        rules = (FaultRule(kind=TRANSIENT, rate=0.5),)
        a = FaultPlan(seed=1, rules=rules)
        b = FaultPlan(seed=2, rules=rules)
        probes = [(req(lba=lba), 0) for lba in range(0, 16000, 16)]
        assert [a.decide(r, t) for r, t in probes] \
            != [b.decide(r, t) for r, t in probes]

    def test_transient_redraws_over_time_bad_block_does_not(self):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind=TRANSIENT, rate=0.5),))
        decisions = {plan.decide(req(), t).status
                     for t in range(0, 200 * MS, MS)}
        assert decisions == {STATUS_OK, STATUS_IO_ERROR}
        bad = FaultPlan(seed=3, rules=(FaultRule(kind=BAD_BLOCK, rate=0.5),))
        statuses = {bad.decide(req(), t).status
                    for t in range(0, 200 * MS, MS)}
        assert len(statuses) == 1   # permanent property of the block

    def test_rate_extremes(self):
        always = FaultPlan(seed=1, rules=(FaultRule(kind=TRANSIENT,
                                                    rate=1.0),))
        never = FaultPlan(seed=1, rules=(FaultRule(kind=TRANSIENT,
                                                   rate=0.0),))
        assert always.decide(req(), 0).status == STATUS_IO_ERROR
        assert never.decide(req(), 0).status == STATUS_OK


class TestScoping:
    def test_lba_window(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0, lba_start=1000,
                      lba_end=2000),))
        assert plan.decide(req(lba=1500), 0).status == STATUS_IO_ERROR
        assert plan.decide(req(lba=2000), 0).status == STATUS_OK
        assert plan.decide(req(lba=984, nblocks=16), 0).status == STATUS_OK
        # Overlap at either edge counts.
        assert plan.decide(req(lba=992, nblocks=16), 0).status \
            == STATUS_IO_ERROR

    def test_op_scope(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0, op=WRITE),))
        assert plan.decide(req(kind=READ), 0).status == STATUS_OK
        assert plan.decide(req(kind=WRITE), 0).status == STATUS_IO_ERROR

    def test_time_window(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0, start_ns=1 * SEC,
                      end_ns=2 * SEC),))
        assert plan.decide(req(), 0).status == STATUS_OK
        assert plan.decide(req(), 1 * SEC).status == STATUS_IO_ERROR
        assert plan.decide(req(), 2 * SEC).status == STATUS_OK

    def test_explicit_bad_blocks(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=BAD_BLOCK, blocks=(1008,)),))
        assert plan.decide(req(lba=1000, nblocks=16), 0).status \
            == STATUS_IO_ERROR
        assert plan.decide(req(lba=1016, nblocks=16), 0).status == STATUS_OK

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="meteor")
        with pytest.raises(ValueError):
            FaultRule(kind=TRANSIENT, rate=1.5)
        with pytest.raises(ValueError, match="start_ns"):
            FaultRule(kind=TRANSIENT, start_ns=-1)
        with pytest.raises(ValueError, match="end_ns"):
            FaultRule(kind=TRANSIENT, start_ns=5, end_ns=5)


class TestPrecedence:
    def test_bad_block_outranks_stuck_and_transient(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0),
            FaultRule(kind=STUCK, rate=1.0),
            FaultRule(kind=BAD_BLOCK, blocks=(1000,)),))
        decision = plan.decide(req(lba=1000), 0)
        assert decision.kind == BAD_BLOCK
        assert decision.status == STATUS_IO_ERROR

    def test_stuck_outranks_transient(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0),
            FaultRule(kind=STUCK, rate=1.0, stuck_ns=123 * MS),))
        decision = plan.decide(req(), 0)
        assert decision.kind == STUCK
        assert decision.status == STATUS_TIMEOUT
        assert decision.extra_ns == 123 * MS

    def test_latency_composes_with_clean_only(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind=LATENCY, rate=1.0, extra_ns=7 * MS),))
        decision = plan.decide(req(), 0)
        assert decision.status == STATUS_OK
        assert decision.extra_ns == 7 * MS
        noisy = FaultPlan(seed=1, rules=(
            FaultRule(kind=LATENCY, rate=1.0, extra_ns=7 * MS),
            FaultRule(kind=TRANSIENT, rate=1.0),))
        decision = noisy.decide(req(), 0)
        assert decision.status == STATUS_IO_ERROR
        assert decision.extra_ns == 0   # failure subsumes the spike


class TestDiskIntegration:
    def test_failed_transaction_returns_error_result(self, sim):
        injector = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0),))
        disk = Disk(sim, injector=injector)
        result = sim.run_until_triggered(
            sim.spawn(disk.transaction(req())), limit=1 * SEC)
        assert not result.ok
        assert result.status == STATUS_IO_ERROR
        assert result.duration > 0        # failures are not free
        assert disk.stats_errors == 1
        assert disk.stats_reads == 0      # nothing was committed

    def test_stuck_transaction_costs_the_wedge_time(self, sim):
        injector = FaultPlan(seed=1, rules=(
            FaultRule(kind=STUCK, rate=1.0, stuck_ns=100 * MS),))
        disk = Disk(sim, injector=injector)
        result = sim.run_until_triggered(
            sim.spawn(disk.transaction(req())), limit=1 * SEC)
        assert result.status == STATUS_TIMEOUT
        assert result.duration >= 100 * MS

    def test_injector_counts_by_kind_and_client(self, sim):
        metrics = MetricsRegistry()
        injector = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0),)).bind(metrics)
        disk = Disk(sim, injector=injector)
        sim.run_until_triggered(
            sim.spawn(disk.transaction(req(client="victim"))),
            limit=1 * SEC)
        assert injector.injected == 1
        snap = metrics.snapshot()
        assert snap.get("faults_injected_total",
                        kind=TRANSIENT, client="victim") == 1
