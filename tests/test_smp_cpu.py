"""Tests for the multi-core Atropos CPU: placement-backed admission,
side-effect-free refusal, departure, and per-core metrics."""

import pytest

from repro.kernel.cpu import AtroposCpu
from repro.obs.metrics import MetricsRegistry
from repro.place import PlacementError
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC


def qos(percent, period_ms=10, extra=False):
    """A CPU contract of ``percent`` of a ``period_ms`` period."""
    period = period_ms * MS
    return QoSSpec(period_ns=period, slice_ns=period * percent // 100,
                   extra=extra, laxity_ns=0)


@pytest.fixture
def sim():
    return Simulator()


class TestAdmission:
    def test_incompatible_contracts_land_on_different_cores(self, sim):
        cpu = AtroposCpu(sim, cpus=2)
        cpu.register("bystander", qos(60))
        cpu.register("hog", qos(50, extra=True))
        assert cpu.core_of("bystander") != cpu.core_of("hog")
        assert sorted(round(cpu.admitted_share(core), 2)
                      for core in range(2)) == [0.5, 0.6]

    def test_refusal_is_side_effect_free(self, sim):
        cpu = AtroposCpu(sim, cpus=2)
        cpu.register("a", qos(60))
        cpu.register("b", qos(50))
        before = [sched.admitted_share() for sched in cpu.scheds]
        # Aggregate spare is 0.9 but no single core has 0.6 free.
        with pytest.raises(PlacementError):
            cpu.register("big", qos(60))
        assert cpu.refusals == 1
        assert "big" not in cpu.accounts
        assert "big" not in cpu.core_map
        assert [sched.admitted_share() for sched in cpu.scheds] == before
        # The machine is not wedged: a fitting contract still lands.
        cpu.register("small", qos(40))
        assert "small" in cpu.core_map

    def test_duplicate_names_rejected(self, sim):
        cpu = AtroposCpu(sim, cpus=2)
        cpu.register("a", qos(10))
        with pytest.raises(ValueError):
            cpu.register("a", qos(10))

    def test_depart_releases_the_core_share(self, sim):
        cpu = AtroposCpu(sim, cpus=1)
        account = cpu.register("a", qos(80))
        with pytest.raises(PlacementError):
            cpu.register("b", qos(30))
        cpu.depart_account(account)
        assert "a" not in cpu.core_map
        cpu.register("b", qos(30))


class TestRunQueues:
    def test_sched_is_the_run_queue_of_a_one_core_cpu_only(self, sim):
        one = AtroposCpu(sim)
        assert one.sched is one.scheds[0]
        # More cores have no single run queue: the getattr probe that
        # perfbench uses reads None instead of one core's queue.
        assert getattr(AtroposCpu(sim, cpus=2), "sched", None) is None


class TestMetrics:
    def test_per_core_sched_metrics_and_placement_gauges(self, sim):
        registry = MetricsRegistry()
        cpu = AtroposCpu(sim, cpus=2, metrics=registry)
        a = cpu.register("bystander", qos(60))
        b = cpu.register("hog", qos(50, extra=True))
        sim.run_until_triggered(a.consume(2 * MS), limit=1 * SEC)
        sim.run_until_triggered(b.consume(2 * MS), limit=1 * SEC)
        text = registry.render_text()
        assert "cpu0" in text and "cpu1" in text
        assert "sched_served_ns_total" in text
        assert "place_domains" in text

