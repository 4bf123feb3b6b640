"""The supervision tree: restart policy, watch loop, escalation ladder.

Pure-policy math and the supervisor's heartbeat state machine are
pinned against a scripted fake component (so every transition is
observable); the component adapters for real subsystems get focused
integration checks (the balancer's warm-start, the driver-domain
loop's crash/restart). End-to-end recovery — bystander retention,
volume drain-and-retire — lives in the crash-recovery missions and
``tests/test_missions_crash.py``.
"""

import pytest

from repro.apps.pager_app import KB, PagingApplication
from repro.faults import CrashPlan, CrashRule
from repro.mm.balancer import MemoryBalancer
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC
from repro.supervise import (Component, RestartPolicy, Supervisor,
                             BalancerComponent, PagerComponent,
                             SchedulerComponent)
from repro.system import NemesisSystem


class FakeComponent(Component):
    """A scripted component: dies on command, counts every call."""

    def __init__(self, cid="fake", can_degrade=False):
        super().__init__(cid)
        self.can_degrade = can_degrade
        self.up = True
        self.kills = []
        self.rebuilds = 0
        self.checkpoints = 0
        self.retired = False
        self.drained = False   # set by the test to finish a degrade

    def alive(self):
        return self.up

    def kill(self, reason):
        self.up = False
        self.kills.append(reason)

    def restart(self):
        self.up = True
        self.rebuilds += 1

    def checkpoint(self):
        self.checkpoints += 1

    def degrade(self):
        if not self.can_degrade:
            return False
        self.up = True
        return True

    def status(self):
        return "retired" if self.drained else None

    def retire(self):
        self.retired = True


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(backoff_ns=0)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_ns=2, max_backoff_ns=1)
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(window_ns=0)

    def test_sliding_window_budget(self):
        policy = RestartPolicy(max_restarts=2, window_ns=5 * SEC)
        history = [1 * SEC, 2 * SEC]
        assert not policy.allows(history, 3 * SEC)   # both in window
        assert policy.allows(history, 6 * SEC + 1)   # first aged out
        assert policy.allows([], 0)

    def test_exponential_backoff_caps(self):
        policy = RestartPolicy(backoff_ns=100 * MS, backoff_factor=2.0,
                               max_backoff_ns=300 * MS,
                               max_restarts=10, window_ns=60 * SEC)
        assert policy.backoff([], 0) == 100 * MS
        assert policy.backoff([1 * SEC], 2 * SEC) == 200 * MS
        assert policy.backoff([1 * SEC, 2 * SEC], 3 * SEC) == 300 * MS
        assert policy.backoff([1, 2, 3, 4], 5) == 300 * MS   # capped


class TestSupervisorRestart:
    def test_injected_crash_restarts_after_backoff(self):
        """A rate-1.0 rule at t=1 s kills at the first heartbeat in
        window; the restart lands one backoff later and the recovery
        window brackets exactly that span."""
        sim = Simulator()
        injector = CrashPlan(seed=1, rules=(
            CrashRule(component="fake", start_ns=1 * SEC,
                      max_crashes=1),))
        supervisor = Supervisor(sim, heartbeat_ns=100 * MS,
                                policy=RestartPolicy(backoff_ns=100 * MS),
                                injector=injector)
        component = FakeComponent()
        record = supervisor.supervise(component)
        sim.run(3 * SEC)
        assert component.kills == ["crash:rule0"]
        assert component.rebuilds == 1
        assert record.restarts == 1
        assert record.escalations == 0
        assert record.state == "running"
        assert record.crashes == [1 * SEC]
        assert record.windows == [(1 * SEC, 1 * SEC + 100 * MS)]

    def test_self_death_is_detected_and_restarted(self):
        """A component that dies on its own (no injector at all) is
        picked up by the next heartbeat probe."""
        sim = Simulator()
        supervisor = Supervisor(sim, heartbeat_ns=100 * MS,
                                policy=RestartPolicy(backoff_ns=100 * MS))
        component = FakeComponent()
        record = supervisor.supervise(component)

        def die():
            component.up = False
        sim.call_after(950 * MS, die)
        sim.run(2 * SEC)
        assert component.kills == []        # nobody killed it
        assert component.rebuilds == 1      # but it was restarted
        assert record.crashes == [1 * SEC]  # detected at the heartbeat

    def test_healthy_heartbeats_checkpoint(self):
        sim = Simulator()
        supervisor = Supervisor(sim, heartbeat_ns=100 * MS)
        component = FakeComponent()
        supervisor.supervise(component)
        sim.run(1 * SEC)
        assert component.checkpoints == 10


class TestEscalationLadder:
    def _storm(self, component):
        """Unlimited rate-1.0 kills against ``component`` from t=0."""
        sim = Simulator()
        injector = CrashPlan(seed=1, rules=(
            CrashRule(component=component.component_id,
                      max_crashes=0),))
        supervisor = Supervisor(
            sim, heartbeat_ns=100 * MS,
            policy=RestartPolicy(backoff_ns=100 * MS, max_restarts=2,
                                 window_ns=5 * SEC),
            injector=injector)
        return sim, supervisor.supervise(component)

    def test_budget_exhaustion_retires_a_plain_component(self):
        component = FakeComponent()
        sim, record = self._storm(component)
        sim.run(5 * SEC)
        assert record.restarts == 2
        assert record.escalations == 1
        assert record.state == "retired"
        assert component.retired
        # The watch loop exited: no further kills after retirement.
        kills_at_retire = len(component.kills)
        sim.run(8 * SEC)
        assert len(component.kills) == kills_at_retire

    def test_degradable_component_drains_then_retires(self):
        component = FakeComponent(can_degrade=True)
        sim, record = self._storm(component)
        sim.run(2 * SEC)
        assert record.state == "degraded"
        assert not component.retired    # degrade, not outright death
        sim.run(3 * SEC)
        # Degraded heartbeats poll status(), which still says nothing.
        assert record.state == "degraded"
        component.drained = True        # the drain machinery finished
        sim.run(5 * SEC + 200 * MS)
        assert record.state == "retired"
        assert not component.retired    # asynchronous, not forced

    def test_summary_payload_shape(self):
        component = FakeComponent()
        sim, record = self._storm(component)
        sim.run(5 * SEC)
        summary = record.summary()
        assert summary["state"] == "retired"
        assert summary["restarts"] == 2
        assert summary["escalations"] == 1
        assert len(summary["crashes"]) == 3
        assert all(isinstance(w, list) and len(w) == 2
                   for w in summary["windows"])


class TestComponentAdapters:
    def test_balancer_component_warm_starts_from_checkpoint(self):
        system = NemesisSystem()
        balancer = MemoryBalancer(system)
        component = BalancerComponent(
            balancer,
            lambda snapshot: MemoryBalancer(system, warm_start=snapshot))
        system.run(1 * SEC)
        assert component.alive()
        component.checkpoint()
        snapshot = dict(component._snapshot)
        component.kill("test")
        system.run_for(1 * MS)   # the interrupt lands asynchronously
        assert not component.alive()
        component.restart()
        assert component.alive()
        assert component.balancer is not balancer
        assert component.balancer.snapshot() == snapshot

    def test_retired_balancer_makes_no_further_decisions(self):
        """A kill past a zero restart budget retires the balancer: no
        replacement is built and the dead loop decides nothing more."""
        system = NemesisSystem()
        balancer = MemoryBalancer(system)
        component = BalancerComponent(
            balancer,
            lambda snapshot: MemoryBalancer(system, warm_start=snapshot))
        injector = CrashPlan(seed=1, rules=(
            CrashRule(component="balancer", start_ns=1200 * MS),))
        supervisor = Supervisor(system.sim, heartbeat_ns=100 * MS,
                                policy=RestartPolicy(max_restarts=0),
                                injector=injector)
        record = supervisor.supervise(component)
        system.run(2 * SEC)
        assert record.state == "retired"
        assert component.balancer is balancer
        # One decision per 500 ms period before the kill at 1.2 s.
        assert len(balancer.decisions) == 2
        system.run(5 * SEC)
        assert len(balancer.decisions) == 2

    def test_pager_whose_domain_dies_past_its_budget_is_retired(self):
        """A pager whose domain dies with no restart left is torn down
        for good: its App and its USD stream are gone, and no
        replacement is built."""
        system = NemesisSystem()
        qos = QoSSpec(period_ns=100 * MS, slice_ns=20 * MS,
                      laxity_ns=5 * MS)
        builds = []

        def build():
            builds.append(PagingApplication(
                system, "victim", qos, stretch_bytes=64 * KB,
                swap_bytes=256 * KB))
            return builds[-1]

        streams_before = list(system.usd.clients)
        component = PagerComponent("victim", build)
        streams = [stream for stream in system.usd.clients
                   if stream not in streams_before]
        assert streams
        supervisor = Supervisor(system.sim, heartbeat_ns=100 * MS,
                                policy=RestartPolicy(max_restarts=0))
        record = supervisor.supervise(component)
        system.run(150 * MS)
        assert record.state == "running"
        pager = component.pager
        pager.app.domain.kill("test")
        system.run(400 * MS)
        assert record.state == "retired"
        assert len(builds) == 1
        assert pager.app not in system.apps
        assert not any(stream in system.usd.clients for stream in streams)

    def test_driver_domain_component_crash_and_replay(self):
        system = NemesisSystem()
        component = SchedulerComponent(system.usd.sched, "usd")
        system.run(100 * MS)
        assert component.alive()
        component.kill("test")
        system.run_for(1 * MS)
        assert not component.alive()
        component.restart()
        system.run_for(100 * MS)
        assert component.alive()
