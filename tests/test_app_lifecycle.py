"""Tests for orderly application teardown (App.shutdown)."""

import pytest

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, Touch
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024
QOS = QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS)


def running_pager(system, name="app"):
    app = system.new_app(name, guaranteed_frames=8)
    stretch = app.new_stretch(32 * system.machine.page_size)
    driver = app.paged_driver(frames=4, swap_bytes=1 * MB, qos=QOS)
    app.bind(stretch, driver)

    def body():
        while True:
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)

    app.spawn(body())
    system.run_for(2 * SEC)
    return app, stretch, driver


class TestShutdown:
    def test_frames_fully_returned(self, system):
        app, _stretch, _driver = running_pager(system)
        free_before_app = system.physmem.free_frames + app.frames.allocated
        app.shutdown()
        assert system.ramtab.owned_by(app.domain) == []
        assert system.physmem.free_frames == free_before_app
        assert app.frames.allocated == 0

    def test_stretches_destroyed_and_reusable(self, system):
        app, stretch, _driver = running_pager(system)
        base = stretch.base
        app.shutdown()
        assert stretch.destroyed
        # The address space is reusable immediately.
        successor = system.new_app("next", guaranteed_frames=2)
        fresh = successor.new_stretch(system.machine.page_size, start=base)
        assert fresh.base == base

    def test_usd_guarantee_released(self, system):
        app, _stretch, _driver = running_pager(system)
        share_before = system.usd.sched.admitted_share()
        app.shutdown()
        assert system.usd.sched.admitted_share() < share_before
        # The released bandwidth is re-admittable.
        system.usd.admit("reuser", QOS)

    def test_domain_dead_and_removed(self, system):
        app, _stretch, _driver = running_pager(system)
        app.shutdown()
        assert app.domain.dead
        assert app not in system.apps

    def test_guarantee_capacity_released(self, system):
        app, _stretch, _driver = running_pager(system)
        committed_before = system.frames_allocator.total_guaranteed()
        app.shutdown()
        assert (system.frames_allocator.total_guaranteed()
                == committed_before - 8)

    def test_system_keeps_running_after_shutdown(self, system):
        self._shutdown_one_of_two(system)

    def test_fcfs_backing_keeps_running_after_shutdown(self):
        # The FCFS straw man's depart is reached only through shutdown.
        self._shutdown_one_of_two(NemesisSystem(backing="fcfs"))

    @staticmethod
    def _shutdown_one_of_two(system):
        app, _stretch, driver = running_pager(system)
        other, _s, other_driver = running_pager(system, name="other")
        client = driver.swap.channel.usd_client
        faults_before = other_driver.faults_slow
        app.shutdown()
        assert client not in system.usd.clients
        system.run_for(3 * SEC)
        assert other_driver.faults_slow > faults_before

    def test_double_shutdown_is_harmless(self, system):
        app, _stretch, _driver = running_pager(system)
        app.shutdown()
        app.shutdown()
        assert app.frames.allocated == 0


@pytest.mark.parametrize("cpu_args", [{"cpu": "atropos"}, {"cpus": 1}],
                         ids=["atropos", "cpus1"])
def test_cpu_share_released(cpu_args):
    system = NemesisSystem(**cpu_args)
    # Ten domains at the default 10% CPU guarantee fill the CPU.
    apps = [system.new_app("app%d" % i, guaranteed_frames=2)
            for i in range(10)]
    with pytest.raises(ValueError):
        system.new_app("refused", guaranteed_frames=2)

    def busy():
        while True:
            yield Compute(1 * MS)

    apps[0].spawn(busy())
    system.run_for(50 * MS)
    apps[0].shutdown()
    system.run_for(50 * MS)
    system.new_app("successor", guaranteed_frames=2)
