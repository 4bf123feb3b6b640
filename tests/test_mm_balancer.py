"""Tests for the centralised global-memory balancer (§8 extension)."""

import pytest

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, Touch
from repro.mm.balancer import MemoryBalancer
from repro.mm.frames import FramesError
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC

MB = 1024 * 1024
QOS_A = QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS)
QOS_B = QoSSpec(period_ns=250 * MS, slice_ns=50 * MS, laxity_ns=10 * MS)


def thrasher(system, name, qos, stretch_pages=128, frames=2, extra=512):
    app = system.new_app(name, guaranteed_frames=4, extra_frames=extra)
    stretch = app.new_stretch(stretch_pages * system.machine.page_size)
    driver = app.paged_driver(frames=frames, swap_bytes=4 * MB, qos=qos)
    app.bind(stretch, driver)
    progress = {"pages": 0}

    def body():
        while True:
            for va in stretch.pages():
                yield Touch(va, AccessKind.READ)
                yield Compute(50_000)
                progress["pages"] += 1

    app.spawn(body())
    return app, progress


class TestBalancer:
    def test_grants_free_memory_to_faulting_app(self, system):
        app, progress = thrasher(system, "t", QOS_A)
        MemoryBalancer(system, period=500 * MS, grant_batch=16)
        system.run(20 * SEC)
        # Enough frames for the working set were granted...
        assert app.frames.allocated >= 64
        # ...and the app converged to in-memory speed.
        assert progress["pages"] > 50_000

    def test_without_balancer_thrashing_persists(self, system):
        app, progress = thrasher(system, "t", QOS_A)
        system.run(20 * SEC)
        assert app.frames.allocated <= 4
        assert progress["pages"] < 10_000

    def test_content_apps_left_alone(self, system):
        """An app with no fault pressure neither gains nor loses."""
        quiet = system.new_app("quiet", guaranteed_frames=8,
                               extra_frames=64)
        quiet.frames.alloc_now(8)
        MemoryBalancer(system, period=500 * MS)
        system.run(10 * SEC)
        assert quiet.frames.allocated == 8

    def test_decisions_recorded(self, system):
        thrasher(system, "t", QOS_A)
        balancer = MemoryBalancer(system, period=500 * MS)
        system.run(5 * SEC)
        assert len(balancer.decisions) >= 8
        assert any(d.granted for d in balancer.decisions)
        assert all("t" in d.pressures for d in balancer.decisions)

    def test_respects_quota(self, system):
        app, _progress = thrasher(system, "t", QOS_A, extra=16)
        MemoryBalancer(system, period=500 * MS, grant_batch=32)
        system.run(15 * SEC)
        assert app.frames.allocated <= app.frames.quota

    def test_guarantees_never_violated(self, small_system):
        """The balancer moves only optimistic memory: a third app's
        guaranteed allocation must still succeed instantly."""
        system = small_system
        app, _progress = thrasher(system, "t", QOS_A, extra=4096)
        MemoryBalancer(system, period=250 * MS, grant_batch=64,
                       headroom_frames=16)
        system.run(10 * SEC)
        assert app.frames.allocated > 64  # balancer fed the thrasher
        latecomer = system.new_app("late", guaranteed_frames=64)
        granted = latecomer.frames.alloc_now(64)
        assert len(granted) == 64  # transparent revocation backs it

    def test_rebalances_between_apps(self, small_system):
        """Optimistic frames migrate from a content hog to a faulting
        app when the free pool is dry."""
        system = small_system
        # The hog soaks all memory but stops using it (no pressure).
        hog = system.new_app("hog", guaranteed_frames=4,
                             extra_frames=4096)
        hog_stretch = hog.new_stretch(64 * system.machine.page_size)
        hog_driver = hog.paged_driver(frames=0, swap_bytes=4 * MB,
                                      qos=QOS_B)
        hog.bind(hog_stretch, hog_driver)
        hog_driver.adopt_frames(hog.frames.alloc_now(
            system.physmem.free_in_region("main") - 16))
        needy, progress = thrasher(system, "needy", QOS_A, extra=256)
        balancer = MemoryBalancer(system, period=250 * MS, grant_batch=16,
                                  headroom_frames=16)
        system.run(30 * SEC)
        assert needy.frames.allocated > 20
        assert sum(d.rebalanced for d in balancer.decisions) > 0
        assert progress["pages"] > 20_000


class TestBalancerRobustness:
    """The balancer must outlive anything a hostile round throws at it."""

    def test_survives_frames_error(self, system):
        """An allocator that starts refusing grants does not kill the
        balancer loop: the error is absorbed, counted, and sampling
        continues."""
        thrasher(system, "t", QOS_A)
        balancer = MemoryBalancer(system, period=500 * MS, grant_batch=16)

        def refuse(client, count, pfns):
            raise FramesError("allocator refused (induced)")

        system.frames_allocator._alloc_sync = refuse
        system.run(5 * SEC)
        assert balancer.errors > 0
        assert system.metrics.counter("balancer_errors_total").get(
            kind="frames_error") == balancer.errors
        # The loop kept sampling after every failure.
        assert len(balancer.decisions) >= 8

    def test_orphan_grant_returned_to_allocator(self, system):
        """Frames granted to a client with no driver to adopt them go
        straight back to the allocator instead of leaking into limbo."""
        bare = system.new_app("bare", guaranteed_frames=8)
        balancer = MemoryBalancer(system, period=500 * MS)
        pfns = bare.frames.alloc_now(4)
        assert bare.frames.allocated == 4
        balancer._notify_granted(bare.frames, pfns)
        assert bare.frames.allocated == 0
        assert balancer.orphan_grants == 1
        assert system.metrics.counter("balancer_errors_total").get(
            kind="orphan_grant") == 1

    def test_clients_excludes_departed_and_dead(self, system):
        stayer = system.new_app("stayer", guaranteed_frames=4)
        leaver = system.new_app("leaver", guaranteed_frames=4)
        balancer = MemoryBalancer(system, period=500 * MS)
        assert {c.domain.name for c in balancer._clients()} >= {
            "stayer", "leaver"}
        system.frames_allocator.depart(leaver.frames)
        names = {c.domain.name for c in balancer._clients()}
        assert "leaver" not in names
        assert "stayer" in names

    def test_beneficiary_killed_mid_transfer(self, system):
        """Drive one balancing round by hand: the beneficiary dies while
        the transfer is in flight. The round must count the casualty and
        grant nothing (the frames were reclaimed with the kill)."""
        needy = system.new_app("needy", guaranteed_frames=4,
                               extra_frames=64)
        donor = system.new_app("donor", guaranteed_frames=2,
                               extra_frames=64)
        donor.frames.alloc_now(10)   # 8 optimistic frames to spare
        # A huge headroom forces the round past the free-pool fast path
        # and into the donor-transfer leg.
        balancer = MemoryBalancer(system, period=500 * MS,
                                  headroom_frames=10 ** 9)
        gen = balancer._balance_once(
            {"needy": 100.0, "donor": 0.0}, {})
        transfer_event = gen.send(None)   # parked on the transfer
        assert transfer_event is not None
        needy.frames.killed = True        # dies while in flight
        with pytest.raises(StopIteration) as stop:
            gen.send([101, 102, 103])
        assert stop.value.value == 0      # nothing counted as rebalanced
        assert balancer.errors == 1
        assert system.metrics.counter("balancer_errors_total").get(
            kind="beneficiary_gone") == 1
