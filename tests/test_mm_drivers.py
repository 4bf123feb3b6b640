"""Tests for the stretch drivers: nailed, physical, paged, forgetful."""

import pytest

from repro.hw.mmu import AccessKind
from repro.kernel.threads import ThreadState, Touch
from repro.mm.paged import PagedDriver, SwapFullError
from repro.mm.sdriver import FaultOutcome
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC

MB = 1024 * 1024
SWAP_QOS = QoSSpec(period_ns=100 * MS, slice_ns=50 * MS, extra=True,
                   laxity_ns=5 * MS)


def touch_all(stretch, kind=AccessKind.WRITE, repeat=1):
    def body():
        for _ in range(repeat):
            for va in stretch.pages():
                yield Touch(va, kind)
    return body()


class TestNailedDriver:
    def test_bind_maps_everything_nailed(self, system):
        app = system.new_app("n", guaranteed_frames=8)
        stretch = app.new_stretch(4 * system.machine.page_size)
        driver = app.nailed_driver()
        app.bind(stretch, driver)
        for va in stretch.pages():
            vpn = system.machine.page_of(va)
            pte = system.pagetable.peek(vpn)
            assert pte.mapped and pte.nailed

    def test_no_faults_ever(self, system):
        app = system.new_app("n", guaranteed_frames=8)
        stretch = app.new_stretch(4 * system.machine.page_size)
        app.bind(stretch, app.nailed_driver())
        thread = app.spawn(touch_all(stretch, repeat=3))
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        assert thread.faults == 0
        assert system.kernel.faults_dispatched == 0

    def test_double_bind_rejected(self, system):
        app = system.new_app("n", guaranteed_frames=8)
        stretch = app.new_stretch(system.machine.page_size)
        driver = app.nailed_driver()
        app.bind(stretch, driver)
        with pytest.raises(ValueError):
            driver.bind(stretch)

    def test_fault_on_nailed_stretch_is_fatal(self, system):
        """A protection violation on a nailed stretch has no safety
        net: the thread dies."""
        from repro.mm.rights import Rights

        app = system.new_app("n", guaranteed_frames=8)
        stretch = app.new_stretch(system.machine.page_size)
        app.bind(stretch, app.nailed_driver())
        app.domain.protdom.set_rights(stretch.sid, Rights.parse("m"))

        def body():
            yield Touch(stretch.base, AccessKind.READ)

        thread = app.spawn(body())
        system.run_for(100 * MS)
        assert thread.state is ThreadState.DEAD


class TestPhysicalDriver:
    def test_fast_path_with_pool(self, system):
        app = system.new_app("p", guaranteed_frames=8)
        stretch = app.new_stretch(4 * system.machine.page_size)
        driver = app.physical_driver(frames=4)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch))
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        assert driver.faults_fast == 4 and driver.faults_slow == 0

    def test_slow_path_allocates_more(self, system):
        app = system.new_app("p", guaranteed_frames=8)
        stretch = app.new_stretch(8 * system.machine.page_size)
        driver = app.physical_driver(frames=2)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch))
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        assert driver.faults_slow == 6
        assert app.frames.allocated == 8

    def test_thread_dies_when_contract_exhausted(self, system):
        app = system.new_app("p", guaranteed_frames=2, extra_frames=0)
        stretch = app.new_stretch(4 * system.machine.page_size)
        driver = app.physical_driver(frames=2)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch))
        system.run_for(1 * SEC)
        assert thread.state is ThreadState.DEAD
        assert app.mmentry.failures >= 1

    def test_second_touch_no_fault(self, system):
        app = system.new_app("p", guaranteed_frames=4)
        stretch = app.new_stretch(2 * system.machine.page_size)
        app.bind(stretch, app.physical_driver(frames=2))
        thread = app.spawn(touch_all(stretch, repeat=5))
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        assert thread.faults == 2  # one per page, ever

    def test_release_frames_prefers_pool(self, system):
        app = system.new_app("p", guaranteed_frames=8)
        stretch = app.new_stretch(2 * system.machine.page_size)
        driver = app.physical_driver(frames=4)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch))
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        # 2 mapped, 2 in pool. Release 2: must come from the pool, not
        # by sacrificing mapped pages.
        gen = driver.release_frames(2)
        arranged = system.sim.run_until_triggered(
            system.sim.spawn(gen), limit=1 * SEC)
        assert arranged == 2
        assert len(driver._resident) == 2


class TestPagedDriver:
    def _paged_app(self, system, npages=8, frames=2, forgetful=False):
        app = system.new_app("pg", guaranteed_frames=frames + 2)
        stretch = app.new_stretch(npages * system.machine.page_size)
        driver = app.paged_driver(frames=frames, swap_bytes=2 * MB,
                                  qos=SWAP_QOS, forgetful=forgetful)
        app.bind(stretch, driver)
        return app, stretch, driver

    def test_demand_zero_first_pass(self, system):
        app, stretch, driver = self._paged_app(system)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.READ))
        system.sim.run_until_triggered(thread.done, limit=30 * SEC)
        assert driver.zero_fills == 8
        assert driver.pageins == 0

    def test_eviction_writes_dirty_pages(self, system):
        app, stretch, driver = self._paged_app(system)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.WRITE))
        system.sim.run_until_triggered(thread.done, limit=30 * SEC)
        # 8 pages through 2 frames: 6 evictions, all dirty.
        assert driver.pageouts == 6

    def test_second_pass_pages_in(self, system):
        app, stretch, driver = self._paged_app(system)

        def body():
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)
            for va in stretch.pages():
                yield Touch(va, AccessKind.READ)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=60 * SEC)
        # Second pass: pages 6 and 7 are resident when it starts, but
        # FIFO eviction pushes them out before the reader reaches them,
        # so all 8 pages come back from disk.
        assert driver.pageins == 8
        assert driver.zero_fills == 8  # only the first pass zeroes

    def test_clean_pages_dropped_without_io(self, system):
        app, stretch, driver = self._paged_app(system)

        def body():
            for va in stretch.pages():       # populate (writes)
                yield Touch(va, AccessKind.WRITE)
            for _ in range(2):               # read loops
                for va in stretch.pages():
                    yield Touch(va, AccessKind.READ)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=120 * SEC)
        # Read-loop evictions are clean: page-outs only from the
        # populate pass (6) plus at most the 2 dirty stragglers.
        assert driver.pageouts <= 8
        assert driver.pageins >= 12

    def test_sequential_bloks_for_sequential_pages(self, system):
        app, stretch, driver = self._paged_app(system)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.WRITE))
        system.sim.run_until_triggered(thread.done, limit=30 * SEC)
        bloks = [driver._blok_of[vpn]
                 for vpn in sorted(driver._blok_of)]
        assert bloks == sorted(bloks)

    def test_swap_exhaustion_raises(self, system):
        app = system.new_app("pg", guaranteed_frames=4)
        page = system.machine.page_size
        stretch = app.new_stretch(8 * page)
        # Swap holds only 2 bloks.
        driver = app.paged_driver(frames=2, swap_bytes=2 * page,
                                  qos=SWAP_QOS)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.WRITE))
        with pytest.raises(SwapFullError):
            system.run_for(30 * SEC)

    def test_try_fast_retries_when_io_needed(self, system):
        app, stretch, driver = self._paged_app(system)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.WRITE))
        system.sim.run_until_triggered(thread.done, limit=30 * SEC)
        # All further faults need eviction or page-in: worker path.
        assert driver.faults_fast == 2     # only the first two (pool)
        assert driver.faults_slow == 6


class TestForgetfulDriver:
    def test_never_pages_in(self, system):
        app = system.new_app("f", guaranteed_frames=4)
        stretch = app.new_stretch(8 * system.machine.page_size)
        driver = app.paged_driver(frames=2, swap_bytes=2 * MB,
                                  qos=SWAP_QOS, forgetful=True)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.WRITE,
                                     repeat=3))
        system.sim.run_until_triggered(thread.done, limit=60 * SEC)
        assert driver.pageins == 0
        # Every fault beyond the first two demand-zeroes and every
        # eviction writes: 3*8 - 2 = 22 of each.
        assert driver.zero_fills == 24
        assert driver.pageouts == 22

    def test_stable_blok_assignment(self, system):
        app = system.new_app("f", guaranteed_frames=4)
        stretch = app.new_stretch(4 * system.machine.page_size)
        driver = app.paged_driver(frames=2, swap_bytes=2 * MB,
                                  qos=SWAP_QOS, forgetful=True)
        app.bind(stretch, driver)
        thread = app.spawn(touch_all(stretch, kind=AccessKind.WRITE,
                                     repeat=2))
        system.sim.run_until_triggered(thread.done, limit=60 * SEC)
        # Each page keeps writing to the same blok on every pass.
        assert len(driver._blok_of) <= 4
