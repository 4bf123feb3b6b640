"""End-to-end IO failure recovery across the paging stack.

Each test injects one fault class against a paging application's swap
extent and asserts the designed recovery at the right layer:

* transient errors    -> absorbed by USD retries, charged to the owner;
* bad blocks (write)  -> absorbed by SFS spare-region remapping;
* bad blocks (read)   -> contained by the paged driver (page lost,
                         faulting thread killed, nothing else);
* wedged disk         -> the MMEntry watchdog kills the stuck fault
                         instead of wedging the domain.
"""

import pytest

from repro.faults import BAD_BLOCK, STUCK, TRANSIENT, FaultPlan, FaultRule
from repro.hw.disk import READ, WRITE
from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, ThreadState, Touch
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024
QOS = QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS)


def build_pager(system, name="vic", pages=8, frames=2):
    app = system.new_app(name, guaranteed_frames=frames)
    stretch = app.new_stretch(pages * system.machine.page_size)
    driver = app.paged_driver(frames=frames, swap_bytes=2 * MB, qos=QOS)
    app.bind(stretch, driver)
    return app, stretch, driver


def walker(stretch, progress, kind=AccessKind.WRITE):
    def body():
        while True:
            for va in stretch.pages():
                yield Touch(va, kind)
                progress["pages"] = progress.get("pages", 0) + 1
    return body()


def ticker(progress):
    def body():
        while True:
            yield Compute(1 * MS)
            progress["ticks"] = progress.get("ticks", 0) + 1
    return body()


class TestTransientRecovery:
    def test_transient_errors_are_retried_invisibly(self, system):
        """A 15% transient error rate on the swap extent costs retries,
        not correctness: no transaction fails, no page is lost, no
        thread dies."""
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=42, rules=(
            FaultRule(kind=TRANSIENT, rate=0.15,
                      lba_start=extent.start, lba_end=extent.end),)))
        progress = {}
        thread = app.spawn(walker(stretch, progress))
        system.run(10 * SEC)
        usd_client = driver.swap.channel.usd_client
        assert system.disk.injector.injected > 0
        assert usd_client.retries > 0
        assert usd_client.failures == 0
        assert driver.pages_lost == 0
        assert thread.state is not ThreadState.DEAD
        assert progress["pages"] > 100
        snap = system.metrics_snapshot()
        assert snap.get("usd_retries_total",
                        client=driver.name) == usd_client.retries
        assert snap.total("faults_injected_total") \
            == system.disk.injector.injected

    def test_retry_time_is_charged_to_the_faulty_stream(self, system):
        """Retries run inside the owning stream's measured work item:
        the scheduler-level retry accounting lands on the faulty
        client's label and nobody else's."""
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=42, rules=(
            FaultRule(kind=TRANSIENT, rate=0.15,
                      lba_start=extent.start, lba_end=extent.end),)))
        bystander = system.usd.admit("bystander", QoSSpec(
            period_ns=250 * MS, slice_ns=25 * MS, laxity_ns=5 * MS))
        from repro.hw.disk import DiskRequest

        def fs_loop():
            index = 0
            while True:
                yield bystander.submit(DiskRequest(
                    kind=READ, lba=3_600_000 + (index % 64) * 16,
                    nblocks=16))
                index += 1

        system.sim.spawn(fs_loop())
        app.spawn(walker(stretch, {}))
        system.run(10 * SEC)
        sched = driver.swap.channel.usd_client._sched_client
        assert sched.retries > 0 and sched.retry_ns > 0
        assert bystander.retries == 0
        snap = system.metrics_snapshot()
        assert snap.get("faults_injected_total", kind=TRANSIENT,
                        client="bystander") == 0
        assert snap.get("sched_retries_total", sched="usd",
                        client="bystander") == 0


class TestBadBlockRemap:
    def test_write_failure_remaps_to_spare_region(self, system):
        """A persistently bad block under a page-out is absorbed by the
        SFS: the blok moves to the spare region and the application
        never notices."""
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        # Blok 0's first LBA is permanently bad.
        system.install_fault_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind=BAD_BLOCK, blocks=(extent.start,)),)))
        progress = {}
        thread = app.spawn(walker(stretch, progress))
        system.run(10 * SEC)
        swap = driver.swap
        assert swap.remaps == 1
        assert swap.spares_used == 1
        assert swap.remap_table  # blok 0 now lives in the spare extent
        remapped_lba = next(iter(swap.remap_table.values()))
        assert swap.spare_extent.start <= remapped_lba \
            < swap.spare_extent.end
        assert driver.pages_lost == 0
        assert thread.state is not ThreadState.DEAD
        assert progress["pages"] > 100
        snap = system.metrics_snapshot()
        assert snap.get("sfs_remaps_total", swapfile=driver.name) == 1

    def test_remapped_blok_reads_follow_the_remap(self, system):
        """After a remap, page-ins of that blok go to the spare region
        (the bad LBA is never touched again) — the walker keeps cycling
        through all pages indefinitely."""
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind=BAD_BLOCK, blocks=(extent.start,)),)))
        progress = {}
        thread = app.spawn(walker(stretch, progress, kind=AccessKind.READ))
        system.run(15 * SEC)
        assert driver.swap.remaps <= 1
        assert thread.state is not ThreadState.DEAD
        assert progress["pages"] > 200
        # The loop kept revisiting page 0 (whose blok was remapped).
        assert progress["pages"] >= 2 * len(list(stretch.pages()))


class TestReadLossContainment:
    def test_read_failure_kills_only_the_faulting_thread(self, system):
        """A blok whose *reads* fail persistently (write succeeded, the
        medium then degraded) is a lost page: the faulting thread dies,
        the page is marked unrecoverable, and every other thread — and
        the domain — keeps running."""
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind=BAD_BLOCK, blocks=(extent.start,), op=READ),)))
        progress = {}
        victim_thread = app.spawn(walker(stretch, progress))
        bystander_progress = {}
        bystander_thread = app.spawn(ticker(bystander_progress))
        system.run(10 * SEC)
        assert victim_thread.state is ThreadState.DEAD
        assert driver.pages_lost == 1
        assert driver.bloks_retired == 1
        assert len(driver.unrecoverable) == 1
        assert driver.io_failures == 1
        assert not app.domain.dead
        assert bystander_thread.state is not ThreadState.DEAD
        assert bystander_progress["ticks"] > 1000
        snap = system.metrics_snapshot()
        assert snap.get("sdriver_io_failures_total",
                        driver=driver.name) == 1
        assert snap.get("mm_fault_failures_total", domain="vic") == 1

    def test_touching_a_lost_page_again_fails_fast(self, system):
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind=BAD_BLOCK, blocks=(extent.start,), op=READ),)))
        first = app.spawn(walker(stretch, {}))
        system.run(10 * SEC)
        assert first.state is ThreadState.DEAD
        lost_vpn = next(iter(driver.unrecoverable))
        va = system.machine.page_base(lost_vpn)

        def second_body():
            yield Touch(va, AccessKind.READ)

        second = app.spawn(second_body())
        before = driver.io_failures
        system.run_for(1 * SEC)
        # Killed via the fast path: no second round of doomed disk IO.
        assert second.state is ThreadState.DEAD
        assert driver.io_failures == before


class TestWatchdog:
    def test_wedged_disk_fault_is_killed_not_wedging_the_domain(self):
        """Every swap transaction wedges for 60 s of simulated time; the
        MMEntry watchdog (500 ms) throws FaultTimeout into the worker so
        the faulting thread dies and the MMEntry survives to serve the
        next fault."""
        system = NemesisSystem(fault_timeout=500 * MS)
        app, stretch, driver = build_pager(system)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=1, rules=(
            FaultRule(kind=STUCK, rate=1.0, stuck_ns=60 * SEC,
                      lba_start=extent.start, lba_end=extent.end),)))
        progress = {}
        first = app.spawn(walker(stretch, progress))
        bystander_progress = {}
        bystander = app.spawn(ticker(bystander_progress))
        system.run(5 * SEC)
        assert first.state is ThreadState.DEAD
        assert app.mmentry.watchdog_kills >= 1
        assert not app.domain.dead
        assert bystander.state is not ThreadState.DEAD
        assert bystander_progress["ticks"] > 1000
        snap = system.metrics_snapshot()
        assert snap.get("mm_watchdog_kills_total", domain="vic") \
            == app.mmentry.watchdog_kills

    def test_watchdog_does_not_fire_on_healthy_faults(self, system):
        """The default 30 s watchdog never triggers under a healthy
        disk — ordinary fault resolution is milliseconds."""
        app, stretch, driver = build_pager(system)
        progress = {}
        thread = app.spawn(walker(stretch, progress))
        system.run(10 * SEC)
        assert app.mmentry.watchdog_kills == 0
        assert thread.state is not ThreadState.DEAD
        assert progress["pages"] > 100


class TestWatchdogRetryInteraction:
    """The MMEntry watchdog firing *inside* a USD retry ladder.

    A 100%-transient swap extent plus a patient retry policy turns the
    first page-out into a wedge made entirely of legitimate retries:
    the USD stream keeps retrying (each failed attempt and backoff
    charged to the victim's own stream) while the MMEntry worker sits
    blocked past its resolution deadline. The two recovery mechanisms
    must compose: the watchdog charges exactly one FaultTimeout kill
    to the faulting domain, the still-running retry ladder neither
    revives nor re-kills the dead thread, and the worker slot comes
    back clean — no double-kill, no leaked pending work item.
    """

    def _wedge(self):
        from repro.usd.usd import RetryPolicy
        system = NemesisSystem(fault_timeout=500 * MS)
        app, stretch, driver = build_pager(system)
        # Patient enough that the ladder outlives the watchdog: the
        # wedge is made of retries, not a stuck transaction.
        driver.swap.channel.usd_client.retry = RetryPolicy(
            max_retries=1000, backoff_ns=20 * MS,
            backoff_cap_ns=100 * MS, deadline_ns=120 * SEC)
        extent = driver.swap.extent
        system.install_fault_plan(FaultPlan(seed=7, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0,
                      lba_start=extent.start, lba_end=extent.end),)))
        return system, app, stretch, driver

    def test_exactly_one_kill_charged_to_the_faulting_domain(self):
        system, app, stretch, driver = self._wedge()
        system.new_app("other", guaranteed_frames=2)
        victim = app.spawn(walker(stretch, {}))
        system.run(5 * SEC)
        usd_client = driver.swap.channel.usd_client
        # The wedge really was the retry ladder: retries happened, the
        # ladder never exhausted its budget (the watchdog won the race).
        assert usd_client.retries > 0
        assert usd_client.failures == 0
        # Exactly one FaultTimeout kill, charged to the faulting
        # domain and nobody else.
        assert victim.state is ThreadState.DEAD
        assert app.mmentry.watchdog_kills == 1
        snap = system.metrics_snapshot()
        assert snap.get("mm_watchdog_kills_total", domain="vic") == 1
        assert snap.get("mm_watchdog_kills_total", domain="other") == 0
        # ...and so is every retry in the ladder that wedged it.
        assert snap.get("usd_retries_total",
                        client=driver.name) == usd_client.retries

    def test_no_double_kill_and_no_leaked_work_item(self):
        system, app, stretch, driver = self._wedge()
        app.spawn(walker(stretch, {}))
        bystander_progress = {}
        bystander = app.spawn(ticker(bystander_progress))
        system.run(5 * SEC)
        assert app.mmentry.watchdog_kills == 1
        # The retry ladder is still draining in the USD domain; give
        # its completions (and any stale watchdog timers) time to land.
        system.run_for(5 * SEC)
        # No double-kill: the count is stable and the worker slot that
        # took the FaultTimeout survived to serve the next fault.
        assert app.mmentry.watchdog_kills == 1
        for slot in app.mmentry._slots:
            assert slot.thread.state is not ThreadState.DEAD
            assert slot.fault is None
        # No leaked pending work item: the queue drained and the
        # depth gauge agrees.
        assert len(app.mmentry._work) == 0
        snap = system.metrics_snapshot()
        assert snap.get("mm_work_queue_depth", domain="vic") == 0
        # The domain itself never died; bystander threads kept running.
        assert not app.domain.dead
        assert bystander.state is not ThreadState.DEAD
        assert bystander_progress["ticks"] > 1000
