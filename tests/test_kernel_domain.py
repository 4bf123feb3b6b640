"""Tests for domains: threads, effects, activations, fault dispatch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.mmu import AccessKind, FaultCode
from repro.kernel.threads import Compute, Thread, ThreadState, Touch, Wait, Yield
from repro.mm.rights import Rights
from repro.sim.units import MS, SEC, US
from repro.system import NemesisSystem


@pytest.fixture
def app(system):
    """A domain with a 64-page mapped stretch behind a physical driver."""
    app = system.new_app("t", guaranteed_frames=80)
    stretch = app.new_stretch(64 * system.machine.page_size)
    driver = app.physical_driver(frames=64)
    driver.zero_on_map = False
    app.bind(stretch, driver)
    return app, stretch, driver


class TestThreads:
    def test_compute_takes_time(self, system):
        app = system.new_app("c", guaranteed_frames=1)

        def body():
            yield Compute(5 * MS)
            return system.now

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert thread.done.value >= 5 * MS

    def test_threads_round_robin(self, system):
        app = system.new_app("rr", guaranteed_frames=1)
        order = []

        def body(tag):
            for _ in range(3):
                order.append(tag)
                yield Yield()

        t1 = app.spawn(body("a"))
        t2 = app.spawn(body("b"))
        system.sim.run(until=100 * MS)
        assert t1.done.triggered and t2.done.triggered
        assert order[:4] == ["a", "b", "a", "b"]

    def test_wait_effect_blocks_until_event(self, system):
        app = system.new_app("w", guaranteed_frames=1)
        event = system.sim.event("external")

        def body():
            value = yield Wait(event)
            return value

        thread = app.spawn(body())
        system.sim.call_after(10 * MS, lambda: event.trigger("payload"))
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert thread.done.value == "payload"

    def test_wait_on_already_triggered_event(self, system):
        app = system.new_app("w2", guaranteed_frames=1)
        event = system.sim.event()
        event.trigger("early")

        def body():
            return (yield Wait(event))

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert thread.done.value == "early"

    def test_wait_on_failed_event_raises_in_thread(self, system):
        app = system.new_app("w3", guaranteed_frames=1)
        event = system.sim.event()
        caught = []

        def body():
            try:
                yield Wait(event)
            except RuntimeError as exc:
                caught.append(str(exc))

        thread = app.spawn(body())
        system.sim.call_after(1 * MS, lambda: event.fail(RuntimeError("io")))
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert caught == ["io"]

    def test_invalid_effect_raises(self, system):
        app = system.new_app("bad", guaranteed_frames=1)

        def body():
            yield "not an effect"

        app.spawn(body())
        with pytest.raises(TypeError):
            system.sim.run(until=1 * SEC)

    def test_kill_thread(self, system):
        app = system.new_app("k", guaranteed_frames=1)

        def body():
            while True:
                yield Compute(1 * MS)

        thread = app.spawn(body())
        system.run_for(5 * MS)
        thread.kill()
        assert thread.state is ThreadState.DEAD
        assert thread.done.triggered


class TestFaultPath:
    def test_touch_mapped_page_succeeds(self, app):
        app_obj, stretch, _driver = app
        system = app_obj.system

        def body():
            result = yield Touch(stretch.base, AccessKind.WRITE)
            return result.pfn

        thread = app_obj.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert isinstance(thread.done.value, int)

    def test_fault_is_transparent_to_the_thread(self, app):
        app_obj, stretch, driver = app
        system = app_obj.system
        pfns = []

        def body():
            for va in stretch.pages():
                result = yield Touch(va, AccessKind.WRITE)
                pfns.append(result.pfn)

        thread = app_obj.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=10 * SEC)
        assert len(pfns) == stretch.npages
        assert len(set(pfns)) == stretch.npages
        assert thread.faults == stretch.npages

    def test_fault_dispatch_goes_to_faulting_domain_only(self, system):
        a = system.new_app("a", guaranteed_frames=8)
        b = system.new_app("b", guaranteed_frames=8)
        stretch_a = a.new_stretch(system.machine.page_size)
        a.bind(stretch_a, a.physical_driver(frames=1))

        def body():
            yield Touch(stretch_a.base, AccessKind.WRITE)

        thread = a.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert a.domain.fault_channel.acked == 1
        assert b.domain.fault_channel.sent == 0

    def test_unallocated_fault_kills_thread(self, system):
        app = system.new_app("oops", guaranteed_frames=2)

        def body():
            yield Touch(0x7000_0000, AccessKind.READ)

        thread = app.spawn(body())
        system.run_for(100 * MS)
        assert thread.state is ThreadState.DEAD
        assert app.mmentry.failures == 1

    def test_protection_fault_without_handler_kills_thread(self, app):
        app_obj, stretch, _driver = app
        system = app_obj.system
        # Map a page first, then drop the write right.
        def setup():
            yield Touch(stretch.base, AccessKind.WRITE)

        thread = app_obj.spawn(setup())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        app_obj.domain.protdom.set_rights(stretch.sid, Rights.parse("rm"))

        def violator():
            yield Touch(stretch.base, AccessKind.WRITE)

        bad = app_obj.spawn(violator())
        system.run_for(100 * MS)
        assert bad.state is ThreadState.DEAD

    def test_faulting_access_retried_after_resolution(self, app):
        """The Touch that faulted must observe the final mapping."""
        app_obj, stretch, driver = app
        system = app_obj.system

        def body():
            result = yield Touch(stretch.base, AccessKind.WRITE)
            return result.ok

        thread = app_obj.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert thread.done.value is True
        assert driver.faults_fast + driver.faults_slow == 1


class TestActivations:
    def test_activation_counts(self, app):
        app_obj, stretch, _driver = app
        system = app_obj.system

        def body():
            yield Touch(stretch.base, AccessKind.WRITE)

        thread = app_obj.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert app_obj.domain.activations >= 1

    def test_notification_handler_runs_in_activation_context(self, system):
        app = system.new_app("ctx", guaranteed_frames=4)
        observed = []
        channel = app.domain.create_channel(
            "test", handler=lambda payload: observed.append(
                (payload, app.domain.in_activation_handler)))
        channel.send("hello")
        system.run_for(10 * MS)
        assert observed == [("hello", True)]

    def test_domain_and_fifo_cpu_spawn_no_process(self, system):
        """A domain's turns and the FIFO CPU's bursts are heap callbacks:
        running threads that compute, wait and yield spawns no simulator
        process."""
        def spawned():
            return system.metrics.snapshot().get("sim_processes_spawned_total")

        before = spawned()
        app = system.new_app("callbacks", guaranteed_frames=1)

        def body():
            for _ in range(5):
                yield Compute(30 * US)
                yield Wait(system.sim.timeout(10 * US))
                yield Yield()

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert app.domain.cpu.bursts > 5
        assert spawned() == before

    def test_domain_kill_stops_everything(self, system):
        app = system.new_app("victim", guaranteed_frames=2)

        def spinner():
            while True:
                yield Compute(1 * MS)

        thread = app.spawn(spinner())
        system.run_for(5 * MS)
        app.domain.kill("test")
        system.run_for(50 * MS)
        assert app.domain.dead
        assert thread.state is ThreadState.DEAD

    def test_cpu_time_attributed_to_domain(self, system):
        app = system.new_app("acct", guaranteed_frames=1)

        def body():
            yield Compute(7 * MS)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=1 * SEC)
        assert app.domain.cpu.consumed_ns >= 7 * MS


#: Operations on one domain's event channels: a send on one of three
#: test channels, a direct activation, a short run (the domain activates
#: itself), or a kill.
_CHANNEL_OPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.integers(0, 2)),
    st.tuples(st.just("activate")),
    st.tuples(st.just("run"), st.integers(0, 3)),
    st.tuples(st.just("kill")),
), max_size=30)


class TestPendingEventTracking:
    @settings(max_examples=50, deadline=None)
    @given(ops=_CHANNEL_OPS)
    def test_pending_flag_matches_a_full_channel_scan(self, ops):
        """The O(1) "maybe pending" flag never hides an undelivered
        event: after every operation, ``_has_pending_events()`` agrees
        with a scan of every channel the domain owns."""
        system = NemesisSystem()
        domain = system.new_app("pending", guaranteed_frames=1).domain
        channels = [domain.create_channel("c%d" % index)
                    for index in range(3)]
        # Channel 1's handler relays to channel 2, so sends also happen
        # inside activations.
        channels[1].handler = channels[2].send
        for op in ops:
            if op[0] == "send":
                channels[op[1]].send(op)
            elif op[0] == "activate":
                domain._activate()
            elif op[0] == "run":
                system.run_for(op[1] * 20 * US)
            else:
                domain.kill("test")
            assert domain._has_pending_events() == any(
                channel.pending for channel in domain.channels)


#: A burst inside the 1 ms quantum, long enough that the step after it
#: is easy to tell from the step before.
BURST = 300 * US


#: The CPU models a domain's burst may run on: the default FIFO CPU and
#: the one-core Atropos CPU.
CPUS = ("fifo", "atropos")


def _stepper(system, marks):
    """An app whose one thread twice computes a burst and marks the step
    after it. The body is finite, so a burst completed at the wrong
    moment fails a test instead of spinning forever."""
    app = system.new_app("stepper", guaranteed_frames=1)

    def body():
        for _ in range(2):
            yield Compute(BURST)
            marks.append(("step", system.now))

    return app.spawn(body())


def _first_step_time(cpu):
    """When the stepper's step after its first burst runs, which is the
    instant that burst ends, measured on a fresh system."""
    system = NemesisSystem(cpu=cpu)
    marks = []
    thread = _stepper(system, marks)
    system.sim.run_until_triggered(thread.done, limit=1 * SEC)
    return marks[0][1]


class TestBurstBoundaries:
    """What happens at the instant a domain's burst ends, on the default
    FIFO CPU and on the one-core Atropos CPU, relative to other work due
    then and to the bound of the running ``run`` or
    ``run_until_triggered`` call."""

    def test_timer_due_at_a_bursts_end_runs_before_the_next_step(self):
        for cpu in CPUS:
            end = _first_step_time(cpu)
            system = NemesisSystem(cpu=cpu)
            marks = []
            thread = _stepper(system, marks)
            system.sim.call_at(end,
                               lambda: marks.append(("timer", system.now)))
            system.sim.run_until_triggered(thread.done, limit=1 * SEC)
            assert marks[:2] == [("timer", end), ("step", end)], cpu

    def test_run_until_before_a_bursts_end_does_not_take_the_step(self):
        for cpu in CPUS:
            end = _first_step_time(cpu)
            system = NemesisSystem(cpu=cpu)
            marks = []
            _stepper(system, marks)
            system.run(until=end - 1)
            assert system.now == end - 1
            assert marks == [], cpu
            system.run(until=end)
            assert system.now == end
            assert marks == [("step", end)], cpu

    def test_run_until_triggered_returns_when_a_thread_triggers(self):
        for cpu in CPUS:
            system = NemesisSystem(cpu=cpu)
            app = system.new_app("trigger", guaranteed_frames=1)
            target = system.sim.event("target")
            marks = []

            def body():
                yield Compute(BURST)
                target.trigger(system.now)
                yield Compute(BURST)
                marks.append(system.now)

            thread = app.spawn(body())
            when = system.sim.run_until_triggered(target, limit=1 * SEC)
            assert when > 0
            assert system.now == when
            assert marks == [], cpu
            assert not thread.done.triggered, cpu
