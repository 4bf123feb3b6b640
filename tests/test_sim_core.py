"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim.core import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    SimEvent,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.units import MS, SEC, US


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_call_after_runs_at_right_time(self, sim):
        seen = []
        sim.call_after(5 * US, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5 * US]

    def test_call_at_absolute_time(self, sim):
        seen = []
        sim.call_after(1 * US, lambda: None)
        sim.call_at(10 * US, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10 * US]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_after(-1, lambda: None)

    def test_fifo_order_for_simultaneous_events(self, sim):
        order = []
        for tag in range(5):
            sim.call_after(3 * US, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=7 * US)
        assert sim.now == 7 * US

    def test_run_until_does_not_execute_later_events(self, sim):
        seen = []
        sim.call_after(10 * US, lambda: seen.append("late"))
        sim.run(until=5 * US)
        assert seen == []
        sim.run()
        assert seen == ["late"]

    def test_successive_run_calls_compose(self, sim):
        sim.run(until=2 * US)
        sim.run(until=5 * US)
        assert sim.now == 5 * US

    def test_run_empty_heap_is_noop(self, sim):
        assert sim.run() == 0


class TestSimEvent:
    def test_trigger_delivers_value(self, sim):
        event = sim.event("e")
        event.trigger(42)
        assert event.triggered and event.ok
        assert event.value == 42

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_fail_propagates_exception(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        assert event.triggered and not event.ok
        with pytest.raises(RuntimeError):
            event.value

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_trigger_still_fires(self, sim):
        event = sim.event()
        event.trigger("x")
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == ["x"]

    def test_callbacks_run_at_trigger_time(self, sim):
        event = sim.event()
        times = []
        event.add_callback(lambda ev: times.append(sim.now))
        sim.call_after(3 * US, lambda: event.trigger())
        sim.run()
        assert times == [3 * US]


class TestTimeout:
    def test_timeout_triggers_after_delay(self, sim):
        timeout = sim.timeout(9 * US, value="done")
        sim.run()
        assert timeout.value == "done"

    def test_zero_timeout(self, sim):
        timeout = sim.timeout(0)
        sim.run()
        assert timeout.triggered

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-5)


class TestProcess:
    def test_process_runs_and_returns(self, sim):
        def body():
            yield sim.timeout(1 * US)
            return "result"

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "result"
        assert not proc.alive

    def test_process_receives_event_values(self, sim):
        def body():
            got = yield sim.timeout(1 * US, value=10)
            return got + 1

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == 11

    def test_processes_interleave_by_time(self, sim):
        order = []

        def body(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.spawn(body("b", 2 * US))
        sim.spawn(body("a", 1 * US))
        sim.run()
        assert order == ["a", "b"]

    def test_join_another_process(self, sim):
        def child():
            yield sim.timeout(5 * US)
            return "child-result"

        def parent(child_proc):
            got = yield child_proc
            return got

        child_proc = sim.spawn(child())
        parent_proc = sim.spawn(parent(child_proc))
        sim.run()
        assert parent_proc.value == "child-result"

    def test_yield_from_delegation(self, sim):
        def inner():
            yield sim.timeout(2 * US)
            return 7

        def outer():
            value = yield from inner()
            return value * 2

        proc = sim.spawn(outer())
        sim.run()
        assert proc.value == 14

    def test_yielding_non_event_raises(self, sim):
        def body():
            yield 12345

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()
        caught = []

        def body():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(body())
        sim.call_after(1 * US, lambda: event.fail(RuntimeError("io error")))
        sim.run()
        assert caught == ["io error"]

    def test_unwaited_process_exception_propagates(self, sim):
        def body():
            yield sim.timeout(1 * US)
            raise ValueError("unhandled")

        sim.spawn(body())
        with pytest.raises(ValueError):
            sim.run()

    def test_waited_process_exception_fails_waiter(self, sim):
        def child():
            yield sim.timeout(1 * US)
            raise ValueError("child died")

        caught = []

        def parent(child_proc):
            try:
                yield child_proc
            except ValueError as exc:
                caught.append(str(exc))

        child_proc = sim.spawn(child())
        sim.spawn(parent(child_proc))
        sim.run()
        assert caught == ["child died"]

    def test_interrupt_stops_process(self, sim):
        progress = []

        def body():
            progress.append("start")
            yield sim.timeout(100 * US)
            progress.append("end")  # never reached

        proc = sim.spawn(body())
        sim.call_after(10 * US, lambda: proc.interrupt("killed"))
        sim.run()
        assert progress == ["start"]
        assert not proc.alive
        assert proc.triggered  # join still completes

    def test_interrupt_can_be_handled(self, sim):
        outcome = []

        def body():
            try:
                yield sim.timeout(100 * US)
            except Interrupt as interrupt:
                outcome.append(interrupt.cause)

        proc = sim.spawn(body())
        sim.call_after(1 * US, lambda: proc.interrupt("reason"))
        sim.run()
        assert outcome == ["reason"]

    def test_interrupted_process_ignores_stale_event(self, sim):
        def body():
            yield sim.timeout(10 * US)

        proc = sim.spawn(body())
        sim.call_after(1 * US, lambda: proc.interrupt())
        sim.run()  # the 10us timeout still fires but must not resume it
        assert not proc.alive


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(i * US, value=i) for i in (3, 1, 2)]
        combined = sim.all_of(events)
        sim.run()
        assert combined.value == [3, 1, 2]
        assert sim.now == 3 * US

    def test_all_of_empty_triggers_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered
        assert combined.value == []

    def test_all_of_fails_if_child_fails(self, sim):
        event = sim.event()
        combined = sim.all_of([sim.timeout(1 * US), event])
        sim.call_after(2 * US, lambda: event.fail(RuntimeError("x")))
        sim.run()
        assert combined.triggered and not combined.ok

    def test_any_of_returns_winner(self, sim):
        slow = sim.timeout(10 * US, value="slow")
        fast = sim.timeout(2 * US, value="fast")
        combined = sim.any_of([slow, fast])
        sim.run()
        winner, value = combined.value
        assert winner is fast and value == "fast"

    def test_any_of_requires_events(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestRunUntilTriggered:
    def test_returns_value(self, sim):
        event = sim.timeout(5 * US, value="v")
        assert sim.run_until_triggered(event) == "v"
        assert sim.now == 5 * US

    def test_raises_when_heap_drains(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event)

    def test_respects_limit(self, sim):
        ticks = []

        def ticker():
            while True:
                yield sim.timeout(1 * MS)
                ticks.append(sim.now)

        sim.spawn(ticker())
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event, limit=10 * MS)
        assert ticks[-1] == 10 * MS
        # The first entry past the limit is kept, so running on sees
        # the next tick.
        sim.run(until=11 * MS)
        assert ticks[-1] == 11 * MS
