"""Tests for the Atropos scheduler: EDF, allocations, laxity, roll-over,
slack, admission control, idle-marking."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sched.atropos import AtroposScheduler, ClientDepartedError, QoSSpec
from repro.sim.core import Simulator
from repro.sim.trace import Trace
from repro.sim.units import MS, SEC, US


class Segments:
    """A work item on the scheduler's segment protocol for the tests:
    segments of the given ns, timed one after another, then its value
    ``value``, or ``error`` raised to fail it. ``begun`` and ``aborted``
    count the scheduler's calls of ``begin`` and ``abort``."""

    def __init__(self, *ns, value=None, error=None):
        self.ns = ns
        self.value = value
        self.error = error
        self.result = None
        self.begun = 0
        self.aborted = 0
        self._next = 0

    def begin(self):
        self.begun += 1
        self._next = 1
        return self.ns[0]

    def advance(self):
        if self._next < len(self.ns):
            self._next += 1
            return self.ns[self._next - 1]
        if self.error is not None:
            raise self.error
        self.result = self.value
        return None

    def abort(self):
        self.aborted += 1


@pytest.fixture
def sched(sim):
    return AtroposScheduler(sim, name="test")


class TestQoSSpec:
    def test_share(self):
        qos = QoSSpec(period_ns=100 * MS, slice_ns=25 * MS)
        assert qos.share == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            QoSSpec(period_ns=0, slice_ns=0)
        with pytest.raises(ValueError):
            QoSSpec(period_ns=10, slice_ns=11)
        with pytest.raises(ValueError):
            QoSSpec(period_ns=10, slice_ns=5, laxity_ns=-1)

    def test_str(self):
        text = str(QoSSpec(period_ns=250 * MS, slice_ns=25 * MS,
                           laxity_ns=10 * MS))
        assert "250" in text and "25" in text


class TestAdmission:
    def test_overcommit_refused(self, sim, sched):
        sched.admit("a", QoSSpec(period_ns=100 * MS, slice_ns=60 * MS))
        with pytest.raises(ValueError):
            sched.admit("b", QoSSpec(period_ns=100 * MS, slice_ns=50 * MS))

    def test_full_commit_allowed(self, sim, sched):
        sched.admit("a", QoSSpec(period_ns=100 * MS, slice_ns=60 * MS))
        sched.admit("b", QoSSpec(period_ns=100 * MS, slice_ns=40 * MS))
        assert sched.admitted_share() == pytest.approx(1.0)

    def test_departed_share_released(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=60 * MS))
        sched.depart(client)
        sched.admit("b", QoSSpec(period_ns=100 * MS, slice_ns=60 * MS))


class TestBasicService:
    def test_single_item_served(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        done = client.submit(Segments(2 * MS, 3 * MS, value=5 * MS))
        sim.run(until=1 * SEC)
        assert done.triggered and done.value == 5 * MS
        assert client.served_items == 1
        assert client.served_ns == 5 * MS

    def test_items_of_one_client_fifo(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=90 * MS))
        order = []
        for tag in range(5):
            client.submit(Segments(1 * MS, value=tag)).add_callback(
                lambda event: order.append(event.value))
        sim.run(until=1 * SEC)
        assert order == [0, 1, 2, 3, 4]

    def test_service_charged_against_remaining(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        client.submit(None, ns=20 * MS)
        sim.run(until=30 * MS)
        assert client.remaining == 30 * MS

    def test_item_error_propagates_to_submitter(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        done = client.submit(Segments(1 * MS, error=IOError("disk on fire")))
        ok_after = client.submit(Segments(1 * MS))
        sim.run(until=1 * SEC)
        assert done.triggered and not done.ok
        assert ok_after.triggered and ok_after.ok  # scheduler survived


class TestEdf:
    def test_earliest_deadline_served_first(self, sim):
        sched = AtroposScheduler(sim, name="edf")
        # Different periods: the short-period client has the earlier
        # deadline and must be served first.
        long_client = sched.admit("long", QoSSpec(period_ns=200 * MS,
                                                  slice_ns=50 * MS))
        short_client = sched.admit("short", QoSSpec(period_ns=50 * MS,
                                                    slice_ns=10 * MS))
        order = []
        for client in (long_client, short_client):
            client.submit(None, ns=5 * MS).add_callback(
                lambda _event, name=client.name: order.append(name))
        sim.run(until=1 * SEC)
        assert order[0] == "short"

    def test_exhausted_client_waits_for_refill(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=10 * MS))
        first = client.submit(None, ns=10 * MS)
        second = client.submit(None, ns=5 * MS)
        sim.run(until=99 * MS)
        assert first.triggered and not second.triggered
        sim.run(until=200 * MS)
        assert second.triggered

    def test_guarantees_met_under_saturation(self, sim):
        """Three closed-loop clients at 40/20/10%: served time per
        client tracks its guarantee (the Figure 7 property)."""
        sched = AtroposScheduler(sim, name="sat")
        clients = {}
        for name, slice_ms in (("a", 100), ("b", 50), ("c", 25)):
            clients[name] = sched.admit(
                name, QoSSpec(period_ns=250 * MS, slice_ns=slice_ms * MS,
                              laxity_ns=10 * MS))

        def loop(client):
            while True:
                yield client.submit(None, ns=2 * MS)

        for client in clients.values():
            sim.spawn(loop(client))
        sim.run(until=10 * SEC)
        for name, slice_ms in (("a", 100), ("b", 50), ("c", 25)):
            served = clients[name].served_ns + clients[name].lax_ns
            guaranteed = slice_ms * MS * 40  # 40 periods in 10 s
            assert served >= 0.9 * guaranteed, (name, served, guaranteed)
            assert served <= 1.1 * guaranteed, (name, served, guaranteed)


class TestAllocationRefill:
    def test_unused_allocation_not_banked(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        sim.run(until=350 * MS)  # several idle periods
        assert client.remaining <= 50 * MS

    def test_alloc_trace_on_period_boundaries(self, sim):
        trace = Trace()
        sched = AtroposScheduler(sim, trace=trace)
        sched.admit("a", QoSSpec(period_ns=100 * MS, slice_ns=50 * MS))
        sim.run(until=450 * MS)
        allocs = trace.filter(kind="alloc", client="a")
        times = [e.time for e in allocs]
        assert times == [0, 100 * MS, 200 * MS, 300 * MS, 400 * MS]


class TestRollover:
    def test_overrun_debits_next_period(self, sim):
        trace = Trace()
        sched = AtroposScheduler(sim, trace=trace, rollover=True)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=10 * MS))
        # 8 ms remaining > 0 at submission, item takes 25 ms: overrun 15.
        client.submit(None, ns=2 * MS)
        client.submit(None, ns=25 * MS)
        sim.run(until=250 * MS)
        allocs = trace.filter(kind="alloc", client="a")
        # Served 27 ms against a 10 ms slice: debt 17 ms, repaid across
        # the next two allocations (10 - 17 = -7, then -7 + 10 = 3).
        assert allocs[1].info["remaining"] == -7 * MS
        assert allocs[2].info["remaining"] == 3 * MS

    def test_no_rollover_forgives_overrun(self, sim):
        trace = Trace()
        sched = AtroposScheduler(sim, trace=trace, rollover=False)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=10 * MS))
        client.submit(None, ns=25 * MS)
        sim.run(until=150 * MS)
        allocs = trace.filter(kind="alloc", client="a")
        assert allocs[1].info["remaining"] == 10 * MS

    def test_long_run_usage_bounded_with_rollover(self, sim):
        sched = AtroposScheduler(sim, rollover=True)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=10 * MS))

        def loop():
            while True:
                yield client.submit(None, ns=7 * MS)

        sim.spawn(loop())
        sim.run(until=10 * SEC)
        # 10% of 10 s = 1 s; one 7 ms overrun of slop allowed.
        assert client.served_ns <= 1 * SEC + 7 * MS


class TestLaxity:
    def test_lax_time_holds_the_resource(self, sim):
        """A client with a short think time between items keeps the
        resource through laxity instead of being idled."""
        sched = AtroposScheduler(sim)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS,
                                          laxity_ns=10 * MS))
        completed = []

        def loop():
            for i in range(10):
                yield sim.timeout(500 * US)  # think
                yield client.submit(None, ns=2 * MS)
                completed.append(sim.now)

        sim.spawn(loop())
        sim.run(until=100 * MS)  # all within ONE period
        assert len(completed) == 10
        assert client.lax_ns > 0

    def test_lax_time_is_charged(self, sim):
        sched = AtroposScheduler(sim)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS,
                                          laxity_ns=10 * MS))

        def loop():
            yield client.submit(None, ns=2 * MS)
            yield sim.timeout(1 * MS)
            yield client.submit(None, ns=2 * MS)

        sim.spawn(loop())
        sim.run(until=50 * MS)
        # 4 ms of service, plus 10 ms of total lax time charged: the
        # 1 ms mid-workload wait counts against the trailing lax burn's
        # allowance, so the cumulative lax charge is exactly l.
        assert client.remaining == 50 * MS - 4 * MS - 10 * MS

    def test_no_laxity_idles_until_refill(self, sim):
        """The short-block problem: with l=0, a think gap loses the
        rest of the period."""
        sched = AtroposScheduler(sim)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS, laxity_ns=0))
        completed = []

        def loop():
            for _ in range(3):
                yield client.submit(None, ns=2 * MS)
                completed.append(sim.now // (100 * MS))  # period index
                yield sim.timeout(500 * US)

        sim.spawn(loop())
        sim.run(until=1 * SEC)
        # One transaction per period.
        assert completed == [0, 1, 2]

    def test_lax_interval_never_exceeds_l(self, sim):
        trace = Trace()
        sched = AtroposScheduler(sim, trace=trace)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS,
                                          laxity_ns=10 * MS))

        def loop():
            while True:
                yield client.submit(None, ns=2 * MS)
                yield sim.timeout(3 * MS)

        sim.spawn(loop())
        sim.run(until=2 * SEC)
        laxes = trace.filter(kind="lax", client="a")
        assert laxes
        assert max(e.duration for e in laxes) <= 10 * MS

    def test_strict_idle_ignores_late_work(self, sim):
        sched = AtroposScheduler(sim)
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS,
                                          laxity_ns=5 * MS))
        # Laxity expires at t=5ms (client selected immediately, no work).
        done = {}

        def late():
            yield sim.timeout(20 * MS)
            done["event"] = client.submit(None, ns=1 * MS)

        sim.spawn(late())
        sim.run(until=99 * MS)
        assert not done["event"].triggered  # ignored until refill
        sim.run(until=150 * MS)
        assert done["event"].triggered


class TestSlack:
    def test_extra_client_uses_slack_uncharged(self, sim):
        sched = AtroposScheduler(sim)
        client = sched.admit("x", QoSSpec(period_ns=100 * MS,
                                          slice_ns=5 * MS, extra=True))
        for _ in range(10):
            client.submit(None, ns=2 * MS)
        sim.run(until=50 * MS)  # well within the first period
        # 5 ms of guarantee covers 2 items; the other 8 ran on slack.
        assert client.served_items + client.slack_items == 10
        assert client.slack_items >= 7
        assert client.served_ns <= 5 * MS + 2 * MS

    def test_non_extra_client_gets_no_slack(self, sim):
        sched = AtroposScheduler(sim)
        client = sched.admit("x", QoSSpec(period_ns=100 * MS,
                                          slice_ns=5 * MS, extra=False))
        for _ in range(10):
            client.submit(None, ns=2 * MS)
        sim.run(until=99 * MS)
        assert client.slack_items == 0
        assert client.served_items <= 3  # 5 ms slice + one overrun


class TestDepart:
    def test_departed_client_not_served(self, sim, sched):
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        sched.depart(client)
        with pytest.raises(RuntimeError):
            client.submit(None, ns=1 * MS)

    def test_crash_fails_a_departed_clients_in_flight_item(self, sim,
                                                           sched):
        """A crash aborts the in-flight item; if its client has
        departed, nobody will replay it, so its submitter must learn
        that instead of waiting forever."""
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        item = Segments(4 * MS, 6 * MS)
        in_flight = client.submit(item)
        queued = client.submit(None, ns=1 * MS)
        sim.run(until=1 * MS)
        sched.depart(client, discard=True)
        sched.crash()
        sim.run(until=5 * MS)
        sched.restart()
        sim.run(until=50 * MS)
        assert queued.triggered and not queued.ok
        assert in_flight.triggered and not in_flight.ok
        with pytest.raises(ClientDepartedError):
            in_flight.value
        assert (item.begun, item.aborted) == (1, 1)


class TestCallbackLoop:
    def test_loop_spawns_no_process(self):
        """The scheduling loop is a server of heap callbacks: building,
        crashing and restarting it spawns no simulator process, and
        ``admit`` spawns exactly one, the client's refill loop."""
        metrics = MetricsRegistry()
        sim = Simulator(metrics=metrics)

        def spawned():
            return metrics.snapshot().get("sim_processes_spawned_total")

        sched = AtroposScheduler(sim, name="callbacks")
        assert spawned() == 0
        client = sched.admit("a", QoSSpec(period_ns=10 * MS,
                                          slice_ns=5 * MS))
        assert spawned() == 1
        item = client.submit(Segments(1 * MS, 1 * MS))
        plain = client.submit(None, ns=2 * MS)
        sim.run(until=1 * MS)
        sched.crash()
        sim.run(until=2 * MS)
        sched.restart()
        sim.run(until=20 * MS)
        assert item.ok and plain.ok
        assert spawned() == 1

    def test_crash_lands_at_its_interrupt_entry(self, sim, sched):
        """``crash()`` queues the interrupt: the loop runs until that
        entry is dispatched, and the in-flight item is aborted there. The
        dead loop's pending continuation then returns at once, and a
        restart begins the aborted item again and replays it in full,
        charged once."""
        client = sched.admit("a", QoSSpec(period_ns=100 * MS,
                                          slice_ns=50 * MS))
        item = Segments(4 * MS, 6 * MS, value=10 * MS)
        done = client.submit(item)
        sim.run(until=1 * MS)
        sched.crash()
        assert sched.running and item.aborted == 0
        sim.run(until=1 * MS)
        assert not sched.running and item.aborted == 1
        sim.run(until=20 * MS)
        assert not done.triggered
        sched.restart()
        sim.run(until=40 * MS)
        assert done.value == 10 * MS
        assert (item.begun, item.aborted) == (2, 1)
        assert (client.served_ns, client.served_items) == (10 * MS, 1)
