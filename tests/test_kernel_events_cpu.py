"""Tests for event channels and the CPU schedulers."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cpu import CostMeter
from repro.kernel.cpu import AtroposCpu, FifoCpu, UnlimitedCpu
from repro.kernel.events import EventChannel
from repro.kernel.threads import Compute, Wait, Yield
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC, US
from repro.system import NemesisSystem

ACCOUNTS = 4

#: (account, arrival, burst) triples: arrivals on a coarse grid so many
#: share an instant, and bursts that are often zero-length.
_ARRIVALS = st.lists(
    st.tuples(st.integers(0, ACCOUNTS - 1),
              st.integers(0, 12).map(lambda tick: tick * 5 * US),
              st.one_of(st.just(0), st.integers(1, 40 * US))),
    min_size=1, max_size=40)

#: (account, burst) pairs all submitted at t=0, many past the quantum.
_BURSTS = st.lists(
    st.tuples(st.integers(0, ACCOUNTS - 1),
              st.one_of(st.just(0), st.integers(1, 3500 * US))),
    min_size=1, max_size=25)

#: Where the sliced run stops: every slice ends at or before it.
HORIZON = 6 * MS

#: One domain's threads, each a list of effects: a compute burst on a
#: coarse grid (some past the 1 ms quantum, so they are split), a sleep
#: on the same grid, or a yield.
_THREADS = st.lists(st.lists(st.one_of(
    st.tuples(st.just("compute"),
              st.integers(1, 60).map(lambda tick: tick * 25 * US)),
    st.tuples(st.just("wait"),
              st.integers(0, 16).map(lambda tick: tick * 25 * US)),
    st.tuples(st.just("yield"), st.just(0)),
), min_size=1, max_size=10), min_size=1, max_size=2)


class FakeDomain:
    def __init__(self):
        self.kicks = 0

    def _kick(self):
        self.kicks += 1


class TestEventChannel:
    def test_send_increments_count(self, sim):
        channel = EventChannel(sim, "c")
        channel.send("p1")
        channel.send("p2")
        assert channel.sent == 2 and channel.pending == 2

    def test_send_kicks_attached_domain(self, sim):
        channel = EventChannel(sim, "c")
        domain = FakeDomain()
        channel.attach(domain)
        channel.send()
        assert domain.kicks == 1

    def test_collect_drains_in_order(self, sim):
        channel = EventChannel(sim, "c")
        channel.send("a")
        channel.send("b")
        assert channel.collect() == ["a", "b"]
        assert channel.pending == 0
        assert channel.acked == 2

    def test_send_charges_event_send(self, sim):
        meter = CostMeter()
        channel = EventChannel(sim, "c", meter=meter)
        channel.send()
        assert meter.counts["event_send"] == 1

    def test_send_without_domain_is_fine(self, sim):
        EventChannel(sim, "c").send("x")


class TestUnlimitedCpu:
    def test_bursts_run_in_parallel(self, sim):
        cpu = UnlimitedCpu(sim)
        a = cpu.register("a")
        b = cpu.register("b")
        done_a = a.consume(10 * US)
        done_b = b.consume(10 * US)
        sim.run()
        # Both completed at t=10us: no serialisation.
        assert sim.now == 10 * US
        assert done_a.triggered and done_b.triggered


class TestFifoCpu:
    def test_bursts_serialise(self, sim):
        cpu = FifoCpu(sim)
        account = cpu.register("a")
        first = account.consume(10 * US)
        second = account.consume(5 * US)
        sim.run()
        assert sim.now == 15 * US
        assert first.triggered and second.triggered

    def test_arrival_order_preserved(self, sim):
        cpu = FifoCpu(sim)
        a = cpu.register("a")
        b = cpu.register("b")
        order = []
        a.consume(5 * US).add_callback(lambda ev: order.append("a"))
        b.consume(5 * US).add_callback(lambda ev: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_zero_burst_completes(self, sim):
        cpu = FifoCpu(sim)
        done = cpu.register("a").consume(0)
        sim.run()
        assert done.triggered

    def test_negative_burst_rejected(self, sim):
        cpu = FifoCpu(sim)
        with pytest.raises(ValueError):
            cpu.register("a").consume(-1)

    def test_accounting(self, sim):
        cpu = FifoCpu(sim)
        account = cpu.register("a")
        account.consume(10 * US)
        account.consume(20 * US)
        sim.run()
        assert account.consumed_ns == 30 * US
        assert account.bursts == 2

    @settings(max_examples=150, deadline=None)
    @given(arrivals=_ARRIVALS)
    def test_unsplit_bursts_match_fifo_oracle(self, arrivals):
        """Without a quantum each burst completes at max(arrival,
        previous completion) + its length, in arrival order."""
        sim = Simulator()
        cpu = FifoCpu(sim, quantum=None)
        accounts = [cpu.register("a%d" % index) for index in range(ACCOUNTS)]
        completions = []

        def submit(index, account, ns):
            account.consume(ns).add_callback(
                lambda event: completions.append((index, sim.now)))

        # Same-instant arrivals keep their list order.
        in_order = sorted(enumerate(arrivals), key=lambda item: item[1][1])
        for index, (who, at, ns) in in_order:
            sim.call_at(at, functools.partial(submit, index, accounts[who],
                                              ns))
        sim.run()
        expected = []
        free = 0
        for index, (_who, at, ns) in in_order:
            free = max(at, free) + ns
            expected.append((index, free))
        assert completions == expected

    @settings(max_examples=100, deadline=None)
    @given(bursts=_BURSTS)
    def test_split_bursts_account_exactly(self, bursts):
        """With the default quantum, long bursts are split into chunks,
        but every account is billed exactly what it submitted and the
        CPU never idles while work is queued."""
        sim = Simulator()
        cpu = FifoCpu(sim)
        accounts = [cpu.register("a%d" % index) for index in range(ACCOUNTS)]
        completions = []
        for who, ns in bursts:
            accounts[who].consume(ns).add_callback(
                lambda event: completions.append(sim.now))
        sim.run()
        assert len(completions) == len(bursts)
        for index, account in enumerate(accounts):
            mine = [ns for who, ns in bursts if who == index]
            assert account.consumed_ns == sum(mine)
            assert account.bursts == len(mine)
        assert max(completions) == sum(ns for _who, ns in bursts)

    @settings(max_examples=40, deadline=None)
    @given(cpu=st.sampled_from(("fifo", "atropos")),
           domains=st.lists(_THREADS, min_size=1, max_size=3),
           cuts=st.lists(st.integers(0, HORIZON), max_size=8))
    def test_one_run_equals_many_runs(self, cpu, domains, cuts):
        """Domains on the default FIFO CPU or the one-core Atropos CPU
        reach the same state whether one ``run(until=HORIZON)`` drives
        them or several ``run`` calls that stop at arbitrary instants
        first: every thread steps at the same times and every account
        is billed the same."""
        def simulate(stops):
            system = NemesisSystem(cpu=cpu)
            steps = {}
            accounts = {}

            def body(key, effects):
                for kind, ns in effects:
                    if kind == "compute":
                        yield Compute(ns)
                    elif kind == "wait":
                        yield Wait(system.sim.timeout(ns))
                    else:
                        yield Yield()
                    steps[key].append(system.now)

            for index, threads in enumerate(domains):
                app = system.new_app("d%d" % index, guaranteed_frames=1)
                accounts[app.name] = app.domain.cpu
                for number, effects in enumerate(threads):
                    key = "d%d-t%d" % (index, number)
                    steps[key] = []
                    app.spawn(body(key, effects), name=key)
            for stop in stops:
                system.run(until=stop)
            assert system.now == HORIZON
            billed = {name: (account.consumed_ns, account.bursts)
                      for name, account in accounts.items()}
            return steps, billed

        assert (simulate([HORIZON])
                == simulate(sorted(cuts) + [HORIZON]))


class TestAtroposCpu:
    def test_guaranteed_compute_rate(self, sim):
        cpu = AtroposCpu(sim)
        qos = QoSSpec(period_ns=10 * MS, slice_ns=2 * MS)
        account = cpu.register("a", qos=qos)
        completions = []

        def loop():
            for _ in range(40):
                done = account.consume(1 * MS)
                yield done
                completions.append(sim.now)

        sim.spawn(loop())
        sim.run(until=1 * SEC)
        # 2 ms/10 ms -> 40 ms of compute takes about 200 ms of wall.
        assert len(completions) == 40
        assert 150 * MS <= completions[-1] <= 260 * MS

    def test_two_domains_share_by_guarantee(self, sim):
        cpu = AtroposCpu(sim)
        big = cpu.register("big", qos=QoSSpec(period_ns=10 * MS,
                                              slice_ns=6 * MS))
        small = cpu.register("small", qos=QoSSpec(period_ns=10 * MS,
                                                  slice_ns=2 * MS))
        progress = {"big": 0, "small": 0}

        def loop(account, name):
            while True:
                yield account.consume(500 * US)
                progress[name] += 1

        sim.spawn(loop(big, "big"))
        sim.spawn(loop(small, "small"))
        sim.run(until=2 * SEC)
        ratio = progress["big"] / progress["small"]
        assert 2.5 <= ratio <= 3.5  # 6:2 guarantee

    def test_crash_replays_the_in_flight_burst_in_full(self, sim):
        cpu = AtroposCpu(sim)
        account = cpu.register("a", qos=QoSSpec(period_ns=10 * MS,
                                                slice_ns=5 * MS))
        done = account.consume(300 * US)
        sim.run(until=100 * US)
        cpu.sched.crash()
        sim.run(until=1 * MS)
        assert not done.triggered
        cpu.sched.restart()
        sim.run_until_triggered(done, limit=1 * SEC)
        # The aborted 100 us die uncharged; the replay runs the whole
        # burst again and is charged once, to the same client.
        assert sim.now == 1 * MS + 300 * US
        client = account._client
        assert (client.served_ns, client.served_items) == (300 * US, 1)

    def test_a_burst_is_charged_only_once_its_end_is_reached(self, sim):
        """A ``run`` bounded just before a burst's end leaves it
        uncharged, although nothing else is due before that end; the
        next ``run`` to its end charges it. The laxity keeps the
        workless client runnable until its burst arrives at 1 ms."""
        cpu = AtroposCpu(sim)
        account = cpu.register("a", qos=QoSSpec(period_ns=10 * MS,
                                                slice_ns=5 * MS,
                                                laxity_ns=2 * MS))
        client = account._client
        sim.run(until=1 * MS)
        done = account.consume(300 * US)
        end = 1 * MS + 300 * US
        sim.run(until=end - 1)
        assert not done.triggered
        assert client.served_ns == 0
        sim.run(until=end)
        assert done.triggered
        assert (client.served_ns, client.served_items) == (300 * US, 1)

    def test_a_burst_ending_on_a_period_boundary_is_charged_after_the_refill(
            self, sim):
        """The refill due at a period boundary lands before a burst that
        ends there is charged, so the burst is charged against the new
        allocation."""
        period = 10 * MS
        cpu = AtroposCpu(sim)
        account = cpu.register("a", qos=QoSSpec(period_ns=period,
                                                slice_ns=period))
        client = account._client
        seen = []

        def loop():
            for _ in range(20):
                yield account.consume(500 * US)
                seen.append((sim.now, client.remaining, client.deadline))

        sim.spawn(loop())
        sim.run(until=period)
        assert len(seen) == 20
        assert seen[-1] == (period, period - 500 * US, 2 * period)


class TestQuantumSplitting:
    def test_long_burst_does_not_block_small_ones(self, sim):
        """A 50 ms compute request is split into quantum chunks, so a
        competing 1 ms request finishes in ~2 ms, not ~51 ms."""
        cpu = FifoCpu(sim)
        hog = cpu.register("hog")
        small = cpu.register("small")
        finish = {}
        hog_done = hog.consume(50 * MS)
        small_done = small.consume(1 * MS)
        small_done.add_callback(lambda ev: finish.setdefault("small",
                                                             sim.now))
        hog_done.add_callback(lambda ev: finish.setdefault("hog", sim.now))
        sim.run(until=1 * SEC)
        assert finish["small"] <= 3 * MS
        assert finish["hog"] >= 50 * MS

    def test_split_preserves_total_time(self, sim):
        cpu = FifoCpu(sim)
        account = cpu.register("a")
        done = account.consume(10 * MS + 123)
        sim.run(until=1 * SEC)
        assert done.triggered
        assert sim.now >= 10 * MS  # ran to completion
        assert account.consumed_ns == 10 * MS + 123

    def test_quantum_disabled(self, sim):
        cpu = FifoCpu(sim, quantum=None)
        hog = cpu.register("hog")
        small = cpu.register("small")
        finish = {}
        hog.consume(50 * MS)
        small.consume(1 * MS).add_callback(
            lambda ev: finish.setdefault("small", sim.now))
        sim.run(until=1 * SEC)
        assert finish["small"] >= 50 * MS  # truly non-preemptive

    def test_atropos_cpu_splits_too(self, sim):
        cpu = AtroposCpu(sim)
        a = cpu.register("a", qos=QoSSpec(period_ns=10 * MS,
                                          slice_ns=4 * MS))
        b = cpu.register("b", qos=QoSSpec(period_ns=10 * MS,
                                          slice_ns=4 * MS))
        finish = {}
        a.consume(40 * MS)
        b.consume(1 * MS).add_callback(
            lambda ev: finish.setdefault("b", sim.now))
        sim.run(until=1 * SEC)
        # b's 1 ms fits inside its own first-period slice.
        assert finish["b"] <= 12 * MS

    def test_departure_between_chunks_fails_the_burst(self, sim):
        """An Atropos account departed part-way through a split burst:
        the burst's event fails instead of wedging, and the CPU goes on
        serving a bystander."""
        cpu = AtroposCpu(sim)
        contract = QoSSpec(period_ns=10 * MS, slice_ns=4 * MS)
        a = cpu.register("a", qos=contract)
        b = cpu.register("b", qos=contract)
        burst = a.consume(5 * MS)
        sim.run(until=1500 * US)
        cpu.depart_account(a)
        sim.run(until=20 * MS)
        assert burst.triggered and not burst.ok
        with pytest.raises(RuntimeError, match="client a has departed"):
            burst.value
        after = b.consume(1 * MS)
        sim.run_until_triggered(after, limit=1 * SEC)
        assert after.ok and b.consumed_ns == 1 * MS
