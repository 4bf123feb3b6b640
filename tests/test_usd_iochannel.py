"""IO channel behaviour: depth enforcement, slot backpressure,
completion ordering, and slot release on failure."""

import pytest

from repro.faults import TRANSIENT, FaultPlan, FaultRule
from repro.hw.disk import Disk, DiskRequest, READ
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC
from repro.usd.iochannel import IOChannel
from repro.usd.usd import NO_RETRY, USD

QOS = QoSSpec(period_ns=100 * MS, slice_ns=50 * MS, laxity_ns=5 * MS)


def make_channel(sim, depth=2, injector=None, retry=None):
    usd = USD(sim, Disk(sim, injector=injector), retry=retry)
    client = usd.admit("chan", QOS)
    return IOChannel(sim, client, depth=depth), client


def read_at(index):
    return DiskRequest(kind=READ, lba=500_000 + index * 16, nblocks=16)


class TestDepth:
    def test_depth_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            make_channel(sim, depth=0)

    def test_submit_beyond_depth_raises(self, sim):
        channel, _client = make_channel(sim, depth=2)
        channel.submit(read_at(0))
        channel.submit(read_at(1))
        assert not channel.can_submit
        with pytest.raises(RuntimeError):
            channel.submit(read_at(2))

    def test_completion_frees_the_slot(self, sim):
        channel, _client = make_channel(sim, depth=1)
        done = channel.submit(read_at(0))
        assert channel.outstanding == 1
        sim.run_until_triggered(done, limit=1 * SEC)
        sim.run(until=sim.now)      # let completion callbacks drain
        assert channel.outstanding == 0
        assert channel.completed == 1
        assert channel.can_submit


class TestSlotBackpressure:
    def test_slot_triggers_immediately_when_free(self, sim):
        channel, _client = make_channel(sim, depth=1)
        assert channel.slot().triggered

    def test_slot_waits_until_a_completion(self, sim):
        channel, _client = make_channel(sim, depth=1)
        channel.submit(read_at(0))
        slot = channel.slot()
        assert not slot.triggered
        sim.run_until_triggered(slot, limit=1 * SEC)
        assert channel.can_submit

    def test_producer_with_backpressure_submits_everything(self, sim):
        channel, _client = make_channel(sim, depth=2)
        completions = []

        def producer():
            for index in range(10):
                while not channel.can_submit:
                    yield channel.slot()
                done = channel.submit(read_at(index))
                done.add_callback(
                    lambda _ev, i=index: completions.append(i))

        proc = sim.spawn(producer())
        sim.run(until=10 * SEC)
        assert proc.triggered
        assert channel.submitted == 10
        assert channel.completed == 10
        assert channel.outstanding == 0

    def test_completions_arrive_in_submission_order(self, sim):
        """One stream's transactions are served FIFO by the scheduler,
        so completions preserve submission order."""
        channel, _client = make_channel(sim, depth=4)
        order = []
        for index in range(4):
            channel.submit(read_at(index)).add_callback(
                lambda _ev, i=index: order.append(i))
        sim.run(until=10 * SEC)
        assert order == [0, 1, 2, 3]


class TestFailureAccounting:
    def test_failed_transactions_release_their_slots(self, sim):
        """A fault storm must not leak channel capacity: failures free
        slots exactly like successes, and are counted separately."""
        injector = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0),))
        channel, client = make_channel(sim, depth=2, injector=injector,
                                       retry=NO_RETRY)
        failures = []
        for index in range(2):
            done = channel.submit(read_at(index))
            done.add_callback(lambda ev: failures.append(ev.ok))
        sim.run(until=5 * SEC)
        assert failures == [False, False]
        assert channel.failed == 2
        assert channel.completed == 0
        assert channel.outstanding == 0
        assert channel.can_submit
        assert client.failures == 2


class TestOwnerHook:
    def test_hook_runs_in_the_completion_entry_after_slot_waiters(self,
                                                                   sim):
        """The owner's hook sees each transaction, failed or not, with
        its slot already free and the slot's waiters already woken, in
        the channel's own completion entry: a run until the slot
        triggers stops after that entry, and the hook has run."""
        injector = FaultPlan(seed=1, rules=(
            FaultRule(kind=TRANSIENT, rate=1.0, lba_start=500_016,
                      lba_end=500_032),))
        usd = USD(sim, Disk(sim, injector=injector), retry=NO_RETRY)
        seen = []
        channel = IOChannel(sim, usd.admit("chan", QOS), depth=1,
                            on_complete=lambda event: seen.append(
                                (event.ok, channel.outstanding,
                                 slot.triggered)))
        for index in range(2):
            channel.submit(read_at(index))
            slot = channel.slot()
            assert not slot.triggered
            sim.run_until_triggered(slot, limit=1 * SEC)
            assert seen == [(True, 0, True), (False, 0, True)][:index + 1]
        assert (channel.completed, channel.failed) == (1, 1)
