"""Exact-output pin for the USD's disk path.

Every disk transaction runs as one Atropos work item, a
:class:`~repro.usd.usd.Transaction` whose segments (each attempt on the
drive, between :meth:`~repro.hw.disk.Disk.start` and
:meth:`~repro.hw.disk.Disk.finish`, and each retry backoff) the
scheduler times like a CPU burst. The USD tests check ranges and
orderings; this test pins exact values, so a change to the disk path
(scheduler loop, segment timing and run-ahead, retry ladder, crash and
restart) that shifts a charged nanosecond or reorders two same-instant
heap entries fails here. One bare ``Simulator`` + ``Disk`` + ``USD``
with three streams:

* a closed-loop reader with laxity, one transaction in flight, the way
  a paged stretch driver faults;
* a reader that keeps a 4-deep :class:`~repro.usd.iochannel.IOChannel`
  full, the way the Figure 9 file-system client pipelines;
* a slack-eligible (``extra=True``) writer, closed loop.

A transient :class:`~repro.faults.FaultPlan` covers both readers'
extents, so transactions retry inside their work items, and the lax
reader's one-retry budget fails one of them outright. The scheduler is
crashed (``usd.sched.crash()``) at a fixed time while a transaction is
in flight and restarted later, so the in-flight item is aborted and
replayed.

It pins each stream's served, lax and slack ns, item counts, retries
and failures, the disk's busy time, the dispatched-event count and a
BLAKE2b digest of every completion's time, stream and status in
completion order. Completions are recorded by a callback on each
transaction's event, which adds one heap entry per transaction to the
event count. A property test checks that cutting the run into random
``run(until=...)`` slices, which bound how far a segment may run ahead,
changes none of these but the event count.

Any edit to the expected values must say which simulated result changed
and why.
"""

import functools
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import TRANSIENT, FaultPlan, FaultRule
from repro.hw.disk import Disk, DiskRequest, READ, WRITE
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, US
from repro.usd.iochannel import IOChannel
from repro.usd.usd import USD, RetryPolicy, TransactionFailed

PERIOD = 50 * MS
LAX_BASE = 400_000
CHAN_BASE = 1_200_000
WRITE_BASE = 2_400_000
EXTENT = 64 * 16
FAULTS = FaultPlan(seed=1999, rules=(
    FaultRule(kind=TRANSIENT, rate=0.15, lba_start=LAX_BASE,
              lba_end=CHAN_BASE + EXTENT),))
CRASH_AT = 137 * MS + 400 * US
RESTART_AT = 151 * MS
RUN_NS = 600 * MS

EXPECTED_STREAMS = {
    # name: (served_ns, lax_ns, slack_ns, served_items, slack_items,
    #        retries, failures)
    "lax-reader": (169294380, 16451186, 0, 64, 0, 8, 1),
    "chan-reader": (229156775, 0, 0, 83, 0, 20, 0),
    "slack-writer": (40304714, 0, 123539290, 3, 9, 0, 0),
}
EXPECTED_BUSY_NS = 549786629
EXPECTED_COMPLETIONS = 160
EXPECTED_DIGEST = "5292de3cabcfefe78f0bbbfa6313971c"
EXPECTED_EVENTS = 945


def _request(kind, base, index):
    return DiskRequest(kind=kind, lba=base + (index % 64) * 16, nblocks=16)


def run_pin_workload(cuts=()):
    """Run the workload; ``cuts`` are extra times to stop ``run`` at."""
    sim = Simulator()
    disk = Disk(sim, injector=FaultPlan(FAULTS.seed, FAULTS.rules))
    usd = USD(sim, disk)
    lax = usd.admit("lax-reader", QoSSpec(
        period_ns=PERIOD, slice_ns=15 * MS, laxity_ns=2 * MS),
        retry=RetryPolicy(max_retries=1))
    chan = usd.admit("chan-reader", QoSSpec(
        period_ns=PERIOD, slice_ns=20 * MS))
    writer = usd.admit("slack-writer", QoSSpec(
        period_ns=PERIOD, slice_ns=3 * MS, extra=True))
    channel = IOChannel(sim, chan, depth=4)
    completions = []

    def submit(client, request, via=None):
        done = (via or client).submit(request)

        def record(event, name=client.name):
            status = (event.value.status if event.ok
                      else type(event._value).__name__)
            completions.append((sim.now, name, status))

        done.add_callback(record)
        return done

    def lax_reader():
        index = 0
        while True:
            try:
                yield submit(lax, _request(READ, LAX_BASE, index))
            except TransactionFailed:
                pass
            index += 1
            yield sim.timeout(300 * US)

    def chan_reader():
        index = 0
        while True:
            while not channel.can_submit:
                yield channel.slot()
            submit(chan, _request(READ, CHAN_BASE, index), via=channel)
            index += 1

    def slack_writer():
        index = 0
        while True:
            yield submit(writer, _request(WRITE, WRITE_BASE, index))
            index += 1

    def run(until):
        for cut in sorted(cuts):
            if sim.now < cut < until:
                sim.run(until=cut)
        sim.run(until=until)

    sim.spawn(lax_reader(), name="lax-reader")
    sim.spawn(chan_reader(), name="chan-reader")
    sim.spawn(slack_writer(), name="slack-writer")
    run(CRASH_AT)
    in_flight = usd.sched._current is not None
    usd.sched.crash()
    run(RESTART_AT)
    crashed = not usd.sched.running
    usd.sched.restart()
    run(RUN_NS)
    streams = {}
    for client in usd.clients:
        sched_client = client._sched_client
        streams[client.name] = (
            sched_client.served_ns, sched_client.lax_ns,
            sched_client.slack_ns, sched_client.served_items,
            sched_client.slack_items, client.retries, client.failures)
    digest = hashlib.blake2b(repr(completions).encode(),
                             digest_size=16).hexdigest()
    return {
        "in_flight": in_flight, "crashed": crashed, "streams": streams,
        "busy_ns": disk.stats_busy_ns, "completions": len(completions),
        "digest": digest, "events": sim.events_dispatched,
        "times": sorted({when for when, _name, _status in completions}),
    }


def test_usd_output_is_pinned():
    out = run_pin_workload()
    # The crash lands mid-transaction and actually stops the loop.
    assert out["in_flight"] and out["crashed"]
    assert out["streams"] == EXPECTED_STREAMS
    assert out["busy_ns"] == EXPECTED_BUSY_NS
    assert out["completions"] == EXPECTED_COMPLETIONS
    assert out["digest"] == EXPECTED_DIGEST
    assert out["events"] == EXPECTED_EVENTS


@functools.lru_cache(maxsize=None)
def _whole_run():
    return run_pin_workload()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_slices_change_nothing_but_the_event_count(data):
    """Cuts anywhere, and at, just before and just after completions,
    where a segment would otherwise run ahead to its end."""
    whole = _whole_run()
    near = st.builds(lambda when, offset: when + offset,
                     st.sampled_from(whole["times"]), st.integers(-1, 1))
    cuts = data.draw(st.lists(st.integers(1, RUN_NS - 1) | near,
                              max_size=40))
    sliced = run_pin_workload(cuts)
    for key in ("in_flight", "crashed", "streams", "busy_ns",
                "completions", "digest"):
        assert sliced[key] == whole[key], key
