"""The edges of a lax wait, on a bare ``Simulator`` + ``Disk`` + ``USD``.

A workless earliest-deadline stream with laxity holds the drive for up
to its allowance (§6.7). The wait ends at the first of its timer and a
kick (a submission, a refill, a restart), and the time waited is charged
as lax. These tests pin what happens where the wait meets other work
due at the same instant, a crash, and a second wait on a wake event no
kick has triggered yet: each pins the stream's ``lax_ns``, ``lax_used``,
``lax_exhausted`` and ``served_ns``, the ``lax`` and ``txn`` trace
records, and probes that record what they see at chosen heap positions.
"""

from repro.hw.disk import Disk, DiskRequest, READ
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.trace import Trace
from repro.sim.units import MS, SEC
from repro.usd.usd import USD

LAX = 2 * MS
QOS = QoSSpec(period_ns=100 * MS, slice_ns=40 * MS, laxity_ns=LAX)
FIRST = DiskRequest(kind=READ, lba=800_000, nblocks=16)
SECOND = DiskRequest(kind=READ, lba=800_016, nblocks=16)
THIRD = DiskRequest(kind=READ, lba=2_000_000, nblocks=16)
#: The service time of ``SECOND`` after ``FIRST``, and of ``THIRD``
#: after ``FIRST`` (a seek), on an otherwise idle drive.
SECOND_NS = 1_995_735
THIRD_NS = 9_468_013


def _bare():
    sim = Simulator()
    trace = Trace()
    return sim, trace, USD(sim, Disk(sim), trace=trace)


def _lone_end():
    """When a lone transaction submitted at time 0 completes: the
    instant its stream's lax wait begins."""
    sim, _trace, usd = _bare()
    done = usd.admit("s", QOS).submit(FIRST)
    sim.run_until_triggered(done, limit=1 * SEC)
    return sim.now


def _state(usd, name):
    client = usd.sched.clients[[c.name for c in usd.sched.clients]
                               .index(name)]
    return (client.lax_ns, client.lax_used, client.lax_exhausted,
            client.served_ns)


def _records(trace):
    return [(event.time, event.kind, event.client, event.duration)
            for event in trace if event.kind in ("lax", "txn")]


class TestSubmissionAtTheTimersInstant:
    """The first transaction ends at ``end`` and its stream lax-waits
    until ``end + LAX``; the next submission lands exactly then. Either
    way the whole allowance is charged and the next transaction starts
    at once; what differs is which of the two ends the wait, so a probe
    queued behind the submission sees the charge or not."""

    def _run(self, submit_at_deadline):
        end = _lone_end()
        sim, trace, usd = _bare()
        stream = usd.admit("s", QOS)
        marks = []

        def probe(label):
            marks.append((label, sim.now) + _state(usd, "s"))

        def submit():
            probe("submit")
            stream.submit(SECOND)
            sim.call_at(sim.now, lambda: probe("after-submit"))

        stream.submit(FIRST)
        submit_at_deadline(sim, end, submit)
        sim.run(until=end + LAX + 20 * MS)
        return end, marks, _state(usd, "s"), _records(trace)

    def _check_outcome(self, end, state, records):
        # The second wait's allowance is what the first left: none.
        assert state == (LAX, LAX, True, end + SECOND_NS)
        assert records == [
            (0, "txn", "s", end),
            (end, "lax", "s", LAX),
            (end + LAX, "txn", "s", SECOND_NS),
        ]

    def test_submission_queued_before_the_wait_began(self):
        """Its entry precedes the timer's: the kick ends the wait, and
        the charge lands after the probe."""
        end, marks, state, records = self._run(
            lambda sim, end, submit: sim.call_at(end + LAX, submit))
        assert marks == [
            ("submit", end + LAX, 0, 0, False, end),
            ("after-submit", end + LAX, 0, 0, False, end),
        ]
        self._check_outcome(end, state, records)

    def test_submission_queued_during_the_wait(self):
        """Its entry follows the timer's: the timer ends the wait, and
        the charge lands before the probe."""
        def at_deadline(sim, end, submit):
            def later():
                yield sim.timeout(end + LAX // 2)
                yield sim.timeout(LAX - LAX // 2)
                submit()
            sim.spawn(later())

        end, marks, state, records = self._run(at_deadline)
        assert marks == [
            ("submit", end + LAX, 0, 0, False, end),
            ("after-submit", end + LAX, LAX, LAX, False, end),
        ]
        self._check_outcome(end, state, records)


class TestCrashDuringALaxWait:
    """A crash halfway through the wait ends it uncharged, and its timer
    changes nothing when it falls due. The restarted loop picks the
    still-workless stream and lax-waits for it afresh, until a
    submission a quarter of the allowance later."""

    def _run(self, restart_after):
        end = _lone_end()
        sim, trace, usd = _bare()
        stream = usd.admit("s", QOS)
        marks = []
        crash_at = end + LAX // 2
        restart_at = crash_at + restart_after

        def probe(label):
            marks.append((label, sim.now, usd.sched.running)
                         + _state(usd, "s"))

        def crash():
            usd.sched.crash()
            probe("crashed")

        def restart():
            usd.sched.restart()
            probe("restarted")

        stream.submit(FIRST)
        sim.call_at(crash_at, crash)
        sim.call_at(end + LAX + 1, lambda: probe("old-timer"))
        sim.call_at(restart_at, restart)
        sim.call_at(restart_at + LAX // 4, lambda: stream.submit(SECOND))
        sim.run(until=restart_at + 20 * MS)
        assert _state(usd, "s") == (LAX, LAX, True, end + SECOND_NS)
        assert _records(trace) == [
            (0, "txn", "s", end),
            (restart_at, "lax", "s", LAX // 4),
            (restart_at + LAX // 4, "txn", "s", SECOND_NS),
            (restart_at + LAX // 4 + SECOND_NS, "lax", "s",
             LAX - LAX // 4),
        ]
        return end, crash_at, restart_at, marks

    def test_restart_before_the_old_timer_is_due(self):
        """The submission lands at the old timer's instant."""
        end, crash_at, restart_at, marks = self._run(LAX // 4)
        assert restart_at + LAX // 4 == end + LAX
        assert marks == [
            ("crashed", crash_at, True, 0, 0, False, end),
            ("restarted", restart_at, True, 0, 0, False, end),
            ("old-timer", end + LAX + 1, True, LAX // 4, LAX // 4, False,
             end),
        ]

    def test_restart_after_the_old_timer_is_due(self):
        end, crash_at, restart_at, marks = self._run(3 * LAX)
        assert marks == [
            ("crashed", crash_at, True, 0, 0, False, end),
            ("old-timer", end + LAX + 1, False, 0, 0, False, end),
            ("restarted", restart_at, True, 0, 0, False, end),
        ]


class TestSecondWaitOnAPendingWake:
    """Stream ``a``'s wait ends at its timer and marks it idle, so the
    loop lax-waits for ``b`` on the same wake event, which nothing has
    kicked since ``a``'s wait began. A submission for ``b`` then ends
    ``b``'s wait and only ``b``'s."""

    def test_the_kick_ends_only_the_live_wait(self):
        end = _lone_end()
        sim, trace, usd = _bare()
        first = usd.admit("a", QOS)
        second = usd.admit("b", QoSSpec(period_ns=100 * MS,
                                        slice_ns=40 * MS,
                                        laxity_ns=3 * LAX))
        marks = []
        kick_at = end + LAX + LAX

        def probe(label):
            marks.append((label, sim.now) + _state(usd, "a")
                         + _state(usd, "b"))

        def submit():
            probe("submit")
            second.submit(THIRD)
            sim.call_at(sim.now, lambda: probe("after-submit"))

        first.submit(FIRST)
        sim.call_at(end + LAX, lambda: probe("a-timer"))
        sim.call_at(end + LAX + 1, lambda: probe("b-waits"))
        sim.call_at(kick_at, submit)
        sim.run(until=kick_at + 30 * MS)
        assert marks == [
            ("a-timer", end + LAX, 0, 0, False, end, 0, 0, False, 0),
            ("b-waits", end + LAX + 1, LAX, LAX, True, end,
             0, 0, False, 0),
            ("submit", kick_at, LAX, LAX, True, end, 0, 0, False, 0),
            ("after-submit", kick_at, LAX, LAX, True, end,
             0, 0, False, 0),
        ]
        assert _state(usd, "a") == (LAX, LAX, True, end)
        # b's second wait is what its first left of 3 * LAX.
        assert _state(usd, "b") == (3 * LAX, 3 * LAX, True, THIRD_NS)
        assert _records(trace) == [
            (0, "txn", "a", end),
            (end, "lax", "a", LAX),
            (end + LAX, "lax", "b", LAX),
            (kick_at, "txn", "b", THIRD_NS),
            (kick_at + THIRD_NS, "lax", "b", 2 * LAX),
        ]
