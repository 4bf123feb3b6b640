"""A disk transaction as the Atropos loop times it: segment by segment,
on a bare ``Simulator`` + ``Disk`` + ``USD``.

A transaction is one work item whose segments (each attempt on the
drive, and the backoff before each retry) the loop times exactly like a
CPU burst, running a segment ahead when nothing else is due before it
ends. These tests pin what happens at a transaction's end relative to
other work due then and to the bound and target of the running call,
as ``TestBurstBoundaries`` in tests/test_kernel_domain.py does for
bursts, and what a crash does in each kind of segment.
"""

from repro.faults import TRANSIENT
from repro.faults.plan import CLEAN, FaultDecision
from repro.hw.disk import (STATUS_IO_ERROR, STATUS_OK, Disk, DiskRequest,
                           READ)
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC, US
from repro.usd.usd import USD, RetryPolicy

QOS = QoSSpec(period_ns=100 * MS, slice_ns=40 * MS)
REQUEST = DiskRequest(kind=READ, lba=800_000, nblocks=16)
NEXT = DiskRequest(kind=READ, lba=2_000_000, nblocks=16)


def busy(disk):
    """Whether the drive has a transaction in flight."""
    return disk._txn is not None


def _bare(injector=None):
    sim = Simulator()
    disk = Disk(sim, injector=injector)
    return sim, disk, USD(sim, disk)


def _lone_end():
    """When a lone transaction submitted at time 0 completes."""
    sim, _disk, usd = _bare()
    done = usd.admit("s", QOS).submit(REQUEST)
    sim.run_until_triggered(done, limit=1 * SEC)
    assert done.value.start == 0
    return sim.now


class TestTransactionBoundaries:
    def test_timer_due_at_its_end_runs_before_the_submitter_wakes(self):
        end = _lone_end()
        sim, disk, usd = _bare()
        stream = usd.admit("s", QOS)
        marks = []

        def submitter():
            yield stream.submit(REQUEST)
            marks.append(("wake", sim.now, stream.served_ns))

        proc = sim.spawn(submitter())
        sim.call_at(end, lambda: marks.append(
            ("timer", sim.now, stream.served_ns)))
        sim.run_until_triggered(proc, limit=1 * SEC)
        assert marks == [("timer", end, 0), ("wake", end, end)]
        assert not busy(disk)

    def test_run_until_before_a_transactions_end_does_not_complete_it(self):
        end = _lone_end()
        sim, disk, usd = _bare()
        stream = usd.admit("s", QOS)
        done = stream.submit(REQUEST)
        sim.run(until=end - 1)
        assert sim.now == end - 1
        assert busy(disk) and not done.triggered
        assert (stream.served_ns, disk.stats_reads) == (0, 0)
        sim.run(until=end)
        assert sim.now == end
        assert done.value.end == end and not busy(disk)
        assert (stream.served_ns, disk.stats_reads) == (end, 1)

    def test_run_until_triggered_returns_when_a_transaction_completes(self):
        end = _lone_end()
        sim, disk, usd = _bare()
        stream = usd.admit("s", QOS)
        first = stream.submit(REQUEST)
        second = stream.submit(NEXT)
        assert sim.run_until_triggered(first, limit=1 * SEC).end == end
        # The next transaction has started but did not run ahead past
        # the call's target.
        assert sim.now == end
        assert busy(disk) and not second.triggered
        assert stream.served_ns == end


class FailFirst:
    """An injector that fails the owner's first ``n`` attempts with a
    transient error and records when each of its attempts started."""

    def __init__(self, n):
        self.n = n
        self.starts = []

    def decide(self, req, now):
        if req.client != "owner":
            return CLEAN
        self.starts.append(now)
        if len(self.starts) <= self.n:
            return FaultDecision(status=STATUS_IO_ERROR, kind=TRANSIENT)
        return CLEAN


def _crash_run(fails, in_segment):
    """An owner's retried transaction and a bystander's three, all
    queued at time 0; the scheduler crashes once ``in_segment(owner,
    injector)`` holds and restarts 20 ms later. Returns what each
    check needs, with every attempt the drive finished and every
    release in the order they happened."""
    injector = FailFirst(fails)
    sim, disk, usd = _bare(injector)
    owner = usd.admit("owner", QOS, retry=RetryPolicy(max_retries=1))
    bystander = usd.admit("bystander", QOS)
    finished, released = [], []
    finish, release = disk.finish, disk.release

    def finish_spy():
        finished.append(finish())
        return finished[-1]

    def release_spy():
        released.append(sim.now)
        release()

    disk.finish, disk.release = finish_spy, release_spy
    done = owner.submit(REQUEST)
    theirs = [bystander.submit(DiskRequest(kind=READ, lba=lba, nblocks=16))
              for lba in (1_600_000, 1_600_016, 1_600_032)]
    while not in_segment(owner, injector):
        sim.run(until=sim.now + 50 * US)
    crashed_at = sim.now
    out = {"crashed_at": crashed_at, "busy_before": busy(disk),
           "served_before": (owner.served_ns, bystander.served_ns)}
    usd.sched.crash()
    sim.run(until=crashed_at)          # the interrupt entry lands
    out.update(busy_after=busy(disk), running=usd.sched.running,
               released=list(released))
    sim.run(until=crashed_at + 20 * MS)
    out["served_while_dead"] = (owner.served_ns, bystander.served_ns)
    restart_at = out["restart_at"] = sim.now
    usd.sched.restart()
    sim.run(until=restart_at + 200 * MS)
    out.update(done=done, theirs=theirs, owner=owner, bystander=bystander,
               finished=finished)
    return out


def _in_retried_attempt(owner, injector):
    return len(injector.starts) == 2


def _in_backoff(owner, injector):
    return owner.retries == 1 and len(injector.starts) == 1


class TestCrashInEachSegment:
    """A crash during a retried transaction's disk attempt, and during
    its retry backoff: either way the replay starts again at attempt 1
    and its whole time is charged to the owner alone."""

    def test_crash_during_a_disk_attempt_frees_the_drive_and_replays(self):
        # Attempt 1 fails and the crash lands during attempt 2. The
        # replay's attempt 1 fails too and its attempt 2 succeeds: had
        # the replay carried on the aborted ladder, that failure would
        # have been past the one-retry budget.
        out = _crash_run(3, _in_retried_attempt)
        assert out["busy_before"] and not out["busy_after"]
        assert not out["running"]
        assert out["released"] == [out["crashed_at"]]
        self._check_replay(out)

    def test_crash_during_a_backoff_releases_nothing_and_replays(self):
        out = _crash_run(2, _in_backoff)
        assert not out["busy_before"] and not out["busy_after"]
        assert not out["running"]
        assert out["released"] == []
        self._check_replay(out)

    def _check_replay(self, out):
        owner, bystander = out["owner"], out["bystander"]
        restart_at = out["restart_at"]
        mine = [result for result in out["finished"]
                if result.request.client == "owner"]
        # Before the crash only the failed attempt 1 finished: an
        # aborted attempt commits nothing.
        before = [r for r in mine if r.start < restart_at]
        assert [r.status for r in before] == [STATUS_IO_ERROR]
        # The replay starts at attempt 1 when the loop restarts, and its
        # failure is retried after the first backoff, not the second.
        replay = [r for r in mine if r.start >= restart_at]
        assert [r.status for r in replay] == [STATUS_IO_ERROR, STATUS_OK]
        assert replay[0].start == restart_at
        assert replay[1].start == (replay[0].end
                                   + RetryPolicy().backoff_for(1))
        assert out["done"].value == replay[1]
        assert (owner.retries, owner.failures) == (2, 0)
        # Nothing is charged while the crash lands or the loop is dead;
        # the replay is charged in full, once, to the owner.
        assert out["served_before"] == (0, 0)
        assert out["served_while_dead"] == (0, 0)
        assert owner.served_ns == replay[1].end - restart_at
        assert owner._sched_client.served_items == 1
        # The bystander is charged exactly its own transactions.
        assert all(done.ok for done in out["theirs"])
        assert bystander.served_ns == sum(
            done.value.duration for done in out["theirs"])
