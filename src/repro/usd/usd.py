"""The User-Safe Disk: QoS-scheduled disk transactions.

The USD runs in its own (device-driver) domain: "A thread in the USD
domain is awoken whenever there are pending requests and, if there is
work to be done for multiple clients, chooses the one with the earliest
deadline and performs a single transaction" (§6.7). The scheduling —
EDF over (p, s, x, l) guarantees, laxity for the short-block problem,
roll-over accounting for overruns — is the generic Atropos engine in
:mod:`repro.sched.atropos`; the USD contributes the disk binding and
per-client transaction statistics.

Note the property the paper highlights: because EDF with per-period
allocations naturally serves a client's transactions consecutively, the
expensive seek after a "context switch" between clients is amortised
over the client's subsequent run of transactions.

**Failure recovery** (the fault-injection plane of :mod:`repro.faults`
exercises this): a transaction whose :class:`~repro.hw.disk.DiskResult`
reports an error is retried with capped exponential backoff, *inside
the same Atropos work item* — so every failed attempt and every backoff
nanosecond is measured and charged against the requesting stream's own
(p, s) allocation, never anyone else's. Retries are deadline-aware:
once the stream's own period budget cannot accommodate another attempt,
the USD gives up and fails the completion event with
:class:`TransactionFailed`, leaving recovery policy (remap? page kill?)
to the client — self-paging applied to IO failure.
"""

from dataclasses import dataclass
from typing import Optional

from repro.hw.disk import DiskRequest
from repro.obs.metrics import NULL_REGISTRY
from repro.sched.atropos import AtroposScheduler
from repro.sim.units import MS, US


@dataclass(frozen=True)
class RetryPolicy:
    """How a USD stream retries failed transactions.

    ``max_retries`` bounds the attempts *after* the first;
    backoff for retry ``n`` (1-based) is ``backoff_ns << (n - 1)``
    capped at ``backoff_cap_ns``. ``deadline_ns`` bounds the total time
    from first submission to the last permitted retry; ``None`` uses
    the stream's own period — if recovery cannot finish within one
    period, the stream's guarantee is already forfeit and continued
    retrying would only mortgage future periods.
    """

    max_retries: int = 4
    backoff_ns: int = 500 * US
    backoff_cap_ns: int = 8 * MS
    deadline_ns: Optional[int] = None

    def backoff_for(self, attempt):
        """Exponential backoff before retry ``attempt``, capped."""
        return min(self.backoff_ns << (attempt - 1), self.backoff_cap_ns)


NO_RETRY = RetryPolicy(max_retries=0)


class TransactionFailed(Exception):
    """A disk transaction failed beyond the retry policy's budget.

    Carries the final :class:`~repro.hw.disk.DiskResult` and the number
    of attempts made. Delivered by failing the completion event, so a
    thread blocked in ``yield Wait(...)`` sees it raised at the wait.
    """

    def __init__(self, result, attempts, client):
        super().__init__(
            "disk %s at lba=%d for %s failed (%s) after %d attempt(s)"
            % (result.request.kind, result.request.lba, client,
               result.status, attempts))
        self.result = result
        self.attempts = attempts
        self.client = client


class BlokLostError(Exception):
    """The backing store no longer holds any copy of this blok.

    Raised (by failing the completion event) when a read targets a blok
    whose only copy sat on a volume that failed before the drain could
    migrate it — the multi-volume analogue of a persistent medium error.
    The paged driver contains it exactly like a persistent read failure:
    the page is marked unrecoverable, only its faulting thread dies.
    """


class Transaction:
    """One work item: a disk transaction plus its whole retry ladder.

    The scheduler times it one segment at a time, as it times a CPU
    burst, inside the Atropos measurement window, so retry time (failed
    attempts and backoff alike) is charged to the owning stream. The
    segments alternate: an attempt on the drive, then, while the policy
    allows another, a backoff before the next attempt. :meth:`begin`
    starts attempt 1 and returns its ns; :meth:`advance`, called when a
    segment's time has passed, returns the next segment's ns, or None
    with :attr:`result` set, or raises :class:`TransactionFailed`.
    :meth:`abort` releases the drive if a crash ends the item mid-attempt;
    its replay calls :meth:`begin` again.
    """

    __slots__ = ("stream", "request", "result", "_disk", "_policy",
                 "_deadline_ns", "_began", "_attempt_start", "_attempts",
                 "_on_disk")

    def __init__(self, stream, request):
        self.stream = stream
        self.request = request
        self.result = None
        self._disk = stream.usd.disk
        self._on_disk = False

    def begin(self):
        """Start attempt 1; return its service time in ns."""
        stream = self.stream
        policy = self._policy = stream.retry
        deadline_ns = policy.deadline_ns
        if deadline_ns is None:
            deadline_ns = stream.qos.period_ns
        self._deadline_ns = deadline_ns
        self._began = self._disk.sim._now
        self._attempts = 0
        return self._attempt()

    def _attempt(self):
        disk = self._disk
        self._attempt_start = disk.sim._now
        ns = disk.start(self.request)
        self._on_disk = True
        return ns

    def advance(self):
        """The segment in flight has ended: the next one's ns, or None
        with :attr:`result` set; raises :class:`TransactionFailed` once
        the retry budget or deadline is spent."""
        if not self._on_disk:
            return self._attempt()        # a backoff has passed
        self._on_disk = False
        result = self._disk.finish()
        if result.ok:
            self.result = result
            return None
        stream = self.stream
        policy = self._policy
        now = self._disk.sim._now
        self._attempts = attempts = self._attempts + 1
        backoff = policy.backoff_for(attempts)
        if (attempts > policy.max_retries
                or now + backoff - self._began > self._deadline_ns):
            stream.failures += 1
            raise TransactionFailed(result, attempts, stream.name)
        stream.retries += 1
        stream._sched_client.note_retry(now - self._attempt_start + backoff)
        return backoff

    def abort(self):
        """A crash ended the item: release the drive if an attempt is on
        it (a backoff holds nothing)."""
        if self._on_disk:
            self._on_disk = False
            self._disk.release()


class USDClient:
    """A stream: the client side of a USD attachment."""

    def __init__(self, usd, name, sched_client, retry=None):
        self.usd = usd
        self.name = name
        self.retry = retry if retry is not None else usd.retry
        self._sched_client = sched_client
        self.transactions = 0
        self.blocks_moved = 0
        self.retries = 0
        self.failures = 0
        metrics = usd.metrics
        metrics.counter(
            "usd_transactions_total",
            help="disk transactions submitted, by stream"
        ).read(lambda: self.transactions, client=name)
        metrics.counter(
            "usd_blocks_total",
            help="disk blocks requested, by stream"
        ).read(lambda: self.blocks_moved, client=name)
        metrics.counter(
            "usd_retries_total",
            help="failed-transaction retries, by stream"
        ).read(lambda: self.retries, client=name)
        metrics.counter(
            "usd_txn_failures_total",
            help="transactions failed beyond the retry budget, by stream"
        ).read(lambda: self.failures, client=name)

    @property
    def qos(self):
        """The (p, s, x, l) guarantee this stream was admitted under."""
        return self._sched_client.qos

    def submit(self, request: DiskRequest):
        """Queue one transaction; the event triggers with its DiskResult
        (retries exhausted fail it with :class:`TransactionFailed`)."""
        if request.client != self.name:
            request = DiskRequest(kind=request.kind, lba=request.lba,
                                  nblocks=request.nblocks, client=self.name,
                                  tag=request.tag)
        self.transactions += 1
        self.blocks_moved += request.nblocks
        return self._sched_client.submit(Transaction(self, request),
                                         label=request.kind)

    # Expose the accounting for tests and traces.
    @property
    def served_ns(self):
        """Disk time actually consumed by this stream (monotonic)."""
        return self._sched_client.served_ns

    @property
    def lax_ns(self):
        """Laxity burned waiting with work queued — charged as served."""
        return self._sched_client.lax_ns


class USD:
    """The user-safe disk: admission + the Atropos-scheduled drive."""

    def __init__(self, sim, disk, trace=None, rollover=True, metrics=None,
                 retry=None, name="usd"):
        self.sim = sim
        self.disk = disk
        self.trace = trace
        self.name = name
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.retry = retry if retry is not None else RetryPolicy()
        # ``name`` keeps multi-volume deployments separable: each
        # volume's scheduler exports metrics/trace records under its own
        # sched label (e.g. ``usd-vol2``).
        self.sched = AtroposScheduler(sim, name=name, trace=trace,
                                      rollover=rollover,
                                      metrics=self.metrics)
        self.clients = []

    def admit(self, name, qos, retry=None):
        """Negotiate a (p, s, x, l) guarantee; raises if over-committed."""
        sched_client = self.sched.admit(name, qos)
        client = USDClient(self, name, sched_client, retry=retry)
        self.clients.append(client)
        return client

    def depart(self, client, discard=False):
        """Release a stream's guarantee.

        Raises :class:`~repro.sched.atropos.PendingWorkError` if
        transactions are still queued, unless ``discard=True`` (which
        fails their completion events so submitters are notified).
        """
        self.sched.depart(client._sched_client, discard=discard)
        self.clients.remove(client)
