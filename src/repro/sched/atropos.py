"""The Atropos scheduler: EDF over periodic guarantees, with laxity and
roll-over accounting.

§6.7 of the paper describes the algorithm as used by the USD; we
implement it generically:

* Each client holds a QoS tuple ``(p, s, x, l)``: it may perform work
  totalling at most ``s`` ns in every ``p`` ns period. ``x`` marks
  eligibility for slack time; ``l`` is the *laxity*.
* "Each client is periodically allocated s ms and a deadline of
  now + p ms, and placed on a runnable queue." The scheduler, "if there
  is work to be done for multiple clients, chooses the one with the
  earliest deadline and performs a single transaction."
* "Once the transaction completes, the time taken is computed and
  deducted from that client's remaining time. If the remaining time is
  <= 0, the client is moved onto a wait queue; once its deadline is
  reached, it will receive a new allocation and be returned to the
  runnable queue."
* **Laxity** (the fix for the "short-block" problem): a client with no
  pending work "should be allowed to remain on the runnable queue" for
  up to ``l`` ns; the lax time "is accounted to the client just as if it
  were time spent performing disk transactions."
* **Roll-over accounting**: "clients are allowed to complete a
  transaction if they have a reasonable amount of time remaining in the
  current period. Should their transaction take more than this amount
  of time, the client will end with a negative amount of remaining time
  which will count against its next allocation."

Work items are non-preemptible (a disk transaction cannot be split),
which is exactly why roll-over exists.

Every Atropos instance (each CPU core, the system USD and every USBS
volume) runs the same loop, and the loop is not a
simulator process: it is a server of heap callbacks. A CPU burst is
timed by two heap entries, or by none when nothing else is due before
it ends (it runs ahead: :meth:`~repro.sim.core.Simulator._run_ahead`).
A disk transaction is a sequence of such segments, its attempts and
retry backoffs, each timed exactly like a burst. A crash kills the loop
at an interrupt entry and replays the aborted item after
:meth:`AtroposScheduler.restart`. Only the per-client refill loops are
processes.

The scheduler records a trace compatible with the paper's Figure 7/8
bottom plots: ``txn`` events (filled boxes), ``lax`` events (solid
lines) and ``alloc`` events (the small arrows at period boundaries).
"""

from collections import deque
from dataclasses import dataclass
from heapq import heappush

from repro.obs.metrics import NULL_REGISTRY
from repro.sim.core import SimEvent
from repro.sim.units import fmt_time


class PendingWorkError(RuntimeError):
    """A client was departed while work items were still queued.

    Silently dropping queued items wedges their submitters forever
    (their completion events never trigger). The caller must either
    wait for the queue to drain or depart with ``discard=True``, which
    fails every queued item's event so submitters learn their fate.
    """


class ClientDepartedError(Exception):
    """The completion-event failure delivered to submitters whose
    queued items were discarded by ``depart(discard=True)``."""


@dataclass(frozen=True)
class QoSSpec:
    """A (p, s, x, l) guarantee.

    Attributes:
        period_ns: p — the accounting period.
        slice_ns: s — guaranteed service time per period.
        extra: x — whether the client may consume slack time.
        laxity_ns: l — how long the client may linger on the runnable
            queue with no pending work, charged as if working.
    """

    period_ns: int
    slice_ns: int
    extra: bool = False
    laxity_ns: int = 0

    def __post_init__(self):
        if self.period_ns <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.slice_ns <= self.period_ns:
            raise ValueError("slice must satisfy 0 <= s <= p")
        if self.laxity_ns < 0:
            raise ValueError("laxity must be non-negative")

    @property
    def share(self):
        """Fraction of the resource guaranteed (s/p)."""
        return self.slice_ns / self.period_ns

    def __str__(self):
        return "(p=%s, s=%s, x=%s, l=%s)" % (
            fmt_time(self.period_ns), fmt_time(self.slice_ns),
            self.extra, fmt_time(self.laxity_ns))


class WorkItem:
    """One unit of non-preemptible work, timed on the heap by the
    scheduler itself.

    With ``serve`` None the item is a plain burst: ``ns`` nanoseconds of
    service (the CPU schedulers' items). Otherwise ``serve`` is an item
    of one or more segments, such as a disk transaction and its retry
    ladder (:class:`repro.usd.usd.Transaction`), with three methods:
    ``begin()`` starts it and returns its first segment's ns;
    ``advance()``, at each segment's end, returns the next segment's ns,
    or None once the item is done, with its value in ``serve.result``,
    or raises to fail the item; ``abort()`` gives back what a segment in
    flight holds when a crash ends the item, and a replay calls
    ``begin()`` again. ``done`` triggers with that value (``None`` for a
    burst) when the item completes.
    """

    __slots__ = ("serve", "done", "label", "ns", "submitted_at")

    def __init__(self, serve, done, label="", ns=0, submitted_at=None):
        self.serve = serve
        self.done = done
        self.label = label
        self.ns = ns
        self.submitted_at = submitted_at


class AtroposClient:
    """Per-client scheduling state."""

    def __init__(self, scheduler, name, qos, index):
        self.scheduler = scheduler
        self.name = name
        self.qos = qos
        self._index = index          # admission order, EDF tie-break
        self._done_name = "%s.done" % name
        self.queue = deque()
        self.remaining = qos.slice_ns
        self.deadline = scheduler.sim.now + qos.period_ns
        self.lax_used = 0
        self.lax_exhausted = False
        self.departed = False
        # cumulative statistics
        self.served_items = 0
        self.served_ns = 0
        self.lax_ns = 0
        self.slack_items = 0
        self.slack_ns = 0
        self.retries = 0
        self.retry_ns = 0
        # Metrics (no-ops without a live registry), labelled by the
        # scheduler ("sched") and this client. The statistics above and
        # the queue's length are read when the registry is; only the
        # roll-over pair and the duration histogram are pushed.
        metrics = scheduler.metrics
        labels = {"sched": scheduler.name, "client": name}
        metrics.counter(
            "sched_served_ns_total",
            help="guaranteed service time consumed"
        ).read(lambda: self.served_ns, **labels)
        metrics.counter(
            "sched_lax_ns_total", help="lax time charged"
        ).read(lambda: self.lax_ns, **labels)
        metrics.counter(
            "sched_slack_ns_total",
            help="uncharged slack-time service received"
        ).read(lambda: self.slack_ns, **labels)
        self._c_debit_ns = metrics.counter(
            "sched_rollover_debit_ns_total",
            help="overrun time carried into later periods").child(**labels)
        self._g_max_debit = metrics.gauge(
            "sched_rollover_max_debit_ns",
            help="largest single-period carried debit seen").child(**labels)
        metrics.gauge(
            "sched_queue_depth", help="work items queued"
        ).read(lambda: len(self.queue), **labels)
        self._h_txn = metrics.histogram(
            "sched_txn_ns", help="work-item service durations").child(**labels)
        metrics.counter(
            "sched_retries_total",
            help="failure retries performed inside work items"
        ).read(lambda: self.retries, **labels)
        metrics.counter(
            "sched_retry_ns_total",
            help="time consumed by failed attempts and their backoff, "
                 "charged to the owning client"
        ).read(lambda: self.retry_ns, **labels)

    # -- client-facing API -------------------------------------------------

    def submit(self, serve, label="", ns=0):
        """Queue a work item; returns the completion SimEvent.

        ``serve`` is the item's segments (see :class:`WorkItem`); pass
        ``None`` and ``ns`` for a plain burst of that many nanoseconds.
        """
        if self.departed:
            raise RuntimeError("client %s has departed" % self.name)
        sim = self.scheduler.sim
        done = SimEvent(sim, self._done_name)
        self.queue.append(WorkItem(serve, done, label, ns, sim._now))
        # Work arrived: the current workless stretch ends, so the lax
        # allowance refreshes — but a client already marked idle (lax
        # exhausted) stays ignored "until its next periodic allocation"
        # (§6.7), exactly as the paper describes the pre-laxity
        # behaviour that motivated the mechanism.
        if not self.lax_exhausted:
            self.lax_used = 0
        self.scheduler._kick()
        return done

    def note_retry(self, ns):
        """Record one retry's cost (failed attempt + backoff).

        Pure bookkeeping: the time itself is already charged against
        ``remaining`` because retries run *inside* the work item being
        measured — which is exactly how retry time can never leak onto
        another stream's slice. This counter makes that attribution
        visible to tests and the chaos report.
        """
        self.retries += 1
        self.retry_ns += ns


class AtroposScheduler:
    """The scheduling loop. One instance per scheduled resource.

    The loop is a server of heap callbacks, not a simulator process.
    :meth:`_run` picks and starts work until the loop has to wait, then
    registers the one continuation that resumes it:

    * a burst (``serve is None``) pushes :meth:`_elapsed` at the end of
      its ``ns``, which pushes :meth:`_complete` for that instant;
    * a transaction's segments are timed the same way, one after
      another: :meth:`_complete` asks the item for its next segment
      (:meth:`_advance`) and pushes :meth:`_elapsed` at that one's end;
    * a workless earliest-deadline client gets the same-instant guard,
      :meth:`_guard` then :meth:`_guarded`, and may then lax-wait: a
      timed entry, :meth:`_lax_timer`, carries the wait's token, and
      :meth:`_lax_kicked` is registered on the wake event. The timer
      closes the wait one same-instant hop later (:meth:`_lax_close`)
      and a kick at once, whichever comes first, and the charge
      (:meth:`_lax_end`) is one more hop;
    * with nothing runnable the loop waits for a kick in
      :meth:`_on_wake`.

    Where an entry would pop straight after the one pushing it, with
    nothing due in between, the loop runs ahead instead
    (:meth:`~repro.sim.core.Simulator._run_ahead`): a burst or segment
    with nothing due before its end completes inside :meth:`_begin` or
    :meth:`_advance`, and :meth:`_elapsed`, :meth:`_guard` and the lax
    wait's hops call their same-instant successor inline when nothing
    else is due at this instant. docs/PERFORMANCE.md ("one CPU burst",
    "one disk transaction", "one USD client completion") explains why
    each of these heap entries stays otherwise. A crash leaves the dead
    loop's continuations registered: each one returns at once, since a
    timed entry carries the number of the loop's life that pushed it
    (or the token of a lax wait the crash closed) and an event callback
    must match :attr:`_waiting_on`.
    """

    def __init__(self, sim, name="atropos", trace=None, rollover=True,
                 metrics=None):
        """A client whose laxity expires is idle-marked and ignored
        "until its next periodic allocation" even if work arrives in
        between (§6.7); only a client whose ``x`` allows it may then be
        served on slack time."""
        self.sim = sim
        self.name = name
        self.trace = trace
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.rollover = rollover
        self.clients = []
        self._wake_name = "%s.wake" % name
        self._wake = sim.event(self._wake_name)
        self._next_index = 0
        self._current = None     # (client, item) while one is in flight
        # The loop's state between its callbacks.
        self._alive = True
        self._life = 0           # bumped when a crash ends the loop
        self._waiting_on = None  # the event the loop waits for, if any
        self._started = 0        # when the in-flight item started
        self._charged = False    # whether it is charged to its client
        self._lax_client = None  # the workless client being guarded
        self._lax_started = 0    # when its lax wait began
        self._lax_waits = 0      # lax waits begun: each one's token
        self._lax_wait = None    # the open lax wait's token, if any
        # Bound once: one of these is pushed or registered per wait.
        self._elapsed_cb = self._elapsed
        self._complete_cb = self._complete
        self._guard_cb = self._guard
        self._guarded_cb = self._guarded
        self._lax_timer_cb = self._lax_timer
        self._lax_close_cb = self._lax_close
        self._lax_kicked_cb = self._lax_kicked
        self._lax_end_cb = self._lax_end
        # The loop starts from the heap, after whatever the caller does
        # at this instant.
        sim._schedule(0, self._run)

    # -- admission -----------------------------------------------------------

    def admitted_share(self):
        """Sum of guaranteed shares of current clients."""
        return sum(c.qos.share for c in self.clients if not c.departed)

    def admit(self, name, qos):
        """Admit a client; refuses if guarantees would exceed capacity.

        Mirrors the frames allocator's admission-control principle: "the
        sum of all guaranteed [shares] ... must be less than the total"
        so every guarantee can be met simultaneously.
        """
        if self.admitted_share() + qos.share > 1.0 + 1e-12:
            raise ValueError(
                "admission control: %s + %.3f share for %r exceeds capacity"
                % (self.name, qos.share, name))
        client = AtroposClient(self, name, qos, self._next_index)
        self._next_index += 1
        self.clients.append(client)
        self._record("alloc", client, remaining=client.remaining)
        self.sim.spawn(self._refill_loop(client), name="%s-refill-%s" % (self.name, name))
        self._kick()
        return client

    def depart(self, client, discard=False):
        """Remove a client from scheduling.

        Departing with work still queued used to drop the items
        silently, wedging any submitter waiting on their completion
        events. Now: raises :class:`PendingWorkError` unless
        ``discard=True``, in which case every queued item's event fails
        with :class:`ClientDepartedError` so waiters are notified.
        """
        if client.queue and not discard:
            raise PendingWorkError(
                "client %s departed with %d work item(s) queued; drain "
                "first or depart(discard=True)"
                % (client.name, len(client.queue)))
        client.departed = True
        while client.queue:
            item = client.queue.popleft()
            item.done.fail(ClientDepartedError(
                "client %s departed; queued %r discarded"
                % (client.name, item.label)))
        self._kick()

    # -- crash / restart -------------------------------------------------------

    def crash(self):
        """Kill the scheduling loop mid-flight (crash-fault injection).

        The interrupt lands on the next dispatch at the current
        simulated time; the abort of the in-flight item is scheduled
        *after* it (same time, later insertion order) so the loop is
        provably dead before the item is touched. The in-flight item is
        returned to the head of its owner's queue (or, if the owner has
        departed, its event fails with :class:`ClientDepartedError`,
        since nothing would replay it), and after :meth:`restart` the
        loop begins it again: the whole burst, or the whole transaction
        from its first attempt (abort-and-replay). Partially-elapsed
        service time dies with the loop uncharged; the replay is charged
        in full to the same owner, so a crash can never shift cost onto
        a bystander.
        """
        if self._alive:
            # What the loop waits for goes stale now, but the loop dies
            # only at the interrupt entry: entries queued before it still
            # run, and ``running`` stays True until then.
            self._life += 1
            self._waiting_on = None
            self._lax_wait = None
            self.sim._schedule(0, self._interrupt)
        self.sim._schedule(0, self._abort_current)

    def _interrupt(self):
        """The interrupt entry: end the loop's life.

        An in-flight item is aborted at this entry: a disk transaction
        mid-attempt releases the drive here.
        """
        if not self._alive:
            return
        self._alive = False
        self._life += 1
        self._waiting_on = None
        if self._current is not None:
            serve = self._current[1].serve
            if serve is not None:
                serve.abort()

    def _abort_current(self):
        if self._current is None:
            return
        client, item = self._current
        self._current = None
        if item.done.triggered:
            return
        if client.departed:
            item.done.fail(ClientDepartedError(
                "client %s departed; in-flight %r aborted by a crash"
                % (client.name, item.label)))
            return
        client.queue.appendleft(item)

    @property
    def running(self):
        """Whether the scheduling loop is alive: False from the entry
        where a :meth:`crash` lands until :meth:`restart`."""
        return self._alive

    def restart(self):
        """Restart the scheduling loop after :meth:`crash`.

        Clients, queues and allocations all survive the crash (the
        per-client refill loops never stopped), so the new loop resumes
        EDF over the existing contracts — the replayed head item first.
        """
        if self._alive:
            raise RuntimeError("%s: loop is still alive" % self.name)
        self._alive = True
        self.sim._schedule(0, self._run)
        self._kick()

    # -- internals -------------------------------------------------------------

    def _record(self, kind, client, duration=0, **info):
        if self.trace is not None:
            self.trace.record(self.sim.now - duration if kind in ("txn", "lax", "slack") else self.sim.now,
                              kind, client.name, duration=duration, **info)

    def _kick(self):
        if not self._wake.triggered:
            self._wake.trigger(None)

    def _wait_kick(self):
        if self._wake.triggered:
            self._wake = SimEvent(self.sim, self._wake_name)
        return self._wake

    def _refill_loop(self, client):
        """Per-client allocation refresh at every deadline (period end)."""
        while not client.departed:
            delay = client.deadline - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
                continue
            carry = client.remaining if (self.rollover and client.remaining < 0) else 0
            if carry < 0:
                client._c_debit_ns.inc(-carry)
                client._g_max_debit.set_max(-carry)
            client.remaining = client.qos.slice_ns + carry
            client.deadline += client.qos.period_ns
            client.lax_used = 0
            client.lax_exhausted = False
            self._record("alloc", client, remaining=client.remaining)
            self._kick()

    def _pick(self):
        """EDF among runnable clients; None if there are none.

        A client is runnable when it has allocation and is not
        idle-marked; this runs at least once per work item, so the test
        is inlined. A *workless* client with allocation is still
        runnable: the scheduler selects it, discovers it has nothing to
        do, and either lax-waits for it (laxity > 0) or marks it idle
        until its next allocation. That selection-then-mark order is the
        paper's: "if the client with the earliest deadline has
        (instantaneously) no further work to be done, the USD scheduler
        would mark it idle, and ignore it until its next periodic
        allocation" — the short-block problem that laxity exists to
        fix. Clients are kept in admission order, so a strict deadline
        comparison breaks ties by admission index.
        """
        best = None
        for client in self.clients:
            if client.departed or client.remaining <= 0 or client.lax_exhausted:
                continue
            if best is None or client.deadline < best.deadline:
                best = client
        return best

    def _pick_slack(self):
        """A slack-time candidate: x=True with work but not runnable
        (allocation exhausted, or idle-marked for the period)."""
        best = None
        for client in self.clients:
            if (client.queue and client.qos.extra and not client.departed
                    and (client.remaining <= 0 or client.lax_exhausted)
                    and (best is None or client.deadline < best.deadline)):
                best = client
        return best

    def _run(self):
        """Pick and start work until the loop must wait (the loop's body).

        Runs from the start entry and from every continuation whose
        wait is over.
        """
        while True:
            client = self._pick()
            if client is None:
                client = self._pick_slack()
                if client is None:
                    self._waiting_on = wake = self._wait_kick()
                    wake.add_callback(self._on_wake)
                    return
                charged = False
            elif client.queue:
                charged = True
            else:
                # Simulation-artifact guard: a completion callback may
                # be about to submit the client's next item at this very
                # instant (a closed-loop client "thinks" for zero time).
                # Let same-instant callbacks land before judging it
                # workless — on real hardware this work would already be
                # visible.
                self._lax_client = client
                sim = self.sim
                sim._seq += 1
                heappush(sim._heap, (sim._now, sim._seq, self._guard_cb,
                                     self._life))
                return
            item = client.queue.popleft()
            if self._begin(client, item, charged):
                return

    def _begin(self, client, item, charged):
        """Start one item; True while it is in flight.

        A plain burst (``item.serve is None``) takes ``item.ns`` of heap
        time, or completes at once if it is empty or runs ahead to its
        end. A transaction's first segment is timed the same way, except
        that an empty one still waits for this instant's other entries.
        """
        sim = self.sim
        self._current = (client, item)
        self._started = sim._now
        self._charged = charged
        serve = item.serve
        if serve is None:
            ns = item.ns
            if not ns or sim._run_ahead(sim._now + ns):
                self._finish(None)
                return False
        else:
            try:
                ns = serve.begin()
            except Exception as exc:
                self._fail(exc)
                return False
            if sim._run_ahead(sim._now + ns):
                return self._advance(serve)
        sim._seq += 1
        heappush(sim._heap, (sim._now + ns, sim._seq, self._elapsed_cb,
                             self._life))
        return True

    def _advance(self, serve):
        """A transaction's segment has ended: time the next, running it
        ahead while nothing is due first; True while one is in flight.

        The item's value completes it; an exception it raises fails the
        item's event, and the loop goes on.
        """
        sim = self.sim
        while True:
            try:
                ns = serve.advance()
            except Exception as exc:
                self._fail(exc)
                return False
            if ns is None:
                self._finish(serve.result)
                return False
            if not sim._run_ahead(sim._now + ns):
                sim._seq += 1
                heappush(sim._heap, (sim._now + ns, sim._seq,
                                     self._elapsed_cb, self._life))
                return True

    def _finish(self, value):
        """Measure and charge the in-flight item; trigger its event."""
        client, item = self._current
        self._current = None
        duration = self.sim._now - self._started
        client._h_txn.observe(duration)
        if self._charged:
            client.remaining -= duration
            client.served_items += 1
            client.served_ns += duration
            if self.trace is not None:
                self._record("txn", client, duration=duration,
                             label=item.label, remaining=client.remaining)
        else:
            client.slack_items += 1
            client.slack_ns += duration
            if self.trace is not None:
                self._record("slack", client, duration=duration,
                             label=item.label)
        item.done.trigger(value)

    def _fail(self, exc):
        """Charge the failed in-flight item's time; fail its event."""
        client, item = self._current
        self._current = None
        if self._charged:
            client.remaining -= self.sim._now - self._started
        item.done.fail(exc)

    # -- continuations: each returns at once if its loop has died --------------

    def _elapsed(self, life):
        """A burst's or segment's time has passed: complete it at this
        instant, after the entries already queued for it (inline if
        there are none)."""
        sim = self.sim
        if sim._run_ahead(sim._now):
            self._complete(life)
            return
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, self._complete_cb, life))

    def _complete(self, life):
        """Charge the burst, trigger its event and go on; a transaction
        goes on to its next segment, if it has one."""
        if life != self._life:
            return
        serve = self._current[1].serve
        if serve is None:
            self._finish(None)
        elif self._advance(serve):
            return
        self._run()

    def _guard(self, life):
        """The guard's first entry: queue its second for this instant,
        or run it inline if nothing else is due at this instant."""
        sim = self.sim
        if sim._run_ahead(sim._now):
            self._guarded(life)
            return
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, self._guarded_cb, life))

    def _guarded(self, life):
        """Same-instant work has landed: serve it, or lax-wait.

        Lax wait: the earliest-deadline client has no work. Hold the
        resource for it, charging the wait, until work arrives or its
        lax/remaining budget runs out: a timed entry carrying the wait's
        token, and :meth:`_lax_kicked` registered on the wake event.
        """
        if life != self._life:
            return
        client = self._lax_client
        if not client.queue:
            allowance = min(client.qos.laxity_ns - client.lax_used,
                            client.remaining)
            if allowance > 0:
                sim = self.sim
                self._lax_started = sim._now
                self._lax_waits += 1
                self._lax_wait = token = self._lax_waits
                sim._seq += 1
                heappush(sim._heap, (sim._now + allowance, sim._seq,
                                     self._lax_timer_cb, token))
                self._waiting_on = wake = self._wait_kick()
                wake.add_callback(self._lax_kicked_cb)
                return
            client.lax_exhausted = True
        self._run()

    def _lax_timer(self, token):
        """A lax wait's allowance has passed: end the wait at this
        instant, after the entries already queued for it (inline if
        there are none), unless a kick or a crash ended it first."""
        if token != self._lax_wait:
            return
        sim = self.sim
        if sim._run_ahead(sim._now):
            self._lax_close(token)
            return
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, self._lax_close_cb,
                             token))

    def _lax_kicked(self, event):
        """The wake event the lax wait registered on was kicked: end the
        wait, if it is still open.

        A wait whose timer ended it leaves its registration behind, so
        when the loop lax-waits again on the same wake event, the first
        registration to run closes the open wait. Nothing else registers
        on the wake event between them, so they pop back to back, and
        the charge lands behind the last of them either way.
        """
        if event is self._waiting_on and self._lax_wait is not None:
            self._lax_close(self._lax_wait)

    def _lax_close(self, token):
        """Close lax wait ``token`` if it is still open, and charge it at
        this instant after the entries already queued for it (inline if
        there are none)."""
        if token != self._lax_wait:
            return
        self._lax_wait = None
        self._waiting_on = None
        sim = self.sim
        if sim._run_ahead(sim._now):
            self._lax_end(self._life)
            return
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, self._lax_end_cb,
                             self._life))

    def _lax_end(self, life):
        """A lax wait ended: charge the time waited and go on."""
        if life != self._life:
            return
        client = self._lax_client
        waited = self.sim._now - self._lax_started
        if waited > 0:
            client.remaining -= waited
            client.lax_used += waited
            client.lax_ns += waited
            self._record("lax", client, duration=waited)
        if not client.queue and client.lax_used >= client.qos.laxity_ns:
            client.lax_exhausted = True
        self._run()

    def _on_wake(self, event):
        """The idle loop was kicked: pick again."""
        if event is not self._waiting_on:
            return
        self._waiting_on = None
        self._run()
