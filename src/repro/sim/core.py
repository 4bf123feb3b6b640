"""The discrete-event simulator core.

A :class:`Simulator` owns an event heap keyed by ``(time, sequence)``.
Work is expressed as *processes*: Python generators that ``yield``
:class:`SimEvent` instances to wait for them. The idiom is::

    def worker(sim, disk):
        yield sim.timeout(5 * MS)            # sleep
        done = disk.submit(request)          # returns a SimEvent
        result = yield done                  # wait for completion
        ...

    sim = Simulator()
    sim.spawn(worker(sim, disk), name="worker")
    sim.run()

The simulator is intentionally small — a few hundred lines — but complete
enough to express the whole Nemesis reproduction: one-shot events,
timeouts, process join, interrupt (used to stop a balancer mid-wait),
failure propagation, and AllOf/AnyOf combinators. Hot paths that need
no generator frame of their own (domains, the FIFO CPU, every Atropos
scheduling loop with its bursts and disk transactions) run as plain
heap callbacks instead, registered on events or pushed onto the heap.

A callback may also *run ahead*: move the clock forward inline and go
on, instead of pushing entries that would pop back to back. The
simulator grants that (:meth:`Simulator._run_ahead`) only while
:meth:`Simulator.run` or :meth:`Simulator.run_until_triggered` is
dispatching, and only when no entry, bound or target could come first,
so every simulated result is the same as without it. The FIFO CPU uses
it for a burst that starts on an idle CPU, and every Atropos loop for a
plain burst or a disk transaction's segment it starts; both also use it
with the clock unmoved, to run a same-instant hand-off (a burst's or
segment's completion, the Atropos guard) inline instead of queueing it
behind nothing.
"""

import heapq
import math

from repro.obs.metrics import NULL_REGISTRY
from repro.sim.units import fmt_time

_PENDING = object()

#: Sentinel marking a heap entry whose callable takes no argument. Heap
#: entries are ``(time, seq, fn, arg)`` tuples; scheduling with an
#: explicit ``arg`` lets event callbacks run as ``fn(event)`` without
#: allocating a closure per waiter (the dominant allocation in the
#: pre-optimisation profile — see docs/PERFORMANCE.md).
_NO_ARG = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Supervisors use this to stop a balancer mid-sleep.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; calling :meth:`trigger` (or :meth:`fail`)
    moves it to *triggered* and schedules all waiting processes to resume
    at the current simulated time. Triggering twice is an error — events
    model facts that become true once (an IO completed, a fault was
    resolved) and never un-happen.
    """

    __slots__ = ("sim", "name", "_value", "_callbacks", "_is_error")

    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._value = _PENDING
        self._callbacks = []
        self._is_error = False

    @property
    def triggered(self):
        """True once the event has been triggered or failed."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """True if the event triggered successfully (not failed)."""
        return self.triggered and not self._is_error

    @property
    def value(self):
        """The value the event triggered with.

        Raises :class:`SimulationError` if the event is still pending, and
        re-raises the failure exception if the event failed.
        """
        if self._value is _PENDING:
            raise SimulationError("event %r has not triggered yet" % self.name)
        if self._is_error:
            raise self._value
        return self._value

    def trigger(self, value=None):
        """Mark the event as having occurred, waking all waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event %r triggered twice" % self.name)
        self._value = value
        if self._callbacks:
            self._flush()
        return self

    def fail(self, exception):
        """Mark the event as failed; waiters see the exception raised."""
        if self._value is not _PENDING:
            raise SimulationError("event %r triggered twice" % self.name)
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._is_error = True
        if self._callbacks:
            self._flush()
        return self

    def add_callback(self, fn):
        """Call ``fn(event)`` when the event triggers (immediately if it
        already has). Callbacks run at the simulated time of the trigger."""
        if self._value is not _PENDING:
            self.sim._schedule(0, fn, self)
        else:
            self._callbacks.append(fn)

    def _flush(self):
        # Each waiter's entry is pushed inline, as Timeout.__init__ does:
        # this runs for every CPU burst, and a _schedule call per waiter
        # is a measurable share of a burst's cost.
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        heap = sim._heap
        now = sim._now
        for fn in callbacks:
            sim._seq += 1
            heapq.heappush(heap, (now, sim._seq, fn, self))

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "failed" if self._is_error else "triggered"
        return "<%s %s %s>" % (type(self).__name__, self.name or id(self), state)


class Timeout(SimEvent):
    """An event that triggers itself after a fixed delay.

    :meth:`cancel` disarms a pending timeout: the heap entry still pops
    at the scheduled time but no longer triggers the event. Deadline
    timers whose race was already decided (the intrusive-revocation
    reply arrived) are cancelled rather than left to fire stale.
    """

    __slots__ = ("delay", "cancelled", "_fire_value")

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise ValueError("negative timeout: %r" % delay)
        # Field setup and scheduling are inlined (no super().__init__, no
        # _schedule call) and the human-readable "timeout(5.000ms)" name
        # is computed lazily in __repr__: timeouts are created once per
        # simulated sleep, and these calls dominated creation cost.
        self.sim = sim
        self.name = "timeout"
        self._value = _PENDING
        self._callbacks = []
        self._is_error = False
        self.delay = delay
        self.cancelled = False
        self._fire_value = value
        sim._seq += 1
        heapq.heappush(sim._heap,
                       (sim._now + delay, sim._seq, Timeout._fire, self))

    def _fire(self):
        if not self.cancelled and self._value is _PENDING:
            self._value = self._fire_value
            if self._callbacks:
                self._flush()

    def cancel(self):
        """Disarm the timeout; a no-op if it already triggered."""
        self.cancelled = True

    def __repr__(self):
        state = "pending"
        if self._value is not _PENDING:
            state = "failed" if self._is_error else "triggered"
        return "<Timeout %s %s>" % (fmt_time(self.delay), state)


class AllOf(SimEvent):
    """Triggers when every constituent event has triggered.

    Its value is the list of constituent values, in the order given. If a
    constituent fails, the AllOf fails with that exception.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.trigger([])
            return
        for event in self._events:
            event.add_callback(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([e.value for e in self._events])


class AnyOf(SimEvent):
    """Triggers when the first constituent event triggers.

    Its value is ``(event, value)`` for the winner. Failure of the winner
    propagates.
    """

    __slots__ = ("_events",)

    def __init__(self, sim, events):
        super().__init__(sim, name="any_of")
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for event in self._events:
            event.add_callback(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self.trigger((event, event._value))


class Process(SimEvent):
    """A generator advanced by the simulator.

    The generator yields :class:`SimEvent` instances; the process resumes
    (with ``event.value`` as the result of the ``yield`` expression) when
    the event triggers. When the generator returns, the process — which is
    itself an event — triggers with the generator's return value, so other
    processes can join it by yielding it.

    Exceptions raised inside the generator fail the process. If nothing is
    waiting on a failed process, the exception propagates out of
    :meth:`Simulator.run` — silent process death hides bugs.
    """

    __slots__ = ("_gen", "_waiting_on", "_wait_since", "alive", "_defunct_ok",
                 "_on_event_cb")

    def __init__(self, sim, gen, name=""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError("Process requires a generator, got %r" % (gen,))
        self._gen = gen
        self._waiting_on = None
        self._wait_since = 0
        self.alive = True
        self._defunct_ok = False
        # One bound method for the process's whole life: creating it per
        # yield was a measurable share of resume cost.
        self._on_event_cb = self._on_event
        sim._schedule(0, Process._start, self)

    def _start(self):
        self._resume(None, None)

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on whatever event it was waiting on; the
        event itself is unaffected (it may trigger later, unobserved).
        """
        if not self.alive:
            return
        self._waiting_on = None
        self.sim._schedule(0, lambda: self._resume(None, Interrupt(cause)))

    def _on_event(self, event):
        if self._waiting_on is not event:
            return  # stale wakeup after an interrupt
        self._waiting_on = None
        sim = self.sim
        if sim._obs_live:
            sim._h_wake.observe(sim._now - self._wait_since)
        if event._is_error:
            self._resume(None, event._value)
        else:
            self._resume(event._value, None)

    def _resume(self, value, exception):
        if not self.alive:
            return
        try:
            if exception is not None:
                target = self._gen.throw(exception)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.alive = False
            self.trigger(getattr(stop, "value", None))
            return
        except Interrupt:
            # Interrupted and the generator did not handle it: dies quietly
            # (a crashed or stopped loop).
            self.alive = False
            if not self.triggered:
                self._defunct_ok = True
                self.trigger(None)
            return
        except Exception as exc:
            self.alive = False
            if self._callbacks:
                self.fail(exc)
            else:
                # Nobody is waiting: surface the error loudly.
                self.alive = False
                raise
            return
        if not isinstance(target, SimEvent):
            self.alive = False
            raise SimulationError(
                "process %r yielded %r; processes must yield SimEvent "
                "instances (use sim.timeout() to sleep)" % (self.name, target)
            )
        self._waiting_on = target
        self._wait_since = self.sim._now
        if target._value is _PENDING:
            target._callbacks.append(self._on_event_cb)
        else:
            target.sim._schedule(0, self._on_event_cb, target)


class Simulator:
    """Owns the clock and the event heap, and runs processes.

    Ties in time are broken by insertion order, making runs deterministic
    given deterministic process code.
    """

    def __init__(self, metrics=None):
        self._now = 0
        self._heap = []
        self._seq = 0
        self._process_count = 0
        #: Total heap entries executed, maintained as a plain int so the
        #: run loop never pays a metric call per event (the
        #: ``sim_events_dispatched_total`` counter reads it).
        self.events_dispatched = 0
        # The running call's bound and target, for _run_ahead: -1 while
        # neither run nor run_until_triggered is dispatching, so nothing
        # runs ahead then.
        self._ahead_until = -1
        self._ahead_target = None
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.metrics.counter(
            "sim_events_dispatched_total",
            help="heap entries executed (callbacks + process resumptions)"
        ).read(lambda: self.events_dispatched)
        self.metrics.counter(
            "sim_processes_spawned_total"
        ).read(lambda: self._process_count)
        self._h_wake = self.metrics.histogram(
            "sim_process_wait_ns",
            help="simulated time a process spent waiting on the event it "
                 "yielded, measured at wakeup").child()
        # Fast-path flag: with a disabled registry every instrument is the
        # shared null object, so the hot loops skip observability work
        # entirely instead of making no-op calls.
        self._obs_live = self.metrics.enabled

    @property
    def now(self):
        """Current simulated time in nanoseconds."""
        return self._now

    def _schedule(self, delay, fn, arg=_NO_ARG):
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, arg))

    def _run_ahead(self, end):
        """Move the clock to ``end`` inline, if nothing can come first.

        A callback about to push entries that would pop back to back up
        to ``end`` (its own continuation last) calls this instead; on
        True it goes on at ``end`` in the same dispatch. With ``end ==
        now`` the clock stays put: that is the same-instant case, a
        callback about to queue its continuation for this very instant,
        which runs inline on True. Three things must hold:

        * the heap's earliest entry is strictly later than ``end``, so
          no other entry runs in between, nor at ``end`` ahead of the
          continuation, whose entries would have been pushed last;
        * ``end`` is within the running call's bound (``run``'s
          ``until``, ``run_until_triggered``'s ``limit``), which would
          otherwise have stopped before those entries;
        * that call's target has not triggered, which would otherwise
          have ended the call before the next entry.

        Sequence numbers only break ties, and every later push keeps its
        relative order, so skipping the entries changes no simulated
        result, only the number of entries dispatched.
        """
        if end > self._ahead_until:
            return False
        heap = self._heap
        if heap and heap[0][0] <= end:
            return False
        target = self._ahead_target
        if target is not None and target._value is not _PENDING:
            return False
        self._now = end
        return True

    def call_at(self, when, fn):
        """Run ``fn()`` at absolute simulated time ``when``."""
        self._schedule(when - self._now, fn)

    def call_after(self, delay, fn):
        """Run ``fn()`` after ``delay`` nanoseconds."""
        self._schedule(delay, fn)

    def event(self, name=""):
        """Create a fresh pending :class:`SimEvent`."""
        return SimEvent(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that triggers after ``delay`` nanoseconds."""
        return Timeout(self, delay, value)

    def all_of(self, events):
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that triggers when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def spawn(self, gen, name=""):
        """Start a new process from generator ``gen``; returns it."""
        self._process_count += 1
        return Process(self, gen, name=name or "process-%d" % self._process_count)

    def run(self, until=None):
        """Run until the heap empties or the clock passes ``until``.

        With ``until`` given, the clock is left exactly at ``until`` even
        if the last executed entry was earlier, so successive ``run``
        calls compose like wall-clock intervals. Callbacks may run ahead
        up to ``until``.
        """
        # The inner loop is the hottest code in the repository: every
        # simulated event in every experiment passes through it. Heap and
        # sentinel are bound to locals, the dispatch counter is a plain
        # integer (added to ``events_dispatched`` once per run), and
        # entries carry their argument so no closure is ever allocated
        # per event.
        heap = self._heap
        heappop = heapq.heappop
        no_arg = _NO_ARG
        dispatched = 0
        self._ahead_until = math.inf if until is None else until
        try:
            while heap:
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                self._now = entry[0]
                dispatched += 1
                fn = entry[2]
                arg = entry[3]
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
        finally:
            self._ahead_until = -1
            self.events_dispatched += dispatched
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_triggered(self, event, limit=None):
        """Run until ``event`` triggers; raises if the heap drains first.

        ``limit`` bounds the simulated time as a safety net in tests.
        Callbacks may run ahead up to ``limit`` while ``event`` is
        pending.
        """
        heap = self._heap
        heappop = heapq.heappop
        no_arg = _NO_ARG
        dispatched = 0
        self._ahead_until = math.inf if limit is None else limit
        self._ahead_target = event
        try:
            while event._value is _PENDING:
                if not heap:
                    raise SimulationError(
                        "simulation ran out of work before %r triggered"
                        % event
                    )
                entry = heappop(heap)
                if limit is not None and entry[0] > limit:
                    # Keep the entry: a later run must still dispatch it.
                    heapq.heappush(heap, entry)
                    raise SimulationError(
                        "simulated time limit %s exceeded waiting for %r"
                        % (fmt_time(limit), event)
                    )
                self._now = entry[0]
                dispatched += 1
                fn = entry[2]
                arg = entry[3]
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
        finally:
            self._ahead_until = -1
            self._ahead_target = None
            self.events_dispatched += dispatched
        return event.value
