"""Domains: activations, notification handlers and the ULTS.

A *domain* is the Nemesis analogue of a process (paper footnote 2). The
execution model (§6.5) is:

1. The kernel activates the domain when it has new events.
2. Inside the *activation handler* — "a limited execution environment
   where further activations are disallowed" and IDC is impossible — the
   user-level event demultiplexer invokes the notification handler of
   each endpoint with new events.
3. The user-level thread scheduler (ULTS) is then entered and picks a
   thread to run.

A notification handler that needs to communicate (e.g. a paged stretch
driver that must talk to the USD) simply unblocks a *worker thread*; the
combination is an *entry* (the MMEntry, in :mod:`repro.mm.mmentry`).

The domain runs in *turns*. A turn alternates between handling pending
events and stepping runnable threads until a step needs CPU (it
acquires a burst from the CPU scheduler) or there is nothing to do; it
then registers the next turn as a callback on the burst, or on the
domain's wake event. A burst the CPU runs ahead (the FIFO CPU, when
nothing else is due before the burst ends) completes inline, and the
turn goes on at its end. No simulator process is involved. All costs flow
through the shared :class:`~repro.hw.cpu.CostMeter`: kernel and MMU code
charge primitives as they execute, and the domain converts the
accumulated nanoseconds into scheduled compute time after each step —
so the live experiments and the Table 1 microbenchmarks price code
paths identically.
"""

from repro.kernel.events import EventChannel
from repro.kernel.threads import (
    Compute,
    Thread,
    ThreadState,
    Touch,
    Wait,
    Yield,
)
from repro.sim.core import SimEvent

#: Looked up once: reading an Enum member off its class costs about
#: 150 ns in CPython 3.11, and the runnable scan does it per thread.
_RUNNABLE = ThreadState.RUNNABLE


class ActivationViolation(Exception):
    """An operation illegal inside an activation handler was attempted
    (e.g. a notification handler tried to block)."""


class Domain:
    """A protected execution environment with its own threads.

    Key collaborators, injected at construction:

    * ``kernel`` — for memory accesses and fault dispatch;
    * ``protdom`` — the protection domain the threads execute in;
    * ``cpu_account`` — handle on the CPU scheduler.
    """

    _next_id = 0

    def __init__(self, sim, kernel, name, protdom, cpu_account):
        Domain._next_id += 1
        self.id = Domain._next_id
        self.sim = sim
        self.kernel = kernel
        self.name = name or "domain-%d" % self.id
        self.protdom = protdom
        self.cpu = cpu_account
        self.meter = kernel.meter
        self.channels = []
        self.threads = []
        self.dead = False
        self.activations = 0
        self.in_activation_handler = False
        # The wake event is recreated every scheduler round-trip; format
        # its name once instead of per iteration.
        self._wake_name = "%s.wake" % self.name
        self._wake = SimEvent(sim, self._wake_name)
        # One bound method for the domain's whole life, registered on
        # every burst or wake the domain waits for.
        self._turn_cb = self._turn
        # Raised by every _kick (each channel send kicks its receiver),
        # lowered by a channel scan that finds nothing undelivered.
        self._maybe_pending = False
        self._last_thread = None
        self._rr_next = 0
        # Per-domain metrics, read from the counts the domain and its
        # channels keep (accountability is per-domain): events sent to
        # any of its channels, faults sent to its fault channel.
        kernel._m_events_sent.read(
            lambda: sum(channel.sent for channel in self.channels),
            domain=self.name)
        kernel._m_faults.read(lambda: self.fault_channel.sent,
                              domain=self.name)
        kernel.metrics.counter(
            "kernel_activations_total",
            help="domain activations (event-drain entries)"
        ).read(lambda: self.activations, domain=self.name)
        self.fault_channel = self.create_channel("fault")
        # The first turn runs from the heap, once the caller has finished
        # building the domain (spawning its first threads).
        sim._schedule(0, self._turn_cb)

    # -- construction helpers ------------------------------------------------

    def create_channel(self, name, handler=None):
        """Create an event channel owned (received) by this domain."""
        channel = EventChannel(self.sim, "%s.%s" % (self.name, name),
                               meter=self.meter)
        channel.attach(self, handler)
        self.channels.append(channel)
        return channel

    def add_thread(self, gen, name=""):
        """Create a thread from generator ``gen``; runs when scheduled."""
        thread = Thread(self, gen, name=name)
        self.threads.append(thread)
        self._kick()
        return thread

    # -- kernel interface ------------------------------------------------------

    def _kick(self):
        self._maybe_pending = True
        if not self._wake.triggered:
            self._wake.trigger(None)

    def resume_thread(self, thread):
        """Mark a faulted/blocked thread runnable (fault resolved)."""
        thread.unblock()

    def kill(self, reason=""):
        """Destroy the domain: all threads die and no turn runs again.

        This is the penalty leg of the intrusive-revocation protocol
        (§6.2): a domain that misses the revocation deadline "is killed
        and all of its frames reclaimed" (the reclaim is done by the
        frames allocator).
        """
        if self.dead:
            return
        self.dead = True
        for thread in self.threads:
            thread.kill(reason)

    # -- execution ----------------------------------------------------------------

    def _has_pending_events(self):
        """Whether any channel holds undelivered events.

        O(1) while the channels are quiet: only a domain kicked since
        its last empty scan looks at its channels.
        """
        if not self._maybe_pending:
            return False
        for channel in self.channels:
            if channel.pending:
                return True
        self._maybe_pending = False
        return False

    def _runnable_thread(self):
        """Round-robin choice among runnable threads."""
        n = len(self.threads)
        for offset in range(n):
            thread = self.threads[(self._rr_next + offset) % n]
            if thread.state is _RUNNABLE:
                self._rr_next = (self._rr_next + offset + 1) % n
                return thread
        return None

    def _charge_meter(self):
        """Convert accumulated primitive costs into scheduled CPU time.

        Returns the burst to wait on, or None if there was nothing to
        charge or the burst ran ahead.
        """
        ns = self.meter.take()
        if ns:
            return self.cpu.consume_or_run_ahead(ns)
        return None

    def _turn(self, event=None):
        """Run until a step needs CPU or nothing is left to do.

        Called once at creation, then as the callback of the burst or
        wake event the last turn waited for. A step whose burst ran
        ahead returns None like a step that cost nothing: the clock is
        already at the burst's end, so the turn goes on there, as the
        burst's callback would have. A kill leaves the registered
        callback in place, so a dead domain's turn returns at once; a
        failed burst raises out of the simulator.
        """
        if self.dead:
            return
        if event is not None and event._is_error:
            raise event._value
        while not self.dead:
            if self._has_pending_events():
                burst = self._activate()
            else:
                thread = self._runnable_thread()
                if thread is None:
                    if self._wake.triggered:
                        self._wake = SimEvent(self.sim, self._wake_name)
                        continue
                    self._wake.add_callback(self._turn_cb)
                    return
                burst = self._step(thread)
            if burst is not None:
                burst.add_callback(self._turn_cb)
                return

    def _activate(self):
        """One activation: drain events through notification handlers.

        Returns the activation's CPU burst, or None if it cost nothing
        or its burst ran ahead.
        """
        self.activations += 1
        self.meter.charge("activate")
        self.in_activation_handler = True
        try:
            for channel in list(self.channels):
                if not channel.pending:
                    continue
                for payload in channel.collect():
                    self.meter.charge("demux_event")
                    if channel.handler is not None:
                        channel.handler(payload)
        finally:
            self.in_activation_handler = False
        # Leaving the activation handler enters the ULTS (§6.5 step 4).
        self.meter.charge("ults_schedule")
        return self._charge_meter()

    def _advance(self, thread):
        """Advance a thread's generator to its next effect (or death)."""
        try:
            if thread.next_throw is not None:
                exc, thread.next_throw = thread.next_throw, None
                effect = thread.gen.throw(exc)
            else:
                value, thread.next_send = thread.next_send, None
                effect = thread.gen.send(value)
        except StopIteration as stop:
            thread.state = ThreadState.DEAD
            thread.done.trigger(getattr(stop, "value", None))
            return None
        return effect

    def _step(self, thread):
        """Execute one effect of one thread.

        Returns the step's CPU burst for :meth:`_turn` to wait on, or
        None if the step cost nothing or its burst ran ahead.
        """
        if thread is not self._last_thread:
            self.meter.charge("thread_switch")
            self._last_thread = thread
        effect = thread.pending_effect
        if effect is None:
            effect = self._advance(thread)
            if effect is None:  # thread finished
                return self._charge_meter()
            thread.pending_effect = effect

        kind = type(effect)
        if kind is Compute:
            thread.pending_effect = None
            total = effect.ns + self.meter.take()
            if total:
                return self.cpu.consume_or_run_ahead(total,
                                                     label=effect.label)
            return None
        if kind is Touch:
            return self._step_touch(thread, effect)
        if kind is Wait:
            thread.pending_effect = None
            event = effect.event
            if event.triggered:
                if event.ok:
                    thread.next_send = event.value
                else:
                    thread.next_throw = event._value
            else:
                thread.state = ThreadState.BLOCKED
                thread.wait_event = event
                event.add_callback(thread.wait_cb)
            return self._charge_meter()
        if kind is Yield:
            thread.pending_effect = None
            thread.next_send = None
            return None
        raise TypeError(
            "thread %s yielded %r; threads must yield Compute/Touch/"
            "Wait/Yield effects" % (thread.name, effect))

    def _step_touch(self, thread, effect):
        result = self.kernel.access(self.protdom, effect.va, effect.kind)
        if result.ok:
            thread.pending_effect = None
            thread.next_send = result
        else:
            # Trap: block the thread and dispatch the fault to *this*
            # domain (self-paging — nobody else will handle it).
            thread.state = ThreadState.FAULTED
            thread.faults += 1
            self.kernel.dispatch_fault(self, thread, result)
        return self._charge_meter()

    def __repr__(self):
        return "<Domain %s threads=%d>" % (self.name, len(self.threads))
