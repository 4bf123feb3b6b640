"""User-level threads and the effects they yield.

A Nemesis domain multiplexes its own threads above the kernel (the
user-level thread scheduler, ULTS). We model a thread as a generator
yielding *effects*:

* :class:`Compute` — burn CPU time (scheduled by the CPU scheduler).
* :class:`Touch` — one memory access; may fault, in which case the
  thread blocks until the domain's self-paging machinery resolves the
  fault, then the access is *retried* (precisely the restart semantics
  of resuming a faulting activation context).
* :class:`Wait` — block until a simulator event triggers (IO completion,
  another thread's signal). Forbidden inside notification handlers —
  only worker threads may wait, which is the whole point of the MMEntry
  split (§6.5).
* :class:`Yield` — voluntarily reschedule.

Effects can be composed with ``yield from`` helper generators, so
stretch-driver slow paths read naturally.
"""

from enum import Enum

from repro.hw.mmu import AccessKind


class Compute:
    """Consume ``ns`` of CPU."""

    __slots__ = ("ns", "label")

    def __init__(self, ns, label=""):
        if ns < 0:
            raise ValueError("negative compute")
        self.ns = ns
        self.label = label

    def __repr__(self):
        return "Compute(%d)" % self.ns


class Touch:
    """One memory access at ``va``."""

    __slots__ = ("va", "kind")

    def __init__(self, va, kind=AccessKind.READ):
        self.va = va
        self.kind = kind

    def __repr__(self):
        return "Touch(%#x, %s)" % (self.va, self.kind.value)


class Wait:
    """Block until a :class:`~repro.sim.core.SimEvent` triggers."""

    __slots__ = ("event",)

    def __init__(self, event):
        self.event = event

    def __repr__(self):
        return "Wait(%r)" % (self.event,)


class Yield:
    """Give up the ULTS slot voluntarily."""

    __slots__ = ()

    def __repr__(self):
        return "Yield()"


class ThreadState(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"        # waiting on an event
    FAULTED = "faulted"        # waiting for fault resolution
    DEAD = "dead"


class ThreadDied(Exception):
    """Raised when interacting with a dead thread."""


class Thread:
    """One user-level thread of a domain.

    ``done`` is a SimEvent that triggers with the generator's return
    value when the thread finishes; other threads (or the test harness)
    can join it.
    """

    _next_id = 0

    def __init__(self, domain, gen, name=""):
        Thread._next_id += 1
        self.domain = domain
        self.gen = gen
        self.name = name or "thread-%d" % Thread._next_id
        self.state = ThreadState.RUNNABLE
        self.pending_effect = None    # effect awaiting (re)execution
        self.next_send = None         # value for the next gen.send
        self.next_throw = None        # exception to throw into the gen
        self.wait_event = None        # event a BLOCKED thread waits on
        self.done = domain.sim.event("%s.done" % self.name)
        self.faults = 0               # memory faults taken
        # Registered on the event of every Wait: one bound method for
        # the thread's life instead of a closure per Wait.
        self.wait_cb = self._wait_done

    @property
    def runnable(self):
        return self.state is ThreadState.RUNNABLE

    def unblock(self, value=None):
        """Make a blocked/faulted thread runnable again.

        For faulted threads the pending Touch is retried; for waits the
        value becomes the result of the ``yield``.
        """
        if self.state is ThreadState.DEAD:
            raise ThreadDied("cannot unblock dead thread %s" % self.name)
        if self.state is ThreadState.BLOCKED:
            self.next_send = value
        self.wait_event = None
        self.state = ThreadState.RUNNABLE
        self.domain._kick()

    def _wait_done(self, event):
        """A waited-on event triggered: resume with its value."""
        if self.state is not ThreadState.BLOCKED:
            return  # killed or already resumed
        if self.wait_event is not event:
            return  # stale wakeup: a watchdog detached this wait
        self.wait_event = None
        if event._is_error:
            self.next_throw = event._value
        else:
            self.next_send = event._value
        self.state = ThreadState.RUNNABLE
        self.domain._kick()

    def kill(self, reason=None):
        """Terminate the thread (its generator is closed)."""
        if self.state is ThreadState.DEAD:
            return
        self.state = ThreadState.DEAD
        self.wait_event = None
        self.gen.close()
        if not self.done.triggered:
            self.done.trigger(None)

    def __repr__(self):
        return "<Thread %s %s>" % (self.name, self.state.value)
