"""IO channels: bounded-depth request pipes to the USD.

"Clients communicate with the USD via a FIFO buffering scheme called IO
channels; these are similar in operation to the 'rbufs' scheme" (§6.7).
The depth bound is the client's buffer budget: a pipelining client (the
Figure 9 file-system client) "trades off additional buffer space
against disk latency" by using a deep channel; a paging client cannot
pipeline at all (it does not know what it will fault on next), which is
the short-block problem that laxity solves.
"""

from repro.hw.disk import DiskRequest


class IOChannel:
    """At most ``depth`` outstanding transactions on a USD client.

    ``on_complete`` is the owner's completion hook: the channel calls
    ``on_complete(event)`` for each transaction, inside its own
    completion entry, once the slot is free and the slot waiters are
    woken. An owner that needs to act on each completion (trigger its
    own event, submit the next read) uses it instead of a second
    callback on the transaction's event, which would be flushed straight
    after the channel's and so cost a heap entry for nothing.
    """

    def __init__(self, sim, usd_client, depth=1, on_complete=None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.sim = sim
        self.usd_client = usd_client
        self.depth = depth
        self.on_complete = on_complete
        self.outstanding = 0
        self._slot_waiters = []
        self.submitted = 0
        self.completed = 0
        self.failed = 0

    @property
    def can_submit(self):
        """True while the channel has a free slot."""
        return self.outstanding < self.depth

    def submit(self, request: DiskRequest):
        """Submit a transaction; raises if the channel is full.

        Returns the completion SimEvent. Callers that may fill the
        channel should gate on :meth:`slot` first.
        """
        if not self.can_submit:
            raise RuntimeError("IO channel full (depth=%d)" % self.depth)
        # Take the slot only once the USD accepts the transaction: a
        # departed stream's submit raises, and a slot taken before it
        # would never be freed.
        done = self.usd_client.submit(request)
        self.outstanding += 1
        self.submitted += 1
        done.add_callback(self._on_complete)
        return done

    def _on_complete(self, event):
        self.outstanding -= 1
        if event.ok:
            self.completed += 1
        else:
            # A failed transaction still frees its slot: failure must
            # not leak channel capacity, or a fault storm would wedge
            # the client behind a permanently-full channel.
            self.failed += 1
        if self._slot_waiters:
            waiters, self._slot_waiters = self._slot_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.trigger(None)
        if self.on_complete is not None:
            self.on_complete(event)

    def slot(self):
        """An event that triggers when a submission slot is available."""
        available = self.sim.event("iochannel.slot")
        if self.can_submit:
            available.trigger(None)
        else:
            self._slot_waiters.append(available)
        return available
