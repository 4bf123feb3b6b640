"""First-come first-served disk service (no QoS).

Drop-in replacement for the USD: ``admit(name, qos)`` accepts and
ignores the QoS spec (there are no guarantees to negotiate) and returns
a client whose ``submit`` queues the transaction on a single global FIFO
served one at a time. Under contention every client gets whatever the
arrival pattern gives it — which is the crosstalk the paper eliminates.
"""

from collections import deque

from repro.hw.disk import DiskRequest
from repro.sched.atropos import ClientDepartedError, PendingWorkError
from repro.usd.usd import TransactionFailed


class FcfsClient:
    """Interface-compatible with :class:`repro.usd.usd.USDClient`."""

    def __init__(self, service, name):
        self.service = service
        self.name = name
        self.transactions = 0
        self.blocks_moved = 0

    @property
    def qos(self):
        """Always None: the FIFO promises nobody anything."""
        return None

    def submit(self, request: DiskRequest):
        """Queue one transaction, tagged as this client's; returns its
        completion event."""
        if request.client != self.name:
            request = DiskRequest(kind=request.kind, lba=request.lba,
                                  nblocks=request.nblocks, client=self.name,
                                  tag=request.tag)
        self.transactions += 1
        self.blocks_moved += request.nblocks
        return self.service._submit(request)


class FcfsDiskService:
    """One global FIFO in front of the disk."""

    def __init__(self, sim, disk, trace=None):
        self.sim = sim
        self.disk = disk
        self.trace = trace
        self.clients = []
        self._queue = deque()
        self._wake = sim.event("fcfs.wake")
        sim.spawn(self._loop(), name="fcfs-disk")

    def admit(self, name, qos=None):
        """No admission control: everyone is let in, nobody is promised
        anything."""
        client = FcfsClient(self, name)
        self.clients.append(client)
        return client

    def depart(self, client, discard=False):
        """Remove a client; as for the USD, queued transactions raise
        :class:`PendingWorkError` unless ``discard=True`` fails them."""
        pending = [entry for entry in self._queue
                   if entry[0].client == client.name]
        if pending and not discard:
            raise PendingWorkError(
                "client %s departed with %d transaction(s) queued; "
                "drain first or depart(discard=True)"
                % (client.name, len(pending)))
        for entry in pending:
            self._queue.remove(entry)
            entry[1].fail(ClientDepartedError(
                "client %s departed; queued %s discarded"
                % (client.name, entry[0].kind)))
        self.clients.remove(client)

    def _submit(self, request):
        done = self.sim.event("fcfs.done")
        self._queue.append((request, done))
        if not self._wake.triggered:
            self._wake.trigger(None)
        return done

    def _loop(self):
        while True:
            if not self._queue:
                if self._wake.triggered:
                    self._wake = self.sim.event("fcfs.wake")
                    continue
                yield self._wake
                continue
            request, done = self._queue.popleft()
            start = self.sim.now
            try:
                result = yield from self.disk.transaction(request)
            except Exception as exc:
                done.fail(exc)
                continue
            if self.trace is not None:
                self.trace.record(start, "txn", request.client,
                                  duration=self.sim.now - start,
                                  label=request.kind)
            if result.ok:
                done.trigger(result)
            else:
                # No retry machinery here — the baseline surfaces the
                # error raw, exactly as it surfaces raw queueing delay.
                done.fail(TransactionFailed(result, 1, request.client))
