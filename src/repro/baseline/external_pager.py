"""A microkernel-style shared external pager (Figure 2, left).

In Mach-descended systems, page faults are converted into messages to an
external pager task which several applications share. The paper's two
criticisms (§5):

1. "the process which caused the fault does not use any of its own
   resources ... A process which faults repeatedly thus degrades the
   overall system performance but bears only a fraction of the cost."
2. "multiplexing happens in the server — ... it will generally not be
   aware of any absolute (or even relative) timeliness constraints on
   the faulting clients. A first-come first-served approach is probably
   the best it can do."

This model captures exactly those two properties: faults from any
number of clients enter one FIFO; the pager resolves each in turn,
spending *pager* CPU and unscheduled disk time. It is deliberately a
compact model (no full domain machinery) used by the crosstalk
ablation to contrast fault-resolution latency distributions against
self-paging.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.hw.disk import DiskRequest, READ, WRITE


@dataclass
class PagerRequest:
    """One fault forwarded to the external pager."""

    client: str
    lba: int
    nblocks: int
    needs_writeback: bool = False
    writeback_lba: int = 0
    submitted_at: int = 0


class ExternalPager:
    """One shared pager: FIFO fault service with unscheduled disk IO."""

    def __init__(self, sim, disk, per_fault_cpu_ns=50_000):
        self.sim = sim
        self.disk = disk
        self.per_fault_cpu_ns = per_fault_cpu_ns
        self._queue = deque()
        self._wake = sim.event("pager.wake")
        self.faults_handled = 0
        self.cpu_spent_ns = 0      # spent by the *pager*, not the clients
        self.latencies = {}        # client -> list of resolution times (ns)
        sim.spawn(self._loop(), name="external-pager")

    def fault(self, request: PagerRequest):
        """A client faults; returns the resolution SimEvent."""
        request.submitted_at = self.sim.now
        done = self.sim.event("pager.done")
        self._queue.append((request, done))
        if not self._wake.triggered:
            self._wake.trigger(None)
        return done

    @property
    def queue_depth(self):
        """Faults waiting for the pager, not counting the one in
        service."""
        return len(self._queue)

    def _loop(self):
        while True:
            if not self._queue:
                if self._wake.triggered:
                    self._wake = self.sim.event("pager.wake")
                    continue
                yield self._wake
                continue
            request, done = self._queue.popleft()
            # The pager burns ITS OWN cpu per fault; no accounting back
            # to the faulting client is possible.
            yield self.sim.timeout(self.per_fault_cpu_ns)
            self.cpu_spent_ns += self.per_fault_cpu_ns
            if request.needs_writeback:
                yield from self.disk.transaction(DiskRequest(
                    kind=WRITE, lba=request.writeback_lba,
                    nblocks=request.nblocks, client="pager"))
            yield from self.disk.transaction(DiskRequest(
                kind=READ, lba=request.lba, nblocks=request.nblocks,
                client="pager"))
            self.faults_handled += 1
            latency = self.sim.now - request.submitted_at
            self.latencies.setdefault(request.client, []).append(latency)
            done.trigger(latency)
