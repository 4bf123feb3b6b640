"""Stream-paging: the pipelined stretch driver the paper proposes.

§8 (conclusion): "the current stretch driver implementation is immature
and could be extended to handle additional pipe-lining via a
'stream-paging' scheme such as that described in [24]" (Mapp's
object-oriented VM thesis).

The problem stream-paging attacks is the same one laxity attacks from
the scheduler side: a pure demand pager has at most one transaction
outstanding, so the disk idles between its faults. Instead of holding
the disk for the client (laxity), the client can *pipeline*: when a
fault reveals a sequential pattern, read the next few pages too,
keeping several transactions in flight through the IO channel.

:class:`StreamPagedDriver` extends the paged driver with:

* **Sequential detection** — a stride detector on fault addresses.
* **A prefetch worker** — a dedicated domain thread that keeps up to
  ``prefetch_depth`` reads in flight and maps each page as its read
  completes, claiming frames from the pool or by dropping *clean*
  resident pages (speculation never pays a write).
* **Fault/prefetch rendezvous** — a demand fault on a page whose
  prefetch is already in flight *waits for that read* instead of
  issuing a duplicate.

Because the prefetcher keeps the USD stream busy, a stream-paging
client is largely immune to the short-block problem even with zero
laxity — the ablation benchmark shows exactly that.
"""

from collections import deque

from repro.kernel.threads import Wait
from repro.sim.units import MS
from repro.mm.paged import PagedDriver
from repro.usd.usd import BlokLostError, TransactionFailed


class StreamPagedDriver(PagedDriver):
    """A paged stretch driver with pipelined sequential read-ahead."""

    kind = "paged-stream"

    def __init__(self, name, domain, frames_client, translation, swap,
                 prefetch_depth=4):
        super().__init__(name, domain, frames_client, translation, swap)
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0 (0 disables "
                             "prefetching entirely)")
        self.prefetch_depth = prefetch_depth
        self._last_fault_vpn = None
        self._sequential_run = 0
        self._next_expected = None    # first VPN past the prefetch window
        self._prefetch_queue = deque()
        self._prefetching = {}        # vpn -> completion SimEvent
        self._speculative = set()     # mapped ahead, not yet referenced
        self._frontier = None         # highest vpn scheduled so far
        self._wake = None
        self.prefetches_issued = 0
        self.prefetch_mapped = 0      # pages mapped ahead of demand
        self.prefetch_wasted = 0      # reads that lost the race
        if prefetch_depth > 0:
            domain.add_thread(self._prefetch_worker(),
                              name="%s-prefetch" % name)

    # -- pattern detection -------------------------------------------------

    def _note_fault(self, vpn):
        """Stride detection that survives prefetch hits and stragglers.

        A sequential stream whose intermediate pages were mapped ahead
        of access faults next wherever the pipeline *missed*: at
        last+1, at the first page past the prefetch window, or — over a
        striped multi-volume backing, where one volume's reads can lag
        a period behind its neighbours' — a few pages forward of the
        last fault. Any forward fault within the prefetch window
        continues the run; only a jump or a reversal resets it.
        """
        window = max(1, self.prefetch_depth)
        sequential = (self._last_fault_vpn is not None
                      and self._last_fault_vpn
                      < vpn <= self._last_fault_vpn + window)
        if self._next_expected is not None:
            sequential = sequential or vpn == self._next_expected
        if sequential:
            self._sequential_run += 1
        else:
            self._sequential_run = 0
        self._last_fault_vpn = vpn

    def _stretch_of_vpn(self, vpn):
        for stretch in self.stretches.values():
            if stretch.base_vpn <= vpn < stretch.base_vpn + stretch.npages:
                return stretch
        return None

    def _schedule_prefetch(self, vpn):
        """After a sequential fault on ``vpn``, queue upcoming pages."""
        if self.prefetch_depth == 0 or self._sequential_run < 1:
            return
        stretch = self._stretch_of_vpn(vpn)
        if stretch is None:
            return
        limit = stretch.base_vpn + stretch.npages
        for ahead in range(vpn + 1, min(vpn + 1 + self.prefetch_depth,
                                        limit)):
            if ahead in self._prefetching:
                continue
            pte = self.translation.pagetable.peek(ahead)
            if pte is not None and pte.mapped:
                continue
            if not self._has_disk_copy(ahead):
                continue
            self._prefetching[ahead] = self.domain.sim.event(
                "%s.pf-%d" % (self.name, ahead))
            self._prefetch_queue.append(ahead)
        self._next_expected = min(vpn + 1 + self.prefetch_depth, limit)
        self._frontier = max(self._frontier or 0, self._next_expected - 1)
        if self._prefetch_queue and self._wake is not None \
                and not self._wake.triggered:
            self._wake.trigger(None)

    def _speculation_inventory(self):
        """Prefetched pages still mapped but not yet touched.

        Consumption is detected through the referenced bit (armed at
        map time, set by the FOR software-assist on first access) — the
        same trick the paper uses for dirty/referenced tracking.
        """
        live = 0
        for vpn in list(self._speculative):
            pte = self.translation.pagetable.peek(vpn)
            if pte is None or not pte.mapped or pte.referenced:
                self._speculative.discard(vpn)
            else:
                live += 1
        return live

    def _chase(self):
        """Keep streaming ahead of consumption.

        Faults stop arriving once the pipeline covers the stream, so
        the worker extends the window itself whenever the inventory of
        unconsumed speculative pages drops below the pipeline depth —
        bounded speculation that tracks the consumer's pace.

        The stretch is chased as a *ring*: at the top the frontier
        wraps to the base. A consumer that loops over its stretch (the
        paper's own experiment workload) would otherwise drain the
        pipeline at every wraparound, letting the USD streams run
        workless past their laxity and get idle-marked until their next
        periodic allocation — a whole-period stall per volume per loop.
        A consumer that never loops wastes at most one window of reads.
        """
        if self._sequential_run < 1 or self._frontier is None:
            return
        stretch = self._stretch_of_vpn(self._frontier)
        if stretch is None:
            return
        limit = stretch.base_vpn + stretch.npages
        # _prefetching covers both queued and in-flight pages.
        budget = (self.prefetch_depth - self._speculation_inventory()
                  - len(self._prefetching))
        scanned = 0
        while budget > 0 and scanned < stretch.npages:
            ahead = self._frontier + 1
            if ahead >= limit:
                ahead = stretch.base_vpn
            self._frontier = ahead
            scanned += 1
            pte = self.translation.pagetable.peek(ahead)
            if pte is not None and pte.mapped:
                continue
            if not self._has_disk_copy(ahead) or ahead in self._prefetching:
                continue
            self._prefetching[ahead] = self.domain.sim.event(
                "%s.pf-%d" % (self.name, ahead))
            self._prefetch_queue.append(ahead)
            budget -= 1

    def _finish(self, vpn):
        event = self._prefetching.pop(vpn, None)
        if event is not None and not event.triggered:
            event.trigger(None)

    # -- fault-path hooks ---------------------------------------------------

    def try_fast(self, fault):
        """The paged fast path; a page being prefetched retries."""
        vpn = self.machine.page_of(fault.va)
        self._note_fault(vpn)
        if vpn in self._prefetching:
            # The page is on its way (or queued): let the worker path
            # rendezvous or cancel, as appropriate.
            from repro.mm.sdriver import FaultOutcome

            return FaultOutcome.RETRY
        outcome = super().try_fast(fault)
        self._schedule_prefetch(vpn)
        return outcome

    def handle_slow(self, fault):
        """The paged slow path, meeting or cancelling a prefetch."""
        vpn = self.machine.page_of(fault.va)
        if vpn in self._prefetch_queue:
            # Demand caught up with a guess the worker has not issued
            # yet (it may never be able to — the claimable-frames gate can keep a
            # queued guess parked indefinitely). Cancel it and read on
            # the demand path rather than waiting on a read that is not
            # in flight.
            self._prefetch_queue.remove(vpn)
            self._finish(vpn)
        pending = self._prefetching.get(vpn)
        if pending is not None:
            # Wait for the in-flight prefetch instead of re-reading.
            yield Wait(pending)
        ok = yield from super().handle_slow(fault)
        if ok:
            self._schedule_prefetch(vpn)
        return ok

    # -- the prefetch worker -----------------------------------------------------

    def _claim_frame(self):
        """A frame for speculation: pool first, else drop a *clean*
        resident page (never pay a write for a guess). Returns a PFN or
        None.

        Pages mapped ahead of demand and not yet referenced are never
        stolen: eating unconsumed speculation to fuel more speculation
        re-reads the same pages over and over — every consumed page
        would cost several disk reads. When only unconsumed guesses
        remain, the guess is dropped instead, which throttles the
        pipeline to the consumer's pace.
        """
        pfn = self._pop_free()
        if pfn is not None:
            return pfn
        for index, vpn in enumerate(self._resident):
            pte = self.translation.pagetable.peek(vpn)
            if pte is None or not pte.mapped:
                continue
            if vpn in self._speculative and not pte.referenced:
                continue
            if not pte.dirty and self._has_disk_copy(vpn):
                del self._resident[index]
                pfn, _dirty = self._unmap_page(vpn)
                return pfn
        return None

    def _claimable_frames(self):
        """Frames :meth:`_claim_frame` could obtain right now: the free
        pool plus clean, consumed, disk-backed resident pages. When this
        runs low — every frame dirty (a write pass), or holding
        unconsumed guesses — issuing more speculation only buys reads
        whose completions will be wasted."""
        count = len(self._free)
        for vpn in self._resident:
            pte = self.translation.pagetable.peek(vpn)
            if pte is None or not pte.mapped:
                continue
            if vpn in self._speculative and not pte.referenced:
                continue
            if not pte.dirty and self._has_disk_copy(vpn):
                count += 1
        return count

    def _issue_ready(self, inflight):
        """Start reads for queued prefetches, up to the pipeline depth.

        Frames are claimed when a read *completes*, not when it is
        issued: an in-flight guess must never hold a frame hostage, so
        the pool plus the resident set always accounts for every frame
        and a burst of speculation cannot starve the demand path. The
        claimable check below only stops the worker issuing reads whose
        completions would find no cheap frame and be wasted.
        """
        # Cap speculation below the channel depth so the demand path
        # always has a slot (rbufs flow control must not let guesses
        # starve real faults). Over a multi-volume backing the cap is
        # aggregate; the per-blok ``can_accept`` check below does the
        # stream selection, so one volume's full pipe stalls only the
        # reads bound for that volume.
        cap = min(self.prefetch_depth, self.swap.channel.depth - 1)
        while (self._prefetch_queue
               and len(inflight) < cap
               and self._claimable_frames() > 2
               and self.swap.channel.outstanding < self.swap.channel.depth - 1):
            vpn = self._prefetch_queue.popleft()
            pte = self.translation.pagetable.peek(vpn)
            if (pte is None or pte.mapped
                    or not self._has_disk_copy(vpn)):
                self._finish(vpn)
                continue
            blok = self._on_disk[vpn]
            if not self.swap.can_accept(blok):
                # The target stream's pipe is full: put the guess back
                # and retry when a completion frees a slot. Sequential
                # bloks stripe across volumes, so the head of the queue
                # blocking means the next completion is close.
                self._prefetch_queue.appendleft(vpn)
                break
            done = self.swap.read(blok)
            self.prefetches_issued += 1
            inflight.append((vpn, done))

    def _prefetch_worker(self):
        sim = self.domain.sim
        inflight = deque()
        idle_polls = 0
        while True:
            self._issue_ready(inflight)
            if not inflight:
                self._chase()
                if self._prefetch_queue:
                    # Queued work it could not issue (claimable frames or
                    # channel capacity) and nothing in flight to wait
                    # on: poll until the demand path frees something.
                    yield Wait(sim.timeout(1 * MS))
                    continue
                if (self._sequential_run >= 1 and self._speculative
                        and idle_polls < 50):
                    # Streaming with a full inventory: consumption is
                    # only visible through referenced bits, so poll at
                    # millisecond granularity until the consumer drains
                    # some pages (or give up after ~50 ms of stillness).
                    before = len(self._speculative)
                    yield Wait(sim.timeout(1 * MS))
                    self._speculation_inventory()  # prune consumed
                    idle_polls = (0 if len(self._speculative) < before
                                  else idle_polls + 1)
                    continue
                idle_polls = 0
                self._wake = sim.event("%s.prefetch" % self.name)
                yield Wait(self._wake)
                continue
            idle_polls = 0
            vpn, done = inflight.popleft()
            try:
                yield Wait(done)
            except (TransactionFailed, BlokLostError):
                # A speculative read hit a bad block (or a blok lost
                # with a failed volume): drop the guess and keep the
                # worker alive. Containment — retiring the blok,
                # killing the faulting thread — belongs to the demand
                # path, and only if the page is ever actually touched.
                self.prefetch_wasted += 1
                self._finish(vpn)
                continue
            pte = self.translation.pagetable.peek(vpn)
            if pte is not None and pte.mapped:
                # Lost the race to the demand path after all.
                self.prefetch_wasted += 1
            else:
                pfn = self._claim_frame()
                if pfn is None:
                    # No frame the guess may cheaply take: wasted read.
                    self.prefetch_wasted += 1
                else:
                    self.pageins += 1
                    self._note_paged_in(vpn)
                    self._map_page(self.machine.page_base(vpn), pfn)
                    self._resident.append(vpn)
                    self._speculative.add(vpn)
                    self.prefetch_mapped += 1
            self._finish(vpn)
            # Keep the stream window ahead of consumption even when the
            # pipeline has swallowed all the faults.
            self._chase()
