"""The paged stretch driver (and the Figure 8 "forgetful" variant).

§6.6: "The third stretch driver implemented is the paged stretch
driver. This may be considered an extension of the physical stretch
driver ... However the paged stretch driver also has a binding to the
USBS and hence may swap pages in and out to disk. It keeps track of
swap space as a bitmap of bloks ... Currently we implement a fairly
pure demand paged scheme — when a page fault occurs which cannot be
satisfied from the pool of free frames, disk activity of some form
will ensue."

The scheme implemented here:

* Pages materialise demand-zeroed unless a swap copy exists.
* Eviction is FIFO over resident pages. A clean page with a valid swap
  copy is dropped without IO; a dirty page (tracked by the PTE dirty
  bit, set via the FOW mechanism) is first written to its blok.
* Swap bloks are allocated first-fit from the driver's
  :class:`~repro.mm.bloks.BlokMap`, one blok per page, kept for the
  lifetime of the page (so sequential pages get sequential bloks — the
  layout the paper's sequential experiments produce).

The forgetful variant reproduces the paging-out experiment: "it
'forgets' that pages have a copy on disk and hence never pages in
during a page fault" — every fault demand-zeroes, every eviction
writes.
"""

from repro.hw.disk import READ, WRITE
from repro.integrity.swap import CorruptDataError
from repro.kernel.threads import Compute, Wait
from repro.mm.sdriver import FaultOutcome, FaultTimeout, StretchDriver
from repro.usd.usd import BlokLostError, TransactionFailed


class SwapFullError(Exception):
    """The swap extent has no free bloks."""


class PagedDriver(StretchDriver):
    """Demand paging against a User-Safe Backing Store binding."""

    kind = "paged"

    def __init__(self, name, domain, frames_client, translation, swap):
        """``swap`` provides ``read(blok)``/``write(blok)`` returning
        completion SimEvents, and ``nbloks`` (a
        :class:`~repro.usd.sfs.SwapFile`, or a stub in tests)."""
        super().__init__(name, domain, frames_client, translation)
        self.swap = swap
        from repro.mm.bloks import BlokMap

        self.blokmap = BlokMap(swap.nbloks)
        self._on_disk = {}    # vpn -> blok index (valid swap copy)
        self._blok_of = {}    # vpn -> blok index (assigned, maybe stale)
        self._resident = []   # vpns, FIFO order
        self.pageins = 0
        self.pageouts = 0
        self.zero_fills = 0
        # Failure containment state: pages whose only copy sat on a bad
        # block (their faulting threads are killed; everything else
        # keeps running), and bloks retired as bad.
        self.unrecoverable = set()   # vpns lost to persistent read errors
        self.pages_lost = 0
        self.bloks_retired = 0
        # EWMA-free estimate of one clean (evict+write) for the
        # deadline-aware revocation leg: the duration of the last one.
        self._clean_cost_ns = 0

    # -- policy hooks (overridden by the forgetful variant) ------------------

    def _has_disk_copy(self, vpn):
        return vpn in self._on_disk

    def _note_written(self, vpn, blok):
        self._on_disk[vpn] = blok

    def _note_paged_in(self, vpn):
        # The swap copy remains valid while the page stays clean.
        pass

    def _note_dirtied_or_zeroed(self, vpn):
        # A demand-zeroed page has no valid swap copy.
        self._on_disk.pop(vpn, None)

    # -- fault handling -----------------------------------------------------------

    def try_fast(self, fault):
        """Notification-handler attempt: only IO-free cases can succeed."""
        if not self._check_fault(fault):
            return FaultOutcome.FAILURE
        vpn = self.machine.page_of(fault.va)
        if vpn in self.unrecoverable:
            return FaultOutcome.FAILURE   # page lost to a bad block
        if self._has_disk_copy(vpn):
            return FaultOutcome.RETRY     # needs a disk read: IDC, so retry
        pfn = self._pop_free()
        if pfn is None:
            return FaultOutcome.RETRY     # needs eviction (likely IO)
        self.faults_fast += 1
        self.translation.meter.charge("zero_page")
        self.zero_fills += 1
        self._note_dirtied_or_zeroed(vpn)
        self._map_page(fault.va, pfn)
        self._resident.append(vpn)
        return FaultOutcome.SUCCESS

    def handle_slow(self, fault):
        """Worker-thread path: evict if needed, then page in or zero."""
        if not self._check_fault(fault):
            return False
        vpn = self.machine.page_of(fault.va)
        if vpn in self.unrecoverable:
            return False                  # page lost to a bad block
        self.faults_slow += 1
        while True:
            pte = self.translation.pagetable.peek(vpn)
            if pte is not None and pte.mapped:
                return True  # already resolved (e.g. by a prefetcher)
            pfn = self._pop_free()
            if pfn is None:
                pfn = yield from self._evict_one()
            if pfn is None:
                # Last resort: ask the allocator for more physical
                # memory.
                granted = yield Wait(self.frames.request_frames(1))
                if not granted:
                    return False
                self.adopt_frames(granted)
                pfn = self._pop_free()
                if pfn is None:
                    return False
            if self._has_disk_copy(vpn):
                blok = self._on_disk[vpn]
                try:
                    yield Wait(self.swap.slot_for(blok, READ))
                    yield Wait(self.swap.read(blok))
                except (TransactionFailed, BlokLostError,
                        CorruptDataError):
                    # Persistent read failure: the only copy of this
                    # page sat on a bad block (or on a volume that
                    # failed before the drain reached it, or its
                    # payload failed verification beyond repair).
                    # Contain the loss — retire the blok, mark just
                    # this page unrecoverable, give the frame back —
                    # and fail the fault (the MMEntry kills only the
                    # faulting thread).
                    self.note_io_failure()
                    self._retire_blok(vpn)
                    self.unrecoverable.add(vpn)
                    self.pages_lost += 1
                    self._free.append(pfn)
                    return False
                except FaultTimeout:
                    # Watchdog unwedged us mid-IO: recover the frame,
                    # let the MMEntry account the kill.
                    self._free.append(pfn)
                    raise
                if not self.frames.owns_unused(pfn):
                    # Revoked out from under us while the read was in
                    # flight — an unused frame is fair game for
                    # transparent revocation at any instant. The read
                    # is wasted; acquire another frame and retry (the
                    # MMEntry watchdog bounds the loop).
                    continue
                self.pageins += 1
                self._note_paged_in(vpn)
            else:
                yield Compute(self.translation.meter.model["zero_page"],
                              label="zero")
                if not self.frames.owns_unused(pfn):
                    continue   # revoked mid-zero: retry with a new frame
                self.zero_fills += 1
                self._note_dirtied_or_zeroed(vpn)
            # A concurrent prefetcher may have mapped the page while our
            # IO was in flight; the frame simply returns to the pool.
            pte = self.translation.pagetable.peek(vpn)
            if pte is not None and pte.mapped:
                self._free.append(pfn)
                return True
            self._map_page(fault.va, pfn)
            self._resident.append(vpn)
            return True

    # -- eviction ------------------------------------------------------------------

    def _assign_blok(self, vpn):
        blok = self._blok_of.get(vpn)
        if blok is None:
            blok = self.blokmap.alloc()
            if blok is None:
                raise SwapFullError("swap exhausted for %s" % self.name)
            self._blok_of[vpn] = blok
        return blok

    def _retire_blok(self, vpn):
        """Retire a bad blok: it stays allocated in the blokmap forever
        (so first-fit never hands it out again) but is no longer this
        page's home."""
        self._blok_of.pop(vpn, None)
        self._on_disk.pop(vpn, None)
        self.bloks_retired += 1

    def _select_victim(self):
        """Choose (and remove from the resident list) the next victim.

        The default policy is FIFO, the paper's "fairly pure demand
        paged scheme"; :class:`~repro.mm.clockdriver.ClockPagedDriver`
        overrides this with second-chance eviction. Returns a VPN or
        None.
        """
        while self._resident:
            vpn = self._resident.pop(0)
            pte = self.translation.pagetable.peek(vpn)
            if pte is None or not pte.mapped:
                continue  # lost to revocation in the meantime
            return vpn
        return None

    def _evict_one(self):
        """Free one frame by evicting a resident page.

        Cleans (writes) the page first if it is dirty or has no valid
        swap copy; a clean page with a swap copy is simply dropped.
        Returns the freed PFN, or None if nothing is resident.

        A page-out that fails persistently (the SFS already exhausted
        its retries *and* its spare region) retires the bad blok, keeps
        the page resident — its data exists nowhere else — and moves on
        to another victim with a fresh blok. Repeated failures burn
        bloks until :class:`SwapFullError`, which is the honest signal
        that this swap file can no longer back its stretch.
        """
        while True:
            vpn = self._select_victim()
            if vpn is None:
                return None
            pte = self.translation.pagetable.peek(vpn)
            must_write = pte.dirty or not self._has_disk_copy(vpn)
            if must_write:
                blok = self._assign_blok(vpn)
                try:
                    yield Wait(self.swap.slot_for(blok, WRITE))
                    yield Wait(self.swap.write(blok))
                except TransactionFailed:
                    self.note_io_failure()
                    self._retire_blok(vpn)
                    self._resident.append(vpn)   # still resident, rejoin FIFO
                    continue
                except FaultTimeout:
                    self._resident.append(vpn)
                    raise
                self.pageouts += 1
                self._note_written(vpn, blok)
            pfn, _was_dirty = self._unmap_page(vpn)
            return pfn

    # -- revocation --------------------------------------------------------------------

    def release_frames(self, k, deadline=None):
        """Clean and unmap pages until ``k`` frames sit unused on top.

        This is the expensive leg of intrusive revocation — "this can
        require that it first clean some dirty pages; for this reason,
        T may be relatively far in the future (e.g. 100ms)" (§6.2).
        Every write goes through this domain's own USD stream, so the
        cleaning cost lands on the victim. With a ``deadline``, the
        driver stops starting a clean that (going by the last one's
        duration) would overrun it, and returns the partial count: the
        allocator's escalation re-asks for the remainder instead of
        killing a domain that is visibly cooperating.
        """
        arranged = 0
        for pfn in list(self._free):
            if arranged >= k:
                break
            if self.frames.owns_unused(pfn):
                self.frames.stack.move_to_top(pfn)
                arranged += 1
        sim = self.domain.sim
        while arranged < k and self._resident:
            if (deadline is not None and arranged > 0
                    and sim.now + self._clean_cost_ns >= deadline):
                break   # out of time this round; reply with progress
            started = sim.now
            pfn = yield from self._evict_one()
            if pfn is None:
                break
            self._clean_cost_ns = sim.now - started
            self._free.append(pfn)
            arranged += 1
        return arranged


class ForgetfulPagedDriver(PagedDriver):
    """Figure 8's modified driver: pure page-out load.

    Never believes a page has a disk copy, so every fault demand-zeroes
    a fresh frame and every eviction writes its page out. The blok
    assignment per page is stable, so the disk sees the same sequential
    write pattern on every pass over the stretch.
    """

    kind = "paged-forgetful"

    def _has_disk_copy(self, vpn):
        return False

    def _note_written(self, vpn, blok):
        pass  # forget immediately
