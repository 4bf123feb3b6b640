"""The segmentation regime: contiguous extents, base+limit translation.

Teabe et al. argue that for many workloads *segmentation is better
than paging*: translating through one base+limit register pair beats
walking a page table, and backing a region with one physically
contiguous extent amortises the per-page syscall tax into a single
validated operation. This module grounds that claim inside the
self-paging architecture without bending any of its rules:

* :class:`SegTranslation` is the hardware-side fast path — a registry
  of ``(base_vpn, limit, base_pfn)`` extents consulted by the MMU
  *before* the TLB/page-table walk. An extent hit translates with a
  bounds check and an add, no PT walk, no per-page TLB state. When no
  extents are registered the classic per-page walk is untouched
  (bit-identical charges), which is what makes the regime an honest
  ablation.

* :class:`SegDriver` is an ordinary *unprivileged* stretch driver: it
  allocates one contiguous frame run from its own domain's contract
  (:meth:`~repro.mm.frames.FramesClient.alloc_contiguous`, the §6.2
  superpage path), installs the extent through a validated syscall
  (:meth:`~repro.mm.translation.TranslationSystem.map_extent`), and
  under revocation shrinks the extent from its tail through the
  ordinary ``release_frames`` contract — frames come off the top of
  the stack like anyone else's, so the Figure-4 protocol and the
  escalation ladder apply unchanged.

A segment has no backing store: like the physical driver, frames
released under revocation lose their contents and fault back in
demand-zeroed (the cost of the regime, measured by the ablation).
"""

from repro.kernel.threads import Compute, Wait
from repro.mm.frames import FramesError
from repro.mm.sdriver import FaultOutcome, StretchDriver


class SegExtent:
    """One contiguous mapping: ``limit`` pages at ``base_vpn``.

    ``limit`` is the number of currently mapped pages from the base —
    revocation shrinks it from the tail, faults grow it back. The
    extent belongs to one stretch (``sid``) of one ``domain``.
    """

    __slots__ = ("sid", "domain", "base_vpn", "base_pfn", "limit")

    def __init__(self, sid, domain, base_vpn, base_pfn, limit):
        self.sid = sid
        self.domain = domain
        self.base_vpn = base_vpn
        self.base_pfn = base_pfn
        self.limit = limit

    def covers(self, vpn):
        """Whether ``vpn`` currently translates through this extent."""
        return self.base_vpn <= vpn < self.base_vpn + self.limit

    def pfn_of(self, vpn):
        """Base+offset translation (caller checked :meth:`covers`)."""
        return self.base_pfn + (vpn - self.base_vpn)

    def __repr__(self):
        return "<SegExtent sid=%d vpn=%#x+%d pfn=%d>" % (
            self.sid, self.base_vpn, self.limit, self.base_pfn)


class SegTranslation:
    """The extent registry consulted by the MMU's access fast path.

    Kept deliberately tiny: a dict keyed by stretch id plus hit
    counters. The MMU guards every consultation with ``if extents:``
    so an empty registry leaves the per-page walk bit-identical.
    """

    def __init__(self):
        self.extents = {}    # sid -> SegExtent
        self.hits = 0        # accesses resolved without a PT walk
        self.installs = 0
        self.shrinks = 0

    def resolve(self, vpn):
        """Extent hit for ``vpn``: the covering extent, or None.

        Linear in the number of extents — a handful per machine, the
        analogue of a small segment-register file.
        """
        for extent in self.extents.values():
            if extent.covers(vpn):
                self.hits += 1
                return extent
        return None

    def extent_of(self, sid):
        """The live extent backing stretch ``sid``, or None."""
        return self.extents.get(sid)

    def register(self, extent):
        """Install a new extent (one per stretch)."""
        if extent.sid in self.extents:
            raise ValueError("stretch %d already has an extent" % extent.sid)
        self.extents[extent.sid] = extent
        self.installs += 1

    def remove(self, sid):
        """Drop the extent for stretch ``sid`` (if any)."""
        return self.extents.pop(sid, None)

    def forget_page(self, vpn):
        """System-teardown hook: drop ``vpn`` and everything after it.

        Called by ``force_unmap_frame`` when a domain is killed and
        its frames reclaimed wholesale. Truncating the extent at the
        reclaimed page keeps the prefix translating; the following
        pages' RamTab entries are cleaned by their own reclaim calls.
        """
        for sid, extent in list(self.extents.items()):
            if extent.covers(vpn):
                extent.limit = vpn - extent.base_vpn
                if extent.limit <= 0:
                    del self.extents[sid]
                return


def attach_seg(translation):
    """Attach (once) a :class:`SegTranslation` to a translation system.

    Wires the registry into both halves of the fast path — the
    MMU access check and the validated extent syscalls — and returns
    it. Idempotent; systems that never call this keep ``seg = None``
    and the classic per-page path stays provably inert.
    """
    seg = translation.seg
    if seg is None:
        seg = SegTranslation()
        translation.seg = seg
        translation.mmu.seg = seg
    return seg


class SegDriver(StretchDriver):
    """Backs each bound stretch with one contiguous frame extent.

    Fault handling maps the *entire* extent on first touch (one
    validated syscall, one zero-fill sweep), so the per-fault cost is
    amortised over every page of the stretch. Revocation shrinks from
    the extent tail; a later fault on a shrunk page grows the tail
    back (or, if the frames are gone for good, re-places the whole
    extent elsewhere — segment contents are lost, as for the physical
    driver).
    """

    kind = "seg"

    def __init__(self, name, domain, frames_client, translation):
        if translation.seg is None:
            attach_seg(translation)
        super().__init__(name, domain, frames_client, translation)
        self.seg = translation.seg
        self.extent_installs = 0
        self.extent_grows = 0
        self.extent_replaces = 0

    # -- fault handling ----------------------------------------------------

    def try_fast(self, fault):
        """Extent (re)placement needs allocation: always defer.

        A fault that races an already-grown extent is resolved inline
        (nothing to do but resume the thread).
        """
        if not self._check_fault(fault):
            return FaultOutcome.FAILURE
        extent = self.seg.extent_of(self._stretch_of(fault.va).sid)
        if extent is not None and extent.covers(
                self.machine.page_of(fault.va)):
            self.faults_fast += 1
            return FaultOutcome.SUCCESS
        return FaultOutcome.RETRY

    def handle_slow(self, fault):
        """Worker path: back the whole stretch with one contiguous run."""
        if not self._check_fault(fault):
            return False
        stretch = self._stretch_of(fault.va)
        vpn = self.machine.page_of(fault.va)
        extent = self.seg.extent_of(stretch.sid)
        if extent is not None and extent.covers(vpn):
            self.faults_slow += 1
            return True       # raced a concurrent grow; already mapped
        if extent is not None:
            ok = yield from self._grow_tail(stretch, extent)
            if ok:
                self.faults_slow += 1
                return True
            # The old neighbourhood is occupied: re-place the extent.
            self._drop_extent(stretch, extent)
        pfns = yield from self._alloc_run(stretch.npages)
        if pfns is None:
            return False
        yield Compute(self.translation.meter.model["zero_page"]
                      * len(pfns), label="zero-extent")
        self._install(stretch, pfns)
        self.faults_slow += 1
        return True

    def _stretch_of(self, va):
        """The bound stretch containing ``va`` (``_check_fault`` ran)."""
        vpn = self.machine.page_of(va)
        for stretch in self.stretches.values():
            if stretch.base_vpn <= vpn < stretch.base_vpn + stretch.npages:
                return stretch
        return None

    def _alloc_run(self, npages):
        """Generator: one contiguous run of ``npages`` frames, or None.

        Stale pool fragments are returned to the system first (a
        segment driver has no use for scattered frames and they only
        fragment the physical map). If no run is free, one best-effort
        ``request_frames`` round pressures the allocator (revocation
        may clear a run) before the retry.
        """
        for pfn in list(self._free):
            self._free.remove(pfn)
            if self.frames.owns_unused(pfn):
                self.frames.free(pfn)
        try:
            return self.frames.alloc_contiguous(npages)
        except FramesError:
            pass
        granted = yield Wait(self.frames.request_frames(npages))
        for pfn in granted or []:
            if self.frames.owns_unused(pfn):
                self.frames.free(pfn)
        try:
            return self.frames.alloc_contiguous(npages)
        except FramesError:
            return None

    def _grow_tail(self, stretch, extent):
        """Generator: regrow a shrunk extent to the full stretch.

        Needs the exact frames after the current tail; if any are now
        owned elsewhere the grow fails and the caller re-places.
        """
        missing = stretch.npages - extent.limit
        want = [extent.base_pfn + extent.limit + i for i in range(missing)]
        # Frames we arranged for revocation but nobody took are still
        # ours (owned and unused) — only the truly revoked ones need a
        # fresh grant at their exact old address.
        need = [pfn for pfn in want if not self.frames.owns_unused(pfn)]
        if need:
            try:
                self.frames.alloc_now(pfns=need)
            except FramesError:
                return False
        for pfn in want:
            if pfn in self._free:
                self._free.remove(pfn)
        yield Compute(self.translation.meter.model["zero_page"]
                      * len(want), label="zero-extent")
        self.translation.map_extent(self.domain, stretch, want)
        for pfn in want:
            self._note_mapped(pfn)
        self.extent_grows += 1
        return True

    def _install(self, stretch, pfns):
        """Install a fresh whole-stretch extent over ``pfns``."""
        self.translation.map_extent(self.domain, stretch, pfns)
        for pfn in pfns:
            self._note_mapped(pfn)
        self.extent_installs += 1

    def _note_mapped(self, pfn):
        info = self.frames.stack.info(pfn)
        info["vpn"] = None      # extent pages carry no per-page vpn
        info["driver"] = self.name
        self.frames.stack.move_to_bottom(pfn)

    def _drop_extent(self, stretch, extent):
        """Tear down a partial extent, returning its frames to the pool."""
        freed = self.translation.unmap_extent(self.domain, stretch)
        for pfn in freed:
            self.frames.stack.info(pfn).pop("vpn", None)
            self.frames.stack.move_to_top(pfn)
            self._free.append(pfn)
        self.extent_replaces += 1

    # -- revocation --------------------------------------------------------

    def release_frames(self, k, deadline=None):
        """Arrange up to ``k`` frames: pool first, then the extent tail.

        Shrinking is pure register/RamTab work (no backing store, no
        IO), so the deadline never forces a partial round — the
        shrunk pages simply lose their contents, which is why
        time-sensitive domains keep segments within their guarantee.
        """
        arranged = 0
        for pfn in list(self._free):
            if arranged >= k:
                break
            if not self.frames.owns_unused(pfn):
                self._free.remove(pfn)   # revoked under us; drop stale entry
                continue
            self.frames.stack.move_to_top(pfn)
            arranged += 1
        for stretch in self.stretches.values():
            if arranged >= k:
                break
            extent = self.seg.extent_of(stretch.sid)
            if extent is None:
                continue
            take = min(k - arranged, extent.limit)
            if take <= 0:
                continue
            freed = self.translation.shrink_extent(self.domain, stretch,
                                                   take)
            for pfn in freed:
                self.frames.stack.info(pfn).pop("vpn", None)
                self.frames.stack.move_to_top(pfn)
                arranged += 1
        return arranged
        yield  # pragma: no cover  (generator interface)
