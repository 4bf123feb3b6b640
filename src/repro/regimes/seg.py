"""The segmentation regime: contiguous extents, base+limit translation.

Teabe et al. argue that for many workloads *segmentation is better
than paging*: translating through one base+limit register pair beats
walking a page table, and backing a region with one physically
contiguous extent amortises the per-page syscall tax into a single
validated operation. This module grounds that claim inside the
self-paging architecture without bending any of its rules:

* :class:`~repro.hw.mmu.SegTranslation` is the hardware-side fast
  path — the MMU's own registry of ``(base_vpn, limit, base_pfn)``
  extents, consulted *before* the TLB/page-table walk. An extent hit
  translates with a bounds check and an add, no PT walk, no per-page
  TLB state. Every MMU has one, empty until a seg driver installs an
  extent, and while it is empty the classic per-page walk is untouched
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
        super().__init__(name, domain, frames_client, translation)
        self.seg = translation.mmu.seg
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
