"""The translation system: high-level management + low-level syscalls.

§6.3 splits translation in two:

* The **high-level** part is private to the system domain: bootstrapping,
  "adding, modifying or deleting ranges of virtual addresses, and
  performing the associated page table management", protection-domain
  lifecycle, and RamTab initialisation. The stretch allocator uses it to
  install *null mappings* (invalid entries carrying protection
  information) so that first touch faults.

* The **low-level** part is the per-domain syscall surface:

  - ``map(va, pa, attr)``
  - ``unmap(va)``
  - ``trans(va) -> (pa, attr)``

  Mapping or unmapping requires the caller to execute in a protection
  domain holding the **meta** right for the stretch containing ``va``
  (so it is impossible to map an address outside any stretch — there is
  no PTE to hold the stretch id). The frame involved is validated
  against the RamTab: the caller must own it and it must not be
  currently mapped or nailed.

Protection changes go through the stretch interface and come in the two
flavours Table 1 measures: rewriting PTE attributes page-by-page (the
"page table" route) or updating the protection domain entry (the
bracketed numbers).
"""

from repro.hw.mmu import SegExtent
from repro.mm.rights import Right


class MappingError(Exception):
    """A translation operation failed (bad address, bad frame state)."""


class NotAuthorized(MappingError):
    """Caller lacks the meta right required for the operation."""


class TranslationSystem:
    """Both halves of §6.3, sharing the page table, MMU and RamTab."""

    def __init__(self, machine, pagetable, mmu, ramtab, meter):
        self.machine = machine
        self.pagetable = pagetable
        self.mmu = mmu
        self.ramtab = ramtab
        self.meter = meter

    # ------------------------------------------------------------------
    # High-level interface (system domain only)
    # ------------------------------------------------------------------

    def add_range(self, stretch):
        """Install null mappings for a fresh stretch.

        "These entries contain protection information but are by default
        invalid: i.e. addresses within the range will cause a page fault
        if accessed."
        """
        self.pagetable.ensure_range(stretch.base_vpn, stretch.npages,
                                    stretch.sid)

    def remove_range(self, stretch):
        """Tear down the entries of a destroyed stretch.

        Any frames still mapped must have been unmapped by the owner
        first; we enforce that rather than leak RamTab state. A live
        segment extent counts as mapped for the same reason.
        """
        if self.mmu.seg.extent_of(stretch.sid) is not None:
            raise MappingError(
                "stretch %d still has a live extent" % stretch.sid)
        for vpn in range(stretch.base_vpn, stretch.base_vpn + stretch.npages):
            pte = self.pagetable.peek(vpn)
            if pte is not None and pte.mapped:
                raise MappingError(
                    "stretch %d still has page %#x mapped" % (stretch.sid, vpn))
        self.pagetable.remove_range(stretch.base_vpn, stretch.npages)
        for vpn in range(stretch.base_vpn, stretch.base_vpn + stretch.npages):
            self.mmu.tlb.invalidate(vpn)

    def force_unmap_frame(self, pfn):
        """System-domain teardown: forcibly unmap a frame.

        Used when a domain is killed (revocation deadline missed) and
        the frames allocator reclaims everything it owned, mapped or
        not. Bypasses meta-right checks — this is the system domain.
        """
        from repro.mm.ramtab import FrameState

        vpn = self.ramtab.mapped_vpn(pfn)
        if vpn is None:
            return
        seg = self.mmu.seg
        if seg.extents:
            # Truncate any extent covering the reclaimed page; the
            # pages after it are reclaimed by their own calls (kill
            # walks the domain's frames in ascending PFN order).
            seg.forget_page(vpn)
        pte = self.pagetable.peek(vpn)
        if pte is not None:
            pte.make_null()
        self.mmu.tlb.invalidate(vpn)
        if self.ramtab.state(pfn) is FrameState.NAILED:
            self.ramtab.unnail(pfn)
        self.ramtab.set_unused(pfn)

    # ------------------------------------------------------------------
    # Low-level syscalls (any domain, validated)
    # ------------------------------------------------------------------

    def _pte_checked(self, caller, va):
        """Shared validation for map/unmap: PTE exists + meta right."""
        vpn = self.machine.page_of(va)
        pte = self.pagetable.lookup(vpn)
        if pte is None:
            raise MappingError("va %#x is not part of any stretch" % va)
        self.meter.charge("stretch_validate")
        if not caller.protdom.rights_for(pte.sid).permits(Right.META):
            raise NotAuthorized(
                "%s holds no meta right on stretch %d" % (caller.name, pte.sid))
        return vpn, pte

    def map(self, caller, va, pfn, attrs=0, nailed=False):
        """map(va, pa, attr): install a translation.

        Validates the meta right and — via the RamTab — that the caller
        owns ``pfn`` and that the frame is neither mapped nor nailed.
        """
        self.meter.charge("pal_syscall")
        vpn, pte = self._pte_checked(caller, va)
        if pte.mapped:
            raise MappingError("va %#x is already mapped" % va)
        self.meter.charge("ramtab_check")
        self.ramtab.validate_mappable(pfn, caller)
        self.meter.charge("pte_write")
        pte.map(pfn, attrs=attrs)
        pte.nailed = nailed
        self.ramtab.set_mapped(pfn, vpn, nailed=nailed)
        self.mmu.invalidate(vpn)

    def unmap(self, caller, va):
        """unmap(va): remove a translation, returning the freed PFN.

        "Any further access to the address should cause some form of
        memory fault." Nailed frames refuse.
        """
        self.meter.charge("pal_syscall")
        vpn, pte = self._pte_checked(caller, va)
        if not pte.mapped:
            raise MappingError("va %#x is not mapped" % va)
        if pte.nailed:
            raise MappingError("va %#x is nailed" % va)
        self.meter.charge("ramtab_check")
        pfn = pte.pfn
        was_dirty = pte.dirty
        pte.make_null()
        self.meter.charge("pte_write")
        self.ramtab.set_unused(pfn)
        self.mmu.invalidate(vpn)
        return pfn, was_dirty

    # ------------------------------------------------------------------
    # Segment-extent syscalls (repro.regimes; validated like map/unmap)
    # ------------------------------------------------------------------

    def map_extent(self, caller, stretch, pfns):
        """Install (or grow) a base+limit extent over ``pfns``.

        The segmentation analogue of :meth:`map`: the caller must hold
        the meta right on the stretch and own every frame, but the
        whole run is validated under *one* syscall and *one* PTE-write
        analogue (the base+limit register install) — that single
        charge, against per-page ``map`` calls, is exactly what the
        regimes ablation measures. ``pfns`` must be a contiguous
        ascending run; a grow must start at the current extent tail.
        """
        if not pfns:
            raise MappingError("empty extent")
        for left, right in zip(pfns, pfns[1:]):
            if right != left + 1:
                raise MappingError("extent frames are not contiguous")
        self.meter.charge("pal_syscall")
        base_va = self.machine.page_base(stretch.base_vpn)
        self._pte_checked(caller, base_va)
        seg = self.mmu.seg
        extent = seg.extent_of(stretch.sid)
        if extent is None:
            start = 0
            if len(pfns) > stretch.npages:
                raise MappingError("extent larger than stretch")
        else:
            start = extent.limit
            if pfns[0] != extent.base_pfn + extent.limit:
                raise MappingError("grow must start at the extent tail")
            if extent.limit + len(pfns) > stretch.npages:
                raise MappingError("extent would exceed the stretch")
        self.meter.charge("ramtab_check")
        for pfn in pfns:
            self.ramtab.validate_mappable(pfn, caller)
        self.meter.charge("pte_write")
        for offset, pfn in enumerate(pfns):
            self.ramtab.set_mapped(pfn, stretch.base_vpn + start + offset)
        if extent is None:
            seg.register(SegExtent(stretch.sid, caller, stretch.base_vpn,
                                   pfns[0], len(pfns)))
        else:
            extent.limit += len(pfns)
        self.meter.charge("tlb_invalidate")

    def shrink_extent(self, caller, stretch, count):
        """Shrink the stretch's extent by ``count`` pages from the tail.

        The revocation path of the segmentation regime: like the grow,
        one syscall and one limit-register update cover the whole run.
        Returns the freed PFNs (now unused in the RamTab, ready for
        ``stack.move_to_top``); the extent disappears when its limit
        reaches zero.
        """
        self.meter.charge("pal_syscall")
        base_va = self.machine.page_base(stretch.base_vpn)
        self._pte_checked(caller, base_va)
        seg = self.mmu.seg
        extent = seg.extent_of(stretch.sid)
        if extent is None:
            return []
        take = min(count, extent.limit)
        if take <= 0:
            return []
        self.meter.charge("ramtab_check")
        freed = []
        for _ in range(take):
            extent.limit -= 1
            freed.append(extent.base_pfn + extent.limit)
            self.ramtab.set_unused(extent.base_pfn + extent.limit)
        self.meter.charge("pte_write")
        seg.shrinks += 1
        if extent.limit == 0:
            seg.remove(stretch.sid)
        self.meter.charge("tlb_invalidate")
        return freed

    def unmap_extent(self, caller, stretch):
        """Tear down the stretch's whole extent; returns the freed PFNs."""
        extent = self.mmu.seg.extent_of(stretch.sid)
        if extent is None:
            return []
        return self.shrink_extent(caller, stretch, extent.limit)

    def page_info(self, va):
        """Read the software dirty/referenced bits of a page.

        The linear page table lives (read-only) in the single address
        space, so this is an unprivileged indexed load plus a bit test —
        the paper's ``dirty`` benchmark: "this simply involves looking
        up a random page table entry and examining its 'dirty' bit".
        Returns ``(mapped, dirty, referenced)``.
        """
        vpn = self.machine.page_of(va)
        pte = self.pagetable.lookup(vpn)
        self.meter.charge("pte_read")
        if pte is None or not pte.mapped:
            return (False, False, False)
        return (True, pte.dirty, pte.referenced)

    def trans(self, va):
        """trans(va) -> (pfn, attrs) or None if unmapped."""
        self.meter.charge("pal_syscall")
        vpn = self.machine.page_of(va)
        pte = self.pagetable.lookup(vpn)
        if pte is None or not pte.mapped:
            return None
        self.meter.charge("pte_read")
        return pte.pfn, pte.attrs

    # ------------------------------------------------------------------
    # Protection changes (stretch interface)
    # ------------------------------------------------------------------

    def set_prot_pagetable(self, caller, stretch, rights, protdom=None):
        """(Un)protect via page tables: rewrite every page's attributes.

        "Nemesis does not have code optimised for the page table
        mechanism (e.g. it looks up each page in the range
        individually)" — we do exactly that, so the cost scales with the
        page count, reproducing Table 1's prot100 number.

        The authoritative rights live in the protection domain; the PTE
        attribute rewrite models the hardware-visible caching of rights.
        """
        target = protdom if protdom is not None else caller.protdom
        # Idempotent changes are detected up front (§7: without the
        # alternation the benchmark "takes an average of only 0.15us").
        self.meter.charge("stretch_validate")
        if target.rights_for(stretch.sid) == rights:
            self.meter.charge("pte_read")
            return False
        self.meter.charge("pal_syscall")
        if not caller.protdom.rights_for(stretch.sid).permits(Right.META):
            raise NotAuthorized(
                "%s holds no meta right on stretch %d"
                % (caller.name, stretch.sid))
        target.set_rights(stretch.sid, rights, hot=True)
        encoded = hash(str(rights)) & 0xFFFF
        for vpn in range(stretch.base_vpn, stretch.base_vpn + stretch.npages):
            pte = self.pagetable.lookup(vpn)
            pte.attrs = encoded
            self.meter.charge("pte_write")
        self.mmu.tlb.invalidate_all()
        return True

    def set_prot_protdom(self, caller, stretch, rights, protdom=None):
        """(Un)protect via the protection domain: one entry update.

        This is the bracketed route in Table 1 — cost independent of the
        stretch size.
        """
        target = protdom if protdom is not None else caller.protdom
        self.meter.charge("stretch_validate")
        if target.rights_for(stretch.sid) == rights:
            self.meter.charge("pte_read")
            return False
        self.meter.charge("pal_syscall")
        if not caller.protdom.rights_for(stretch.sid).permits(Right.META):
            raise NotAuthorized(
                "%s holds no meta right on stretch %d"
                % (caller.name, stretch.sid))
        return target.set_rights(stretch.sid, rights, hot=True)
