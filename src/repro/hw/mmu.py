"""The MMU: translation plus protection checks, producing faults.

§6.3: placing null-mapping setup in the system domain "allows protection
faults, page faults and 'unallocated address' faults to be distinguished
and dispatched to the faulting application". This module implements that
taxonomy:

* ``UNALLOCATED`` — no PTE exists: the address is not part of any stretch.
* ``PROTECTION``  — the accessing protection domain lacks the right.
* ``PAGE``        — the PTE is a null/invalid mapping (no frame behind it).

Reads/writes that hit an armed FOR/FOW bit are handled *inside* the MMU
(the PALcode DFault path of footnote 8): the bit is cleared,
referenced/dirty is set, and the access proceeds — no fault is
dispatched to the application.

The segmentation regime's fast path lives here too: a
:class:`SegTranslation` registry of base+limit :class:`SegExtent`
entries, consulted before the TLB/page-table walk whenever it holds
an extent.
"""

from enum import Enum
from typing import Optional

from repro.hw.tlb import TLB


class AccessKind(Enum):
    """What the instruction was trying to do."""

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"


class FaultCode(Enum):
    """The fault taxonomy dispatched to applications."""

    UNALLOCATED = "unallocated"
    PROTECTION = "protection"
    PAGE = "page"


class AccessResult:
    """Outcome of an MMU access check (treat as immutable).

    ``ok`` accesses carry the translated PFN; faulting accesses carry the
    fault code. ``software_assist`` notes that the access took the
    PALcode DFault path (FOR/FOW bit handling).

    One of these is allocated per simulated memory access, so it is a
    ``__slots__`` class instead of a frozen dataclass — the dataclass's
    ``object.__setattr__``-per-field construction showed up in profiles
    of the Touch hot path.
    """

    __slots__ = ("ok", "va", "kind", "pfn", "fault", "software_assist")

    def __init__(self, ok, va, kind, pfn=None, fault=None,
                 software_assist=False):
        self.ok = ok
        self.va = va
        self.kind = kind
        self.pfn = pfn
        self.fault = fault
        self.software_assist = software_assist

    def __repr__(self):
        return ("AccessResult(ok=%r, va=%#x, kind=%r, pfn=%r, fault=%r, "
                "software_assist=%r)" % (self.ok, self.va, self.kind,
                                         self.pfn, self.fault,
                                         self.software_assist))


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
    counters. Every MMU owns one, empty until a segmentation driver
    (:mod:`repro.regimes.seg`) installs an extent; the MMU guards every
    consultation with ``if extents:`` so an empty registry leaves the
    per-page walk bit-identical.
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


class MMU:
    """Checks accesses against the page table and a protection domain.

    The MMU does not know about stretches as objects — only about the
    stretch id stored in each PTE and the rights the current protection
    domain grants for that id. That mirrors the hardware/PAL split in
    the paper: rights are consulted per access, translations are cached.
    """

    def __init__(self, machine, pagetable, meter):
        self.machine = machine
        self.pagetable = pagetable
        self.meter = meter
        self.tlb = TLB(meter)
        self.assists = 0  # FOR/FOW software-assist count
        # The segmentation fast path (repro.regimes): contiguous extents
        # consulted before the TLB/PT walk. While it is empty the
        # classic per-page path is untouched.
        self.seg = SegTranslation()

    def _lookup(self, vpn):
        """TLB-then-page-table translation lookup."""
        pte = self.tlb.lookup(vpn)
        if pte is not None:
            return pte
        pte = self.pagetable.lookup(vpn)
        if pte is not None and pte.valid:
            self.tlb.fill(vpn, pte)
        return pte

    def access(self, protdom, va, kind):
        """Simulate one memory access by a thread in ``protdom``.

        Returns an :class:`AccessResult`; never raises for faults — the
        kernel decides what to do with them (dispatch to the domain).
        """
        vpn = va >> self.machine.page_shift
        seg = self.seg
        if seg.extents:
            extent = seg.resolve(vpn)
            if extent is not None:
                # Base+limit hit: translate with a bounds check and an
                # add. Rights are still consulted per access (the seg
                # regime changes translation, never protection). Like a
                # TLB hit, the resolution itself charges nothing.
                if not protdom.rights_for(extent.sid).permits(kind):
                    return AccessResult(False, va, kind,
                                        fault=FaultCode.PROTECTION)
                return AccessResult(True, va, kind, pfn=extent.pfn_of(vpn))
        pte = self._lookup(vpn)
        if pte is None:
            return AccessResult(False, va, kind, fault=FaultCode.UNALLOCATED)
        rights = protdom.rights_for(pte.sid)
        if not rights.permits(kind):
            return AccessResult(False, va, kind, fault=FaultCode.PROTECTION)
        if not pte.valid or pte.pfn is None:
            return AccessResult(False, va, kind, fault=FaultCode.PAGE)
        assist = False
        if kind is AccessKind.READ and pte.fault_on_read:
            # PALcode DFault: record the reference, clear FOR, continue.
            self.meter.charge("pal_trap")
            pte.fault_on_read = False
            pte.referenced = True
            assist = True
        elif kind is AccessKind.WRITE and pte.fault_on_write:
            self.meter.charge("pal_trap")
            pte.fault_on_write = False
            pte.dirty = True
            pte.referenced = True
            assist = True
        if assist:
            self.assists += 1
        return AccessResult(True, va, kind, pfn=pte.pfn, software_assist=assist)

    def invalidate(self, vpn):
        """Invalidate any cached translation for ``vpn``.

        Must be called whenever a mapping is removed or changed; the
        translation system does so.
        """
        self.tlb.invalidate(vpn)
