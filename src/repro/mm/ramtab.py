"""The RamTab: per-frame ownership and usage state.

§6.3: the RamTab "is a simple data structure maintaining information
about the current use of frames of main memory"; the frames allocator
"uses the RamTab to record the owner and logical frame width of
allocated frames", and the low-level translation system uses it to
validate that a frame being mapped is owned by the caller and "not
currently mapped or nailed". It is deliberately simple enough for
low-level code — a flat array of records.
"""

from enum import Enum


class FrameState(Enum):
    """What a frame's owner is doing with it."""

    UNUSED = "unused"   # owned but not mapped anywhere
    MAPPED = "mapped"   # mapped at some virtual address
    NAILED = "nailed"   # mapped and immune to unmapping (wired)


class _FrameRecord:
    __slots__ = ("owner", "width", "state", "vpn")

    def __init__(self):
        self.owner = None       # owning Domain (None = free)
        self.width = 0          # log2 of logical frame size
        self.state = FrameState.UNUSED
        self.vpn = None         # where mapped, if MAPPED/NAILED


class RamTab:
    """Flat table indexed by PFN."""

    def __init__(self, total_frames, default_width):
        self.total_frames = total_frames
        self.default_width = default_width
        self._records = [_FrameRecord() for _ in range(total_frames)]

    def _rec(self, pfn):
        if not 0 <= pfn < self.total_frames:
            raise ValueError("PFN %d out of range" % pfn)
        return self._records[pfn]

    # -- allocator-side ----------------------------------------------------

    def set_owner(self, pfn, owner, width=None):
        """Record allocation of a frame to a domain."""
        rec = self._rec(pfn)
        if rec.owner is not None:
            raise ValueError("PFN %d already owned by %s" % (pfn, rec.owner))
        rec.owner = owner
        rec.width = self.default_width if width is None else width
        rec.state = FrameState.UNUSED
        rec.vpn = None

    def clear_owner(self, pfn):
        """Record release of a frame; it must be unused."""
        rec = self._rec(pfn)
        if rec.owner is None:
            raise ValueError("PFN %d has no owner" % pfn)
        if rec.state is not FrameState.UNUSED:
            raise ValueError("PFN %d is %s; unmap before freeing"
                             % (pfn, rec.state.value))
        rec.owner = None
        rec.vpn = None

    # -- queries -------------------------------------------------------------

    def owner(self, pfn):
        """The owning domain of ``pfn`` (None: free)."""
        return self._rec(pfn).owner

    def state(self, pfn):
        """The :class:`FrameState` of ``pfn``."""
        return self._rec(pfn).state

    def width(self, pfn):
        """The logical frame width (log2 bytes) ``pfn`` is part of."""
        return self._rec(pfn).width

    def mapped_vpn(self, pfn):
        """The virtual page ``pfn`` is mapped at (None: unmapped)."""
        return self._rec(pfn).vpn

    def is_unused(self, pfn):
        """Whether ``pfn`` is owned but mapped nowhere."""
        return self._rec(pfn).state is FrameState.UNUSED

    def owned_by(self, domain):
        """All PFNs owned by ``domain`` (ascending)."""
        return [pfn for pfn, rec in enumerate(self._records)
                if rec.owner is domain]

    # -- translation-side validation + updates -------------------------------

    def validate_mappable(self, pfn, caller):
        """Low-level check before map(): caller owns it, it is unused."""
        rec = self._rec(pfn)
        if rec.owner is not caller:
            raise PermissionError(
                "PFN %d is not owned by %s" % (pfn, getattr(caller, "name", caller)))
        if rec.state is not FrameState.UNUSED:
            raise ValueError("PFN %d is already %s" % (pfn, rec.state.value))

    def set_mapped(self, pfn, vpn, nailed=False):
        """Record ``pfn`` as mapped (or nailed) at ``vpn``."""
        rec = self._rec(pfn)
        rec.state = FrameState.NAILED if nailed else FrameState.MAPPED
        rec.vpn = vpn

    def set_unused(self, pfn):
        """Record ``pfn`` as unmapped; raises if it is nailed."""
        rec = self._rec(pfn)
        if rec.state is FrameState.NAILED:
            raise ValueError("PFN %d is nailed; un-nail before unmapping" % pfn)
        rec.state = FrameState.UNUSED
        rec.vpn = None

    def unnail(self, pfn):
        """Demote a nailed frame to merely mapped."""
        rec = self._rec(pfn)
        if rec.state is not FrameState.NAILED:
            raise ValueError("PFN %d is not nailed" % pfn)
        rec.state = FrameState.MAPPED
