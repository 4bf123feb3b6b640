"""The stretch allocator: centralised virtual-address allocation.

§6.1: "Any domain may request a stretch from a stretch allocator,
specifying the desired size and (optionally) a starting address and
attributes. Should the request be successful, a new stretch will be
created and returned to the caller. The caller is now the owner of the
stretch." Start and length are always multiples of the page size.

Allocation of virtual addresses is performed "in a centralised way by
the system domain" (§6): the allocator also drives the high-level
translation system to install the null mappings for new stretches.
"""

from repro.mm.rights import Rights
from repro.mm.stretch import Stretch


class StretchAllocationError(Exception):
    """The requested range is unavailable or invalid."""


class StretchAllocator:
    """First-fit allocator over the single address space window.

    Address zero is deliberately left unallocated (null-pointer
    hygiene): allocation starts at ``base``, one page up.
    """

    def __init__(self, machine, translation):
        self.machine = machine
        self.translation = translation
        self.base = machine.page_size
        self.limit = machine.vas_bytes
        self._stretches = {}       # sid -> Stretch
        self._extents = []         # sorted list of (start, end) in use
        self._next_sid = 1

    # -- lookup ------------------------------------------------------------

    def by_sid(self, sid):
        """The stretch with identifier ``sid``."""
        return self._stretches[sid]

    def stretch_containing(self, va):
        """The stretch containing ``va``, or None."""
        for stretch in self._stretches.values():
            if va in stretch:
                return stretch
        return None

    def __len__(self):
        return len(self._stretches)

    # -- allocation ----------------------------------------------------------

    def _find_gap(self, nbytes):
        """Lowest address where ``nbytes`` fit (first fit)."""
        cursor = self.base
        for start, end in self._extents:
            if start - cursor >= nbytes:
                return cursor
            cursor = max(cursor, end)
        if self.limit - cursor >= nbytes:
            return cursor
        raise StretchAllocationError(
            "no gap of %d bytes in the address space" % nbytes)

    def _range_free(self, start, nbytes):
        end = start + nbytes
        if start < self.base or end > self.limit:
            return False
        return all(e <= start or s >= end for s, e in self._extents)

    def new(self, owner, nbytes, start=None):
        """Allocate a stretch for ``owner``.

        The owner's protection domain receives read/write/meta rights
        (the owner may narrow them later through the stretch
        interface).
        """
        nbytes = self.machine.align_up(nbytes)
        if nbytes == 0:
            raise StretchAllocationError("cannot allocate an empty stretch")
        if start is not None:
            if start % self.machine.page_size:
                raise StretchAllocationError("start must be page-aligned")
            if not self._range_free(start, nbytes):
                raise StretchAllocationError(
                    "range [%#x..%#x) is unavailable" % (start, start + nbytes))
        else:
            start = self._find_gap(nbytes)
        sid = self._next_sid
        self._next_sid += 1
        stretch = Stretch(sid, start, nbytes, self.machine, owner=owner)
        stretch.translation = self.translation
        self.translation.add_range(stretch)
        self._extents.append((start, start + nbytes))
        self._extents.sort()
        self._stretches[sid] = stretch
        if owner is not None:
            owner.protdom.set_rights(sid, Rights.parse("rwm"))
        return stretch

    def destroy(self, stretch):
        """Destroy a stretch: all its pages must be unmapped first."""
        if stretch.destroyed:
            raise StretchAllocationError("stretch %d already destroyed"
                                         % stretch.sid)
        self.translation.remove_range(stretch)  # raises if still mapped
        stretch.destroyed = True
        self._extents.remove((stretch.base, stretch.end))
        del self._stretches[stretch.sid]
        if stretch.owner is not None:
            stretch.owner.protdom.drop(stretch.sid)
