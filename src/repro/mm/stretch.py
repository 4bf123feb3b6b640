"""Stretches: ranges of the single virtual address space.

§6.1: "A stretch merely represents a range of virtual addresses with a
certain accessibility. It does not own — nor is it guaranteed — any
physical resources." Only by *binding* a stretch to a stretch driver
does it acquire contents.

Start and length are always multiples of the page size. Protection is
per-stretch: all pages of a stretch share one accessibility (this is
why the appel2 benchmark must unmap/map rather than protect individual
pages — §7).
"""


class Stretch:
    """One allocated virtual-address range."""

    def __init__(self, sid, base, nbytes, machine, owner=None):
        if base % machine.page_size or nbytes % machine.page_size:
            raise ValueError("stretch must be page-aligned")
        if nbytes <= 0:
            raise ValueError("stretch must be non-empty")
        self.sid = sid
        self.base = base
        self.nbytes = nbytes
        self.machine = machine
        self.owner = owner            # owning Domain (holds meta)
        self.driver = None            # bound StretchDriver, if any
        self.destroyed = False
        self.translation = None       # set by the stretch allocator

    @property
    def end(self):
        """One past the last byte."""
        return self.base + self.nbytes

    @property
    def npages(self):
        """Length in pages."""
        return self.nbytes // self.machine.page_size

    @property
    def base_vpn(self):
        """The first page's virtual page number."""
        return self.machine.page_of(self.base)

    def __contains__(self, va):
        return self.base <= va < self.end

    def va_of_page(self, index):
        """Virtual address of the ``index``-th page of the stretch."""
        if not 0 <= index < self.npages:
            raise IndexError("page %d outside stretch of %d pages"
                             % (index, self.npages))
        return self.base + index * self.machine.page_size

    def page_index(self, va):
        """Index within the stretch of the page containing ``va``."""
        if va not in self:
            raise ValueError("va %#x not in stretch %d" % (va, self.sid))
        return (va - self.base) // self.machine.page_size

    def pages(self):
        """Iterate the base VA of every page."""
        for index in range(self.npages):
            yield self.base + index * self.machine.page_size

    # -- the stretch interface (§6, "Memory protection operations are
    # carried out by the application through the stretch interface") ----

    def set_rights(self, caller, rights, protdom=None, via="protdom"):
        """Change this stretch's accessibility.

        ``caller`` must hold the meta right. ``via`` selects the route
        Table 1 compares: ``"protdom"`` (one protection-domain entry,
        size-independent) or ``"pagetable"`` (rewrite every page's
        cached attributes). ``protdom`` targets another domain's
        protection domain to grant/revoke sharing.
        """
        if self.translation is None:
            raise RuntimeError("stretch %d is not registered with a "
                               "translation system" % self.sid)
        if via == "protdom":
            return self.translation.set_prot_protdom(caller, self, rights,
                                                     protdom=protdom)
        if via == "pagetable":
            return self.translation.set_prot_pagetable(caller, self, rights,
                                                       protdom=protdom)
        raise ValueError("via must be 'protdom' or 'pagetable'")

    def rights_in(self, protdom):
        """The rights ``protdom`` currently holds on this stretch."""
        return protdom.rights_for(self.sid)

    def __repr__(self):
        return "<Stretch %d [%#x..%#x) %d pages%s>" % (
            self.sid, self.base, self.end, self.npages,
            " bound" if self.driver else "")
