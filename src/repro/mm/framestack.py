"""Per-application frame stacks.

§6.2: "each application maintains a frame stack. This is a
system-allocated data structure which is writable by the application
domain. It contains a list of physical frame numbers (PFNs) owned by
that application ordered by 'importance' — the top of the stack holds
the PFN of the frame which that domain is most prepared to have
revoked." The frames allocator always revokes from the top, so the
application keeps its preferred revocation order; "the frame stack also
provides a useful place for stretch drivers to store local information
about mappings".

We keep the stack as a list whose *last element is the top* (most
revocable). Stretch drivers store an ``info`` dict per frame.
"""


class _Entry:
    __slots__ = ("pfn", "info")

    def __init__(self, pfn):
        self.pfn = pfn
        self.info = {}


class FrameStack:
    """Ordered list of owned PFNs; top (= end) is most revocable.

    ``pushes``/``removes``/``reorders`` count mutations (cheap plain
    ints, always on) so tests can assert stack churn.
    """

    def __init__(self):
        self._entries = []
        self._index = {}  # pfn -> _Entry
        self.pushes = 0
        self.removes = 0
        self.reorders = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, pfn):
        return pfn in self._index

    def pfns_top_down(self):
        """PFNs from most to least revocable."""
        return [e.pfn for e in reversed(self._entries)]

    def info(self, pfn):
        """The driver-private info dict stored with a frame."""
        return self._index[pfn].info

    def push(self, pfn):
        """Add a newly granted frame at the top (unused = most revocable)."""
        if pfn in self._index:
            raise ValueError("PFN %d already on stack" % pfn)
        entry = _Entry(pfn)
        self._entries.append(entry)
        self._index[pfn] = entry
        self.pushes += 1

    def remove(self, pfn):
        """Remove a frame (it was freed or revoked)."""
        entry = self._index.pop(pfn)
        self._entries.remove(entry)
        self.removes += 1
        return entry.info

    def top(self, k=1):
        """The ``k`` most revocable PFNs (top first)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return [e.pfn for e in self._entries[::-1][:k]]

    def move_to_top(self, pfn):
        """Mark a frame most revocable (e.g. it just became unused)."""
        entry = self._index[pfn]
        self._entries.remove(entry)
        self._entries.append(entry)

    def move_to_bottom(self, pfn):
        """Mark a frame least revocable (e.g. it was just mapped)."""
        entry = self._index[pfn]
        self._entries.remove(entry)
        self._entries.insert(0, entry)

    def reorder(self, pfns_bottom_to_top):
        """Install a complete preferred revocation order.

        The provided sequence must be a permutation of the stack's PFNs.
        """
        if sorted(pfns_bottom_to_top) != sorted(self._index):
            raise ValueError("reorder must permute the existing PFNs")
        self._entries = [self._index[pfn] for pfn in pfns_bottom_to_top]
        self.reorders += 1
