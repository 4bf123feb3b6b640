"""Page tables: linear (the paper's implementation) and guarded.

The paper: "We use a linear page table implementation (i.e. the main
page table is an 8Gb array in the virtual address space with a secondary
page table used to map it on 'double faults') which provides efficient
translation; an earlier implementation using guarded page tables was
about three times slower."

Both implementations share the same interface so the translation system
and the microbenchmarks can be run against either. Each charges its
cost-model primitives as it executes, so path-length differences (one
indexed load for the linear table, a multi-level walk for the guarded
table) show up directly in measured time.
"""

from repro.hw.pte import PTE


class BasePageTable:
    """Interface + shared bookkeeping for page-table implementations.

    Entries are created per *allocated* virtual page (the high-level
    translation system sets up null mappings when a stretch is created,
    §6.1/§6.3) and destroyed when the stretch is destroyed. A lookup of
    a never-allocated page returns None — the MMU turns that into an
    "unallocated address" fault.
    """

    kind = "base"

    def __init__(self, machine, meter):
        self.machine = machine
        self.meter = meter
        self.entry_count = 0

    # -- interface -------------------------------------------------------

    def lookup(self, vpn):
        """Return the PTE for ``vpn`` or None, charging walk costs."""
        raise NotImplementedError

    def _insert(self, vpn, pte):
        raise NotImplementedError

    def _remove(self, vpn):
        raise NotImplementedError

    # -- shared operations -----------------------------------------------

    def ensure_range(self, vpn, npages, sid):
        """Create null mappings for ``npages`` pages starting at ``vpn``.

        Used by the high-level translation system when a stretch is
        allocated: the entries hold the protection information (the
        stretch id) and are invalid, so first touch faults (§6.1).
        """
        for page in range(vpn, vpn + npages):
            if self.peek(page) is not None:
                raise ValueError("page %#x already has a PTE" % page)
        for page in range(vpn, vpn + npages):
            self._insert(page, PTE(sid))
            self.entry_count += 1

    def remove_range(self, vpn, npages):
        """Remove the PTEs for a destroyed stretch."""
        for page in range(vpn, vpn + npages):
            if self.peek(page) is None:
                raise ValueError("page %#x has no PTE" % page)
        for page in range(vpn, vpn + npages):
            self._remove(page)
            self.entry_count -= 1

    def peek(self, vpn):
        """Lookup without charging costs (for assertions and tests)."""
        raise NotImplementedError


class LinearPageTable(BasePageTable):
    """The 8 GB linear array page table.

    A lookup is a single indexed load (``pt_lookup``). We represent the
    conceptually-huge array sparsely with a dict keyed by VPN; the cost
    model, not the Python representation, conveys the speed.
    """

    kind = "linear"

    def __init__(self, machine, meter):
        super().__init__(machine, meter)
        self._entries = {}

    def lookup(self, vpn):
        """The PTE for ``vpn`` (or None), charging one indexed load."""
        self.meter.charge("pt_lookup")
        return self._entries.get(vpn)

    def peek(self, vpn):
        """The PTE for ``vpn`` (or None), charging nothing."""
        return self._entries.get(vpn)

    def _insert(self, vpn, pte):
        self.meter.charge("pte_write")
        self._entries[vpn] = pte

    def _remove(self, vpn):
        self.meter.charge("pte_write")
        del self._entries[vpn]


class GuardedPageTable(BasePageTable):
    """A guarded (path-compressed multi-level) page table.

    The 20-bit VPN space (8 GB / 8 KB) is resolved in radix levels; each
    level traversed charges ``gpt_level``. Guards compress single-child
    paths, but a populated table still walks several levels per lookup —
    which is why the paper found it ~3x slower than the linear table for
    the ``dirty`` benchmark.
    """

    kind = "guarded"

    BITS_PER_LEVEL = 5

    def __init__(self, machine, meter):
        super().__init__(machine, meter)
        self.vpn_bits = max(1, (machine.total_pages - 1).bit_length())
        self._root = _GptNode(prefix=0, prefix_bits=0)

    def _path_levels(self, vpn):
        """Number of radix levels needed to resolve ``vpn``."""
        return -(-self.vpn_bits // self.BITS_PER_LEVEL)

    def lookup(self, vpn):
        """The PTE for ``vpn`` (or None), charging one ``gpt_level``
        per radix level walked."""
        node = self._root
        shift = self.vpn_bits
        while True:
            self.meter.charge("gpt_level")
            if node.is_leaf:
                return node.entries.get(vpn)
            shift -= self.BITS_PER_LEVEL
            index = (vpn >> max(shift, 0)) & ((1 << self.BITS_PER_LEVEL) - 1)
            child = node.children.get(index)
            if child is None:
                return None
            node = child

    def peek(self, vpn):
        """The PTE for ``vpn`` (or None): the same walk, uncharged."""
        node = self._root
        shift = self.vpn_bits
        while True:
            if node.is_leaf:
                return node.entries.get(vpn)
            shift -= self.BITS_PER_LEVEL
            index = (vpn >> max(shift, 0)) & ((1 << self.BITS_PER_LEVEL) - 1)
            child = node.children.get(index)
            if child is None:
                return None
            node = child

    def _walk_to_leaf(self, vpn, create):
        node = self._root
        shift = self.vpn_bits
        depth = 0
        max_depth = self._path_levels(vpn)
        while depth < max_depth - 1:
            shift -= self.BITS_PER_LEVEL
            index = (vpn >> max(shift, 0)) & ((1 << self.BITS_PER_LEVEL) - 1)
            child = node.children.get(index)
            if child is None:
                if not create:
                    return None
                child = _GptNode(prefix=0, prefix_bits=0)
                node.children[index] = child
            node = child
            depth += 1
        return node

    def _insert(self, vpn, pte):
        self.meter.charge("pte_write")
        leaf = self._walk_to_leaf(vpn, create=True)
        leaf.entries[vpn] = pte

    def _remove(self, vpn):
        self.meter.charge("pte_write")
        leaf = self._walk_to_leaf(vpn, create=False)
        if leaf is None or vpn not in leaf.entries:
            raise ValueError("page %#x has no PTE" % vpn)
        del leaf.entries[vpn]


class _GptNode:
    """Internal guarded-page-table node.

    A node acts as a leaf until it has children; leaves hold entries
    directly. This is a simplification of true guard compression that
    preserves the property that matters for the benchmark: multiple
    charged levels per lookup.
    """

    __slots__ = ("prefix", "prefix_bits", "children", "entries")

    def __init__(self, prefix, prefix_bits):
        self.prefix = prefix
        self.prefix_bits = prefix_bits
        self.children = {}
        self.entries = {}

    @property
    def is_leaf(self):
        """Whether the node holds entries rather than child nodes."""
        return not self.children
