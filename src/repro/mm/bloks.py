"""Blok allocation for swap space.

§6.6: the paged stretch driver "keeps track of swap space as a bitmap of
*bloks* — a blok is a contiguous set of disk blocks which is a multiple
of the size of a page. A (singly) linked list of bitmap structures is
maintained, and bloks are allocated first fit — a hint pointer is
maintained to the earliest structure which is known to have free bloks."

We reproduce that structure literally: a singly linked list of fixed-
size bitmap chunks, first-fit allocation within a chunk, and a hint
pointer that only ever moves forward on allocation and back on free.
"""


class _BitmapChunk:
    """One node of the linked list: a bitmap over ``nbits`` bloks."""

    __slots__ = ("base", "nbits", "bits", "free_count", "next")

    def __init__(self, base, nbits):
        self.base = base          # index of first blok covered
        self.nbits = nbits
        self.bits = 0             # set bit = allocated
        self.free_count = nbits
        self.next = None

    def alloc_first_fit(self):
        """Allocate the lowest free blok in this chunk, or return None."""
        if self.free_count == 0:
            return None
        bits = self.bits
        for offset in range(self.nbits):
            if not (bits >> offset) & 1:
                self.bits |= 1 << offset
                self.free_count -= 1
                return self.base + offset
        raise AssertionError("free_count disagrees with bitmap")

    def free(self, index):
        """Return blok ``index`` to this chunk; raises if not allocated."""
        offset = index - self.base
        if not 0 <= offset < self.nbits:
            raise ValueError("blok %d outside chunk" % index)
        mask = 1 << offset
        if not self.bits & mask:
            raise ValueError("blok %d is already free" % index)
        self.bits &= ~mask
        self.free_count += 1

    def is_allocated(self, index):
        """Whether blok ``index`` (inside this chunk) is in use."""
        offset = index - self.base
        return bool((self.bits >> offset) & 1)


class BlokMap:
    """First-fit blok allocator over a fixed number of bloks."""

    def __init__(self, total_bloks, chunk_bits=512):
        if total_bloks <= 0:
            raise ValueError("need at least one blok")
        if chunk_bits <= 0:
            raise ValueError("chunk_bits must be positive")
        self.total_bloks = total_bloks
        self.chunk_bits = chunk_bits
        self._head = None
        tail = None
        base = 0
        while base < total_bloks:
            nbits = min(chunk_bits, total_bloks - base)
            chunk = _BitmapChunk(base, nbits)
            if tail is None:
                self._head = chunk
            else:
                tail.next = chunk
            tail = chunk
            base += nbits
        self._hint = self._head   # earliest chunk known to have free bloks
        self.allocated = 0

    @property
    def free(self):
        """Number of free bloks."""
        return self.total_bloks - self.allocated

    def alloc(self):
        """Allocate the first free blok at or after the hint; None if full."""
        chunk = self._hint
        while chunk is not None:
            index = chunk.alloc_first_fit()
            if index is not None:
                self.allocated += 1
                # Advance the hint past exhausted chunks.
                while self._hint is not None and self._hint.free_count == 0:
                    self._hint = self._hint.next
                return index
            chunk = chunk.next
        return None

    def free_blok(self, index):
        """Return a blok to the pool; moves the hint back if needed."""
        chunk = self._chunk_of(index)
        chunk.free(index)
        self.allocated -= 1
        if self._hint is None or chunk.base < self._hint.base:
            self._hint = chunk

    def is_allocated(self, index):
        """Whether blok ``index`` is in use."""
        return self._chunk_of(index).is_allocated(index)

    def _chunk_of(self, index):
        if not 0 <= index < self.total_bloks:
            raise ValueError("blok %d out of range" % index)
        chunk = self._head
        while chunk is not None:
            if chunk.base <= index < chunk.base + chunk.nbits:
                return chunk
            chunk = chunk.next
        raise AssertionError("chunk list does not cover blok %d" % index)
