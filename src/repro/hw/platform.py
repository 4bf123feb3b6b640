"""Machine description.

The paper's host was a Digital EB164: Alpha 21164 at 266 MHz, 8 KB base
pages, a single 64-bit address space of which Nemesis manages a window.
The :class:`Machine` dataclass collects the constants the rest of the
system needs; :data:`ALPHA_EB164` is the configuration used by all the
paper's experiments.
"""

from dataclasses import dataclass
from typing import Tuple

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class Machine:
    """Static description of the simulated machine.

    Attributes:
        name: human-readable platform name.
        page_size: base page size in bytes (8 KB on Alpha).
        phys_mem_bytes: size of main memory.
        vas_bytes: size of the single-address-space window managed by the
            stretch allocator (the paper's linear page table covers 8 GB).
        cpu_hz: nominal clock rate (used only for documentation; timing
            comes from the cost model).
        io_regions: (name, bytes) pairs of special physical regions
            (e.g. DMA-capable memory) appended after main memory.

    The core count is not part of the machine: it is
    :class:`repro.system.NemesisSystem`'s ``cpus`` (the mission key
    ``[topology] cpus``).
    """

    name: str = "generic"
    page_size: int = 8 * KB
    phys_mem_bytes: int = 128 * MB
    vas_bytes: int = 8 * GB
    cpu_hz: int = 266_000_000
    io_regions: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.phys_mem_bytes % self.page_size:
            raise ValueError("phys_mem_bytes must be page-aligned")
        if self.vas_bytes % self.page_size:
            raise ValueError("vas_bytes must be page-aligned")

    @property
    def page_shift(self):
        """log2(page_size)."""
        return self.page_size.bit_length() - 1

    @property
    def total_frames(self):
        """Number of main-memory frames (excludes I/O regions)."""
        return self.phys_mem_bytes // self.page_size

    @property
    def total_pages(self):
        """Number of virtual pages in the managed window."""
        return self.vas_bytes // self.page_size

    def page_of(self, va):
        """Virtual page number containing virtual address ``va``."""
        return va >> self.page_shift

    def frame_of(self, pa):
        """Physical frame number containing physical address ``pa``."""
        return pa >> self.page_shift

    def page_base(self, vpn):
        """Base virtual address of virtual page ``vpn``."""
        return vpn << self.page_shift

    def align_up(self, nbytes):
        """Round ``nbytes`` up to a whole number of pages (in bytes)."""
        mask = self.page_size - 1
        return (nbytes + mask) & ~mask

    def pages_for(self, nbytes):
        """Number of pages needed to hold ``nbytes``."""
        return self.align_up(nbytes) // self.page_size


ALPHA_EB164 = Machine(
    name="EB164 (Alpha 21164 @ 266MHz)",
    page_size=8 * KB,
    phys_mem_bytes=128 * MB,
    vas_bytes=8 * GB,
    cpu_hz=266_000_000,
    io_regions=(("dma", 4 * MB),),
)
"""The paper's experimental platform."""
