"""A minimal extent-based file system over the USD.

The paper's Figure 9 client reads "data from another partition"; its
conclusion argues that "virtual memory techniques such as demand-paging
and memory mapped files have proved useful in the commodity systems of
the past" and that a multi-service OS must keep supporting them. This
module provides the file substrate for the memory-mapped-file stretch
driver (:mod:`repro.mm.mapped`): named, extent-allocated files whose
data operations go through a per-file USD stream — so file IO enjoys
the same QoS firewalling as paging.

Files are page-granular (like the swap files): ``read(index)`` /
``write(index)`` move one page-sized blok. There is no directory
hierarchy or byte-level API — this is the minimal substrate mmap needs,
not a POSIX filesystem.
"""

from repro.hw.disk import DiskRequest, READ, WRITE
from repro.usd.iochannel import IOChannel
from repro.usd.sfs import ExtentError

#: Transactions each file's IO channel keeps in flight.
FILE_DEPTH = 4


class File:
    """A named extent plus a QoS-negotiated USD stream."""

    def __init__(self, sim, name, extent, usd_client, machine):
        self.sim = sim
        self.name = name
        self.extent = extent
        self.machine = machine
        self.blok_blocks = machine.page_size // 512
        self.nbloks = extent.nblocks // self.blok_blocks
        if self.nbloks == 0:
            raise ExtentError("file smaller than one page")
        self.channel = IOChannel(sim, usd_client, depth=FILE_DEPTH)
        self.reads = 0
        self.writes = 0

    @property
    def nbytes(self):
        """Total file size in bytes (whole bloks)."""
        return self.nbloks * self.machine.page_size

    # -- stream selection (the swap-backing surface paged drivers use) --

    def slot_for(self, blok, kind=READ):
        """The flow-control event gating an access to ``blok``: a file
        has one stream, so every page gates on its channel."""
        return self.channel.slot()

    def can_accept(self, blok, kind=READ, reserve=1):
        """True when a speculative access to ``blok`` may be submitted
        while keeping ``reserve`` channel slots free for demand."""
        return self.channel.outstanding < self.channel.depth - reserve

    def attachments(self):
        """The USD stream this file holds (teardown inventory)."""
        return [self.channel.usd_client]

    def _lba(self, index):
        if not 0 <= index < self.nbloks:
            raise ExtentError("page %d outside file %s" % (index, self.name))
        return self.extent.start + index * self.blok_blocks

    def read(self, index):
        """Read one page of the file; returns the completion event."""
        self.reads += 1
        return self.channel.submit(DiskRequest(
            kind=READ, lba=self._lba(index), nblocks=self.blok_blocks,
            client=self.name))

    def write(self, index):
        """Write one page of the file; returns the completion event."""
        self.writes += 1
        return self.channel.submit(DiskRequest(
            kind=WRITE, lba=self._lba(index), nblocks=self.blok_blocks,
            client=self.name))


class FileSystem:
    """Create/open named files on a partition."""

    def __init__(self, sim, usd, machine, partition):
        self.sim = sim
        self.usd = usd
        self.machine = machine
        self.partition = partition
        self._files = {}

    def create(self, name, nbytes, qos):
        """Allocate a file and negotiate its USD guarantee."""
        if name in self._files:
            raise ExtentError("file %r already exists" % name)
        nbytes = self.machine.align_up(nbytes)
        extent = self.partition.allocate_extent(nbytes // 512)
        usd_client = self.usd.admit("file:%s" % name, qos)
        handle = File(self.sim, name, extent, usd_client, self.machine)
        self._files[name] = handle
        return handle

    def open(self, name):
        """Look up an existing file."""
        if name not in self._files:
            raise ExtentError("no file named %r" % name)
        return self._files[name]

    def __contains__(self, name):
        return name in self._files
