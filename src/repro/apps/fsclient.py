"""The Figure 9 file-system client.

"a client domain reading data from another partition on the same disk.
This client performs significant pipelining of its transaction requests
(i.e. it trades off additional buffer space against disk latency), and
so is expected to perform well. For homogeneity, its transactions are
each the same size as a page."

The client streams sequential page-sized reads from a 128 MB extent on
the file-system partition, keeping up to ``depth`` transactions
outstanding through an IO channel. It is modelled as heap callbacks,
not as a domain or a simulator process: its CPU cost is negligible
against 125 ms/250 ms of disk time, and Figure 9 is about *disk*
isolation. Each completion frees a slot, and the client submits its
next read one same-instant hop later, in the channel's completion entry
itself when nothing else is due then
(:meth:`~repro.sim.core.Simulator._run_ahead`).
"""

from repro.hw.disk import DiskRequest, READ
from repro.usd.iochannel import IOChannel
from repro.apps.watch import BandwidthWatcher

#: The extent the client reads, in 512-byte blocks (128 MB).
EXTENT_BLOCKS = 262144


class FileSystemClient:
    """Pipelined sequential reader on its own partition.

    The client keeps the channel full. Its constructor pushes one entry,
    and the first read is submitted one same-instant hop after it; each
    further read follows one hop after the last while a slot is free,
    and once the channel is full, the next read waits for a completion
    (:meth:`_on_complete`). A hop runs inline when nothing else is due
    at its instant, and is otherwise one heap entry queued behind
    whatever is, so the reads enter the USD at the instants and in the
    order a process that waited for a channel slot before each
    submission would give them.
    """

    def __init__(self, system, name, qos, depth=16):
        self.system = system
        self.name = name
        self.extent = system.fs_partition.allocate_extent(EXTENT_BLOCKS)
        self.usd_client = system.usd.admit(name, qos)
        self.channel = IOChannel(system.sim, self.usd_client, depth=depth,
                                 on_complete=self._on_complete)
        self.page_size = system.machine.page_size
        self.page_blocks = self.page_size // 512
        self._pages = self.extent.nblocks // self.page_blocks
        self.bytes_read = 0
        self._index = 0          # the next read's page in the extent
        self._full = False       # waiting for a completion to free a slot
        self._fill_cb = self._fill
        system.sim._schedule(0, self._hop)
        self.watch = BandwidthWatcher(system.sim, lambda: self.bytes_read,
                                      name="%s-watch" % name)

    def _next_request(self, index):
        offset = (index % self._pages) * self.page_blocks
        return DiskRequest(kind=READ, lba=self.extent.start + offset,
                           nblocks=self.page_blocks, client=self.name)

    def _hop(self):
        """Submit the next read at this instant, after the entries
        already queued for it (inline if there are none)."""
        sim = self.system.sim
        if sim._run_ahead(sim._now):
            self._fill()
        else:
            sim._schedule(0, self._fill_cb)

    def _fill(self):
        """Submit reads until the channel is full, one hop apart."""
        channel = self.channel
        sim = self.system.sim
        while True:
            channel.submit(self._next_request(self._index))
            self._index += 1
            if not channel.can_submit:
                self._full = True
                return
            if not sim._run_ahead(sim._now):
                sim._schedule(0, self._fill_cb)
                return

    def _on_complete(self, event):
        """The channel's completion hook: count the bytes, and if the
        channel was full, submit the next read one hop later."""
        if event.ok:
            self.bytes_read += self.page_size
        if self._full:
            self._full = False
            self._hop()
