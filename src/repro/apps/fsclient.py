"""The Figure 9 file-system client.

"a client domain reading data from another partition on the same disk.
This client performs significant pipelining of its transaction requests
(i.e. it trades off additional buffer space against disk latency), and
so is expected to perform well. For homogeneity, its transactions are
each the same size as a page."

The client streams sequential page-sized reads from a 128 MB extent on
the file-system partition, keeping up to ``depth`` transactions
outstanding through an IO channel. It is modelled as a simulator
process: its CPU cost is negligible against 125 ms/250 ms of disk time,
and Figure 9 is about *disk* isolation.
"""

from repro.hw.disk import DiskRequest, READ
from repro.usd.iochannel import IOChannel
from repro.apps.watch import BandwidthWatcher

#: The extent the client reads, in 512-byte blocks (128 MB).
EXTENT_BLOCKS = 262144


class FileSystemClient:
    """Pipelined sequential reader on its own partition."""

    def __init__(self, system, name, qos, depth=16):
        self.system = system
        self.name = name
        self.extent = system.fs_partition.allocate_extent(EXTENT_BLOCKS)
        self.usd_client = system.usd.admit(name, qos)
        self.channel = IOChannel(system.sim, self.usd_client, depth=depth)
        self.page_blocks = system.machine.page_size // 512
        self.bytes_read = 0
        self.proc = system.sim.spawn(self._run(), name=name)
        self.watch = BandwidthWatcher(system.sim, lambda: self.bytes_read,
                                      name="%s-watch" % name)

    def _next_request(self, index):
        pages_in_extent = self.extent.nblocks // self.page_blocks
        offset = (index % pages_in_extent) * self.page_blocks
        return DiskRequest(kind=READ, lba=self.extent.start + offset,
                           nblocks=self.page_blocks, client=self.name)

    def _run(self):
        sim = self.system.sim
        index = 0
        while True:
            # Keep the pipeline full: wait for a slot, then submit.
            yield self.channel.slot()
            done = self.channel.submit(self._next_request(index))
            index += 1
            done.add_callback(self._on_complete)

    def _on_complete(self, event):
        if event.ok:
            self.bytes_read += self.system.machine.page_size
