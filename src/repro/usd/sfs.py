"""The swap filesystem: partitions, extents and swap files.

§6.7: "The SFS is responsible for control operations such as allocation
of an extent (a contiguous range of blocks) for use as a swap file, and
the negotiation of Quality of Service parameters to the USD."

A :class:`Partition` is a contiguous slice of the disk; the experiments
use one partition for swap files and a distant one for the file-system
client (Figure 9: "a client domain reading data from another partition
on the same disk"). A :class:`SwapFile` is an extent plus an admitted
USD stream plus an IO channel; it exposes the page-granularity
``read(blok)`` / ``write(blok)`` operations the paged stretch driver
uses.

**Bad-block remapping**: each swap file may carry a small *spare
region* (a second extent). When a page-out fails persistently — the
USD's retry budget is exhausted, so this is a medium error, not a
glitch — the SFS remaps the blok to the next spare slot and rewrites
there: the page data is still in memory, so a write failure is fully
recoverable as long as spares remain. Read failures cannot be remapped
(the data exists nowhere else); they propagate to the stretch driver,
whose job is to contain the loss. The remap table is consulted on
every subsequent access, so a remapped blok's reads follow it to the
spare region.
"""

from repro.hw.disk import DiskRequest, READ, WRITE
from repro.obs.metrics import NULL_REGISTRY
from repro.usd.iochannel import IOChannel

#: (start, nblocks) of a disk's swap partition: the system disk's and
#: every USBS volume's.
SWAP_SPAN = (262_144, 2_097_152)


class ExtentError(Exception):
    """Partition space exhausted or invalid request."""


class Extent:
    """A contiguous range of disk blocks."""

    __slots__ = ("start", "nblocks")

    def __init__(self, start, nblocks):
        if nblocks <= 0:
            raise ExtentError("empty extent")
        self.start = start
        self.nblocks = nblocks

    @property
    def end(self):
        """One past the last block of the extent."""
        return self.start + self.nblocks

    def __repr__(self):
        return "<Extent [%d..%d)>" % (self.start, self.end)


class Partition:
    """Bump allocation of extents within a fixed block range."""

    def __init__(self, name, start, nblocks):
        self.name = name
        self.extent = Extent(start, nblocks)
        self._cursor = start

    @property
    def free_blocks(self):
        """Blocks not yet handed out by the bump allocator."""
        return self.extent.end - self._cursor

    def allocate_extent(self, nblocks):
        """Carve ``nblocks`` off the partition; raises when it cannot."""
        if nblocks <= 0:
            raise ExtentError("extent must be positive")
        if self._cursor + nblocks > self.extent.end:
            raise ExtentError(
                "partition %s: %d blocks requested, %d free"
                % (self.name, nblocks, self.free_blocks))
        extent = Extent(self._cursor, nblocks)
        self._cursor += nblocks
        return extent


class SwapFile:
    """An extent + USD stream + IO channel, addressed in bloks.

    A *blok* is ``pages_per_blok`` pages of disk blocks (one page here,
    matching the paper's paging workloads). Bloks are numbered from 0
    within the extent.
    """

    def __init__(self, sim, name, extent, usd_client, machine, depth=2,
                 spare_extent=None, metrics=None):
        self.sim = sim
        self.name = name
        self.extent = extent
        self.machine = machine
        self.blok_blocks = machine.page_size // 512
        self.nbloks = extent.nblocks // self.blok_blocks
        if self.nbloks == 0:
            raise ExtentError("extent smaller than one blok")
        self.channel = IOChannel(sim, usd_client, depth=depth)
        self.reads = 0
        self.writes = 0
        # Bad-block remapping state.
        self.spare_extent = spare_extent
        self.spare_bloks = (0 if spare_extent is None
                            else spare_extent.nblocks // self.blok_blocks)
        self.spares_used = 0
        self.remaps = 0
        self.remap_table = {}  # blok -> lba in the spare region
        metrics = metrics if metrics is not None else NULL_REGISTRY
        metrics.counter(
            "sfs_remaps_total",
            help="bloks remapped to the spare region after persistent "
                 "write failures, by swap file"
        ).read(lambda: self.remaps, swapfile=name)

    @property
    def spares_left(self):
        """Spare-region bloks still available for remapping."""
        return self.spare_bloks - self.spares_used

    # -- stream selection (shared surface with MultiVolumeSwap) -----------

    def slot_for(self, blok, kind=READ):
        """The flow-control event gating an access to ``blok``.

        A single-volume swap file has one stream, so every blok gates
        on the same channel; the multi-volume backing overrides this
        with per-shard selection. The paged drivers call this instead
        of touching ``channel`` directly.
        """
        return self.channel.slot()

    def can_accept(self, blok, kind=READ, reserve=1):
        """True when a speculative access to ``blok`` may be submitted
        while keeping ``reserve`` channel slots free for demand."""
        return self.channel.outstanding < self.channel.depth - reserve

    def attachments(self):
        """The USD streams this swap file holds (teardown inventory)."""
        return [self.channel.usd_client]

    def _lba(self, blok):
        if not 0 <= blok < self.nbloks:
            raise ExtentError("blok %d outside swap file %s" % (blok,
                                                                self.name))
        remapped = self.remap_table.get(blok)
        if remapped is not None:
            return remapped
        return self.extent.start + blok * self.blok_blocks

    def read(self, blok):
        """Page in one blok; returns the completion SimEvent.

        A persistent read failure fails the event (there is no second
        copy to remap to) — containment is the stretch driver's job.
        """
        self.reads += 1
        return self._submit(READ, blok)

    def write(self, blok):
        """Page out one blok; returns the completion SimEvent.

        A persistent write failure is absorbed here when spares remain:
        the blok is remapped to the spare region and rewritten, and the
        event only fails once spares are exhausted too.
        """
        self.writes += 1
        return self._submit(WRITE, blok)

    # -- submission with write-failure remapping ---------------------------

    def _submit(self, kind, blok):
        done = self.sim.event("sfs.%s.%s(%d)" % (self.name, kind, blok))
        inner = self.channel.submit(DiskRequest(
            kind=kind, lba=self._lba(blok), nblocks=self.blok_blocks,
            client=self.name))
        inner.add_callback(
            lambda ev, k=kind, b=blok: self._complete(ev, done, k, b))
        return done

    def _complete(self, inner, done, kind, blok):
        if inner.ok:
            done.trigger(inner._value)
            return
        exc = inner._value
        if (kind == WRITE and self.spares_left > 0
                and getattr(exc, "result", None) is not None):
            # Persistent write failure with spares available: remap and
            # rewrite. The retry budget already ruled out a transient.
            self.remap_table[blok] = (self.spare_extent.start
                                      + self.spares_used * self.blok_blocks)
            self.spares_used += 1
            self.remaps += 1
            self.sim.spawn(self._rewrite(done, blok),
                           name="sfs-remap-%s-%d" % (self.name, blok))
            return
        done.fail(exc)

    def _rewrite(self, done, blok):
        """Rewrite a remapped blok once a channel slot is free.

        Chains back through :meth:`_complete`, so a spare that is itself
        bad triggers a further remap until spares run out.
        """
        while not self.channel.can_submit:
            yield self.channel.slot()
        try:
            inner = self.channel.submit(DiskRequest(
                kind=WRITE, lba=self._lba(blok), nblocks=self.blok_blocks,
                client=self.name))
        except Exception as exc:
            # e.g. the stream departed while we waited for a slot.
            if not done.triggered:
                done.fail(exc)
            return
        inner.add_callback(
            lambda ev, b=blok: self._complete(ev, done, WRITE, b))


class SwapFileSystem:
    """Control-path object creating swap files with USD guarantees."""

    def __init__(self, sim, usd, machine, partition):
        self.sim = sim
        self.usd = usd
        self.machine = machine
        self.partition = partition
        self.swapfiles = []

    def create_swapfile(self, name, nbytes, qos, depth=2, spare_bloks=4):
        """Allocate an extent and negotiate ``qos`` with the USD.

        ``nbytes`` is rounded up to whole bloks. ``spare_bloks`` sizes
        the bad-block spare region (silently skipped when the partition
        cannot fit it — spares are an optimisation, not a guarantee).
        Raises if the partition or the USD's admission control refuses.
        """
        nbytes = self.machine.align_up(nbytes)
        nblocks = nbytes // 512
        extent = self.partition.allocate_extent(nblocks)
        spare_extent = None
        spare_blocks = spare_bloks * (self.machine.page_size // 512)
        if spare_blocks and self.partition.free_blocks >= spare_blocks:
            spare_extent = self.partition.allocate_extent(spare_blocks)
        usd_client = self.usd.admit(name, qos)
        swapfile = SwapFile(self.sim, name, extent, usd_client,
                            self.machine, depth=depth,
                            spare_extent=spare_extent,
                            metrics=getattr(self.usd, "metrics", None))
        self.swapfiles.append(swapfile)
        return swapfile
