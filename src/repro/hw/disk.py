"""Mechanical disk model with a multi-segment read-ahead cache.

The paper's disk: "a 5400 rpm Quantum (model VP3221), 2.1Gb in size
(4,304,536 blocks with 512 bytes per block). Read caching was enabled,
but write caching was disabled (the default configuration)."

The figures depend on three service-time regimes, all of which this
model reproduces:

1. **Sequential cached reads** are fast and uniform (Figure 7: "All
   transactions in the sample given take roughly the same time; this is
   most likely due to the fact that the sequential reads are working
   well with the cache"). We model a segmented read-ahead cache: the
   drive tracks up to ``cache_segments`` sequential read streams; a read
   that continues a tracked stream is serviced at streaming rate with no
   mechanical positioning. Segments survive intervening activity by
   other streams (multi-segment caches exist precisely for interleaved
   sequential workloads), which is what keeps per-client paging reads
   uniform even though the USD interleaves clients.

2. **Writes always pay mechanical positioning** (write cache off). A
   sequential write stream still waits most of a rotation per
   transaction because the target sector passes under the head during
   command processing (Figure 8: "almost every transaction is taking on
   the order of 10ms, with some clearly taking an additional rotational
   delay ... individual transactions are separated by a small amount of
   time, hence preventing the driver from performing any transaction
   coalescing").

3. **Random positioning** costs seek (distance-dependent) plus
   rotational latency (computed from the rotation phase at the time the
   head settles, so it is deterministic yet well-spread).

The disk serves exactly one transaction at a time; the USD scheduler
(§6.7) is the single submitter and measures each transaction's duration
for its accounting.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.sim.units import MS, US

READ = "read"
WRITE = "write"

# Transaction completion statuses. The disk cannot distinguish a
# transient error from a persistent one — that judgement belongs to the
# retrying layer (the USD), exactly as with real drives.
STATUS_OK = "ok"
STATUS_IO_ERROR = "io_error"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class DiskGeometry:
    """Static description of a disk.

    The default numbers approximate the Quantum VP3221. ``seek_base`` /
    ``seek_factor`` parameterise the classic ``base + factor*sqrt(d)``
    seek curve (d in cylinders).
    """

    name: str = "Quantum VP3221"
    total_blocks: int = 4_304_536
    block_size: int = 512
    rpm: int = 5400
    sectors_per_track: int = 99
    heads: int = 16
    command_overhead_ns: int = 200 * US
    seek_base_ns: int = 1_200 * US
    seek_factor_ns: int = 200 * US      # * sqrt(cylinder distance)
    track_switch_ns: int = 800 * US     # head/track switch within a cylinder
    cache_segments: int = 8
    segment_blocks: int = 256           # 128 KB read-ahead window

    @property
    def rev_time_ns(self):
        """One full rotation, in nanoseconds."""
        return int(round(60 * 1e9 / self.rpm))

    @property
    def blocks_per_cylinder(self):
        """Blocks under all heads at one arm position."""
        return self.sectors_per_track * self.heads

    @property
    def cylinders(self):
        """Cylinders the drive's blocks span (the last may be partial)."""
        return -(-self.total_blocks // self.blocks_per_cylinder)

    @property
    def media_rate_bytes_per_ns(self):
        """Sustained media transfer rate (bytes per nanosecond)."""
        bytes_per_rev = self.sectors_per_track * self.block_size
        return bytes_per_rev / self.rev_time_ns

    def cylinder_of(self, lba):
        """Cylinder number containing logical block ``lba``."""
        return lba // self.blocks_per_cylinder

    def sector_angle(self, lba):
        """Rotational position of ``lba`` as a fraction of a revolution."""
        return (lba % self.sectors_per_track) / self.sectors_per_track

    def transfer_time_ns(self, nblocks):
        """Media transfer time for ``nblocks`` contiguous blocks."""
        return int(round(nblocks * self.block_size / self.media_rate_bytes_per_ns))

    def seek_time_ns(self, from_cyl, to_cyl):
        """Seek time between cylinders (0 if already there)."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0
        return int(self.seek_base_ns + self.seek_factor_ns * math.sqrt(distance))


QUANTUM_VP3221 = DiskGeometry()
"""The paper's disk."""


@dataclass(frozen=True)
class DiskRequest:
    """One transaction: read or write ``nblocks`` starting at ``lba``."""

    kind: str
    lba: int
    nblocks: int
    client: str = ""
    tag: int = 0

    def __post_init__(self):
        if self.kind not in (READ, WRITE):
            raise ValueError("kind must be READ or WRITE, got %r" % self.kind)
        if self.lba < 0 or self.nblocks <= 0:
            raise ValueError("bad extent lba=%d nblocks=%d" % (self.lba, self.nblocks))

    @property
    def end(self):
        """First LBA after the request's range."""
        return self.lba + self.nblocks

    @property
    def nbytes(self):
        """Bytes the request transfers."""
        return self.nblocks * 512


@dataclass(frozen=True)
class DiskResult:
    """Completion record for a transaction.

    ``status`` is :data:`STATUS_OK` for a successful transfer,
    :data:`STATUS_IO_ERROR` for a medium/transfer error, or
    :data:`STATUS_TIMEOUT` for a command that wedged and was timed out
    by the drive. Failed transactions still consumed ``duration`` of
    disk time — failures are not free, which is why retry time must be
    charged to the requesting stream.
    """

    request: DiskRequest
    start: int
    duration: int
    cached: bool
    status: str = STATUS_OK
    #: Silent-corruption marker: None for the true payload, else the
    #: corruption kind riding along a *successful* read. The transport
    #: layers never look at it — only an end-to-end checksum
    #: (:mod:`repro.integrity`) can tell the difference, exactly as
    #: with a real drive.
    corrupt: Optional[str] = None

    @property
    def ok(self):
        """Whether the transfer completed (corrupt reads included)."""
        return self.status == STATUS_OK

    @property
    def end(self):
        """Simulated time at which the transaction completed."""
        return self.start + self.duration


class _Segment:
    """One read-ahead cache segment tracking a sequential read stream."""

    __slots__ = ("next_lba", "window")

    def __init__(self, next_lba, window):
        self.next_lba = next_lba
        self.window = window

    def hit(self, req):
        """True if ``req`` continues this stream closely enough that the
        read-ahead data is in the segment."""
        return self.next_lba <= req.lba and req.end <= self.next_lba + self.window

    def overlaps(self, req):
        """True if ``req``'s range intersects the cached data
        ``[next_lba, next_lba + window)`` (used to invalidate on
        writes — a write *behind* the stream touches nothing cached)."""
        return req.end > self.next_lba and req.lba < self.next_lba + self.window


class Disk:
    """The drive: head position, rotation phase, cache segments.

    A transaction is :meth:`start`, which occupies the disk and returns
    the computed service time, then :meth:`finish` once that time has
    passed, which returns a :class:`DiskResult` (or :meth:`release`, to
    abandon it). The USD's scheduler times the service itself;
    ``transaction(request)`` is the same three as a generator, used with
    ``yield from`` inside a simulator process. The disk enforces
    one-at-a-time use: concurrent submissions are a bug in the caller
    (the USD serialises; the FCFS baseline queues).
    """

    def __init__(self, sim, geometry=QUANTUM_VP3221, injector=None,
                 corruptor=None):
        self.sim = sim
        self.geometry = geometry
        self.injector = injector    # optional repro.faults.FaultPlan
        self.corruptor = corruptor  # optional repro.faults.CorruptPlan
        self.head_cylinder = 0
        self._segments = []  # LRU order: index 0 oldest
        self._txn = None     # what start() began, while the drive is busy
        self.stats_reads = 0
        self.stats_writes = 0
        self.stats_cache_hits = 0
        self.stats_errors = 0
        self.stats_busy_ns = 0

    # -- service-time computation -----------------------------------------

    def _find_segment(self, req):
        for segment in self._segments:
            if segment.hit(req):
                return segment
        return None

    def _touch_segment(self, segment):
        self._segments.remove(segment)
        self._segments.append(segment)

    def _new_segment(self, next_lba):
        segment = _Segment(next_lba, self.geometry.segment_blocks)
        self._segments.append(segment)
        while len(self._segments) > self.geometry.cache_segments:
            self._segments.pop(0)
        return segment

    def _mechanical_time(self, req, now):
        """Positioning + transfer for an uncached access.

        Rotational latency is derived from the rotation phase when the
        head settles: deterministic, but effectively uniformly
        distributed for unsynchronised request streams.
        """
        geometry = self.geometry
        cylinder = geometry.cylinder_of(req.lba)
        seek = geometry.seek_time_ns(self.head_cylinder, cylinder)
        settle_time = now + geometry.command_overhead_ns + seek
        rev = geometry.rev_time_ns
        head_angle = (settle_time % rev) / rev
        target_angle = geometry.sector_angle(req.lba)
        wait = (target_angle - head_angle) % 1.0
        rotation = int(round(wait * rev))
        transfer = geometry.transfer_time_ns(req.nblocks)
        return geometry.command_overhead_ns + seek + rotation + transfer

    def service_time(self, req, now=None):
        """Compute (duration_ns, cached) for ``req`` without executing it.

        Exposed for analytical tests; :meth:`start` uses the same
        computation and :meth:`finish` then commits the state changes.
        """
        duration, segment = self._service(
            req, self.sim.now if now is None else now)
        return duration, segment is not None

    def _service(self, req, now):
        """(duration_ns, the cache segment a read hits or None)."""
        if req.end > self.geometry.total_blocks:
            raise ValueError("request beyond end of disk: %r" % (req,))
        if req.kind == READ:
            segment = self._find_segment(req)
            if segment is not None:
                duration = (self.geometry.command_overhead_ns
                            + self.geometry.transfer_time_ns(req.nblocks))
                return duration, segment
        return self._mechanical_time(req, now), None

    # -- execution ----------------------------------------------------------

    def start(self, req):
        """Begin ``req`` now and return its service time in ns.

        The drive is busy until :meth:`finish` (the caller lets the
        returned time pass first) or :meth:`release`. A cached read
        keeps the segment it hit: nothing else can touch the segments
        while the drive is busy, so :meth:`finish` advances that one.
        """
        if self._txn is not None:
            raise RuntimeError(
                "disk is busy: callers must serialise transactions "
                "(the USD scheduler does; so must baselines)")
        start = self.sim._now
        duration, segment = self._service(req, start)
        status = STATUS_OK
        if self.injector is not None:
            decision = self.injector.decide(req, start)
            if decision.status != STATUS_OK:
                status = decision.status
                segment = None
            duration += decision.extra_ns
        self._txn = (req, start, duration, segment, status)
        return duration

    def finish(self):
        """Complete the transaction :meth:`start` began; return its
        :class:`DiskResult`."""
        req, start, duration, segment, status = self._txn
        self._txn = None
        cached = segment is not None
        corrupt = None
        if status == STATUS_OK:
            self._commit(req, segment)
            if self.corruptor is not None:
                if req.kind == READ:
                    decision = self.corruptor.decide_read(req, start)
                    if decision is not None:
                        corrupt = decision.kind
                else:
                    self.corruptor.note_write(req, start)
        else:
            # The head still moved (the drive tried); no data moved, so
            # no cache segment is created or advanced.
            self.stats_errors += 1
            self.head_cylinder = self.geometry.cylinder_of(req.lba)
        self.stats_busy_ns += duration
        return DiskResult(request=req, start=start, duration=duration,
                          cached=cached, status=status, corrupt=corrupt)

    def release(self):
        """Abandon the transaction in flight, if any: the drive is free
        and nothing it would have done is committed or counted."""
        self._txn = None

    def transaction(self, req):
        """Generator: perform ``req``, yielding for its service time.

        Returns the :class:`DiskResult`. Use as
        ``result = yield from disk.transaction(req)`` from a process; an
        exception thrown in while it waits releases the drive.
        """
        duration = self.start(req)
        try:
            yield self.sim.timeout(duration)
        except BaseException:
            self.release()
            raise
        return self.finish()

    def _commit(self, req, segment):
        """Update head, rotation bookkeeping and cache segments; a read
        that hit ``segment`` advances it."""
        geometry = self.geometry
        if req.kind == READ:
            self.stats_reads += 1
            if segment is not None:
                self.stats_cache_hits += 1
                # The stream advances; read-ahead keeps the window full.
                segment.next_lba = req.end
                self._touch_segment(segment)
            else:
                self.head_cylinder = geometry.cylinder_of(req.end - 1)
                self._new_segment(req.end)
        else:
            self.stats_writes += 1
            self.head_cylinder = geometry.cylinder_of(req.end - 1)
            # Write cache is off; writes invalidate overlapping read
            # segments (data on media changed).
            self._segments = [s for s in self._segments if not s.overlaps(req)]
