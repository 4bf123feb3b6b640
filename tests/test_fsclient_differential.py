"""The Figure 9 file-system client against a process-driven reader.

:class:`~repro.apps.fsclient.FileSystemClient` keeps its IO channel full
from the channel's completions. ``ProcessReader`` below is the same
client written as a simulator process that waits for a channel slot
before each submission (``yield channel.slot()``), the way the client
was first modelled. Beside a paged writer, the two must give the same
simulation: Hypothesis draws the channel depth, the client's QoS and
the ``run(until=...)`` slices, and the test compares every USD trace
record, the instant each read completes with the reads then in flight
and submitted, the reads submitted as probes interleave with the
channel's first fill, the bytes each client read and the writer's
progress.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fsclient import EXTENT_BLOCKS, FileSystemClient
from repro.apps.pager_app import PagingApplication
from repro.apps.watch import BandwidthWatcher
from repro.hw.disk import DiskRequest, READ
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS
from repro.system import NemesisSystem
from repro.usd.iochannel import IOChannel

MB = 1024 * 1024
RUN_NS = 2000 * MS
WRITER_QOS = QoSSpec(period_ns=100 * MS, slice_ns=20 * MS,
                     laxity_ns=10 * MS)


class ProcessReader:
    """The file-system client as a simulator process: wait for a slot,
    submit the next sequential page read, repeat."""

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
        index = 0
        while True:
            yield self.channel.slot()
            done = self.channel.submit(self._next_request(index))
            index += 1
            done.add_callback(self._on_complete)

    def _on_complete(self, event):
        if event.ok:
            self.bytes_read += self.system.machine.page_size


def run(reader_cls, depth, qos, cuts):
    """One system: the reader, then a paged writer; ``cuts`` are the
    times ``run`` stops at before ``RUN_NS``."""
    system = NemesisSystem()
    sim = system.sim
    reader = reader_cls(system, "fsclient", qos, depth=depth)
    channel = reader.channel
    completions = []
    submit = channel.submit

    def recorded(request):
        # Registered after the channel's own callback, so it runs
        # behind the channel's completion entry and sees whether the
        # freed slot has been refilled yet.
        done = submit(request)
        done.add_callback(lambda event: completions.append(
            (sim.now, event.ok, channel.outstanding,
             reader.usd_client.transactions)))
        return done

    channel.submit = recorded
    writer = PagingApplication(system, "writer", WRITER_QOS,
                               mode="write-loop", stretch_bytes=1 * MB,
                               driver_frames=2, swap_bytes=4 * MB)
    fill = []

    def watch_fill():
        # A chain of same-instant probes, each queued by the last, that
        # interleaves with the reads filling the channel at time 0.
        fill.append(reader.usd_client.transactions)
        if len(fill) < 2 * depth + 2:
            sim.call_at(sim.now, watch_fill)

    sim.call_at(sim.now, watch_fill)
    for cut in sorted(set(cuts)):
        sim.run(until=cut)
    sim.run(until=RUN_NS)
    records = [(e.time, e.kind, e.client, e.duration,
                tuple(sorted(e.info.items()))) for e in system.usd_trace]
    return {"records": records, "completions": completions, "fill": fill,
            "bytes_read": reader.bytes_read,
            "writer_bytes": writer.bytes_processed}


@settings(max_examples=25, deadline=None)
@given(depth=st.integers(1, 16),
       period_ms=st.sampled_from((25, 50, 100, 250)),
       share=st.sampled_from((0.1, 0.3, 0.5, 0.7)),
       laxity_ms=st.integers(0, 4),
       extra=st.booleans(),
       cuts=st.lists(st.integers(1, RUN_NS - 1), max_size=12))
def test_client_matches_the_process_reader(depth, period_ms, share,
                                           laxity_ms, extra, cuts):
    period = period_ms * MS
    qos = QoSSpec(period_ns=period, slice_ns=int(period * share),
                  extra=extra, laxity_ns=min(laxity_ms * MS, period))
    expected = run(ProcessReader, depth, qos, cuts)
    actual = run(FileSystemClient, depth, qos, cuts)
    assert expected["completions"]
    for key in ("records", "completions", "fill", "bytes_read",
                "writer_bytes"):
        assert actual[key] == expected[key], key
