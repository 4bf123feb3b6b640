"""Ablations: isolate each design choice the paper calls out.

* :func:`laxity` — §6.7's "short-block" problem: without laxity a
  paging client (which can never pipeline) degrades to roughly one
  transaction per period.
* :func:`rollover` — roll-over accounting "prevents an application
  deterministically exceeding its guarantee": with it, long-run usage
  stays at/below the guarantee despite non-preemptible overruns;
  without it, the overruns are free and usage exceeds the guarantee.
* :func:`crosstalk_paging` — the Figure 7 workload on the FCFS baseline:
  guarantees become meaningless and progress collapses to ~1:1:1.
* :func:`crosstalk_fs` — the Figure 9 workload on the FCFS baseline:
  the file-system client's bandwidth is no longer protected.
* :func:`external_pager` — §5's microkernel problem in miniature: a
  light, latency-sensitive client behind a shared FIFO pager sees its
  fault latency explode when a greedy client hammers the same pager;
  under per-client USD guarantees it does not.
* :func:`stream_paging` — §8's stream-paging extension: a pipelined
  mapped-file driver overlaps page-in IO with computation, and keeps
  the disk stream busy even with zero laxity.

The laxity, roll-over and crosstalk ablations each take the run they
compare against and make only the other leg. ``python -m
repro.exp.regenerate`` makes those runs once and passes them in; there
the ablations take about 6.5 s, 2.8 s of it the 10 s read loop that
laxity and crosstalk_paging share.
"""

from dataclasses import dataclass, replace
from typing import Dict

from repro.baseline.external_pager import ExternalPager, PagerRequest
from repro.exp.common import MB, run_paging_experiment
from repro.exp import fig9 as fig9_mod
from repro.hw.disk import Disk, DiskRequest, READ, WRITE
from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, Touch
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC, US
from repro.system import NemesisSystem
from repro.usd.usd import USD


# ---------------------------------------------------------------------------
# Laxity (the short-block problem)
# ---------------------------------------------------------------------------

@dataclass
class LaxityResult:
    """Per-client bandwidth with and without the laxity allowance."""

    with_laxity: Dict[str, float]      # Mbit/s per client
    without_laxity: Dict[str, float]

    def collapse_factor(self, name):
        """How much slower the client is without laxity."""
        without = self.without_laxity[name] or 1e-12
        return self.with_laxity[name] / without


def laxity(with_laxity):
    """Figure 7 workload with l=10 ms vs l=0.

    ``with_laxity`` is an l=10 ms read-loop run; the l=0 leg runs at
    its config.
    """
    without = run_paging_experiment(
        "read-loop", replace(with_laxity.config, laxity_ms=0))
    return LaxityResult(with_laxity=with_laxity.bandwidth_mbit,
                        without_laxity=without.bandwidth_mbit)


# ---------------------------------------------------------------------------
# Roll-over accounting
# ---------------------------------------------------------------------------

@dataclass
class RolloverResult:
    """Guarantee-usage fractions with and without roll-over accounting."""

    usage_with: Dict[str, float]      # fraction of guarantee actually used
    usage_without: Dict[str, float]


def _usage_fraction(result):
    """Served disk time / guaranteed disk time over the window."""
    config = result.config
    start, end = result.window
    seconds = (end - start) / SEC
    out = {}
    for app, slice_ms in zip(result.apps, config.slices_ms):
        guaranteed_ns = slice_ms * MS * seconds * 1000 / config.period_ms
        trace = result.system.usd_trace
        client = app.driver.swap.name
        served = trace.total_duration(kind="txn", client=client,
                                      start=start, end=end)
        lax = trace.total_duration(kind="lax", client=client,
                                   start=start, end=end)
        out[app.name] = (served + lax) / guaranteed_ns
    return out


def rollover(with_rollover):
    """Figure 8 workload (long ~12 ms writes against a 25 ms slice) with
    roll-over accounting on vs off.

    ``with_rollover`` is a write-loop run with roll-over, such as
    Figure 8's; the leg without runs at its config.
    """
    without = run_paging_experiment(
        "write-loop", replace(with_rollover.config, rollover=False))
    return RolloverResult(usage_with=_usage_fraction(with_rollover),
                          usage_without=_usage_fraction(without))


# ---------------------------------------------------------------------------
# Crosstalk baselines
# ---------------------------------------------------------------------------

@dataclass
class CrosstalkPagingResult:
    """Figure-7 progress ratios and bandwidth under USD vs FCFS."""

    usd_ratios: Dict[str, float]
    fcfs_ratios: Dict[str, float]
    usd_bandwidth: Dict[str, float]
    fcfs_bandwidth: Dict[str, float]


def crosstalk_paging(usd):
    """Figure 7 under the USD vs the FCFS (no-QoS) disk.

    ``usd`` is a read-loop run under the USD; the FCFS leg runs at its
    config.
    """
    fcfs = run_paging_experiment("read-loop",
                                 replace(usd.config, backing="fcfs"))
    return CrosstalkPagingResult(
        usd_ratios=usd.ratios, fcfs_ratios=fcfs.ratios,
        usd_bandwidth=usd.bandwidth_mbit, fcfs_bandwidth=fcfs.bandwidth_mbit)


@dataclass
class CrosstalkFsResult:
    """Figure-9 results under the USD and the FCFS baseline disk."""

    usd: object
    fcfs: object

    @property
    def usd_retention(self):
        """File-system bandwidth retention with USD guarantees."""
        return self.usd.retention

    @property
    def fcfs_retention(self):
        """File-system bandwidth retention on the FCFS baseline."""
        return self.fcfs.retention


def crosstalk_fs(usd):
    """Figure 9 under the USD vs FCFS. Under FCFS the pagers' slow
    mechanical writes interleave with the file-system client's stream
    at the disk's whim; the guarantee-backed retention disappears.

    ``usd`` is a Figure 9 run under the USD; the FCFS leg runs at its
    config.
    """
    fcfs = fig9_mod.run(replace(usd.config, backing="fcfs"))
    return CrosstalkFsResult(usd=usd, fcfs=fcfs)


# ---------------------------------------------------------------------------
# External pager (microkernel baseline)
# ---------------------------------------------------------------------------

@dataclass
class ExternalPagerResult:
    """Fault latencies seen by a light client under three pager setups."""

    solo_latency_ms: float          # light client, no competition
    shared_latency_ms: float        # light client behind a hammered pager
    usd_latency_ms: float           # light client with its own guarantee
    pager_cpu_ms: float             # CPU burnt by the pager, unaccounted
    greedy_clients: int = 3

    @property
    def degradation(self):
        """How much worse the shared external pager makes the client."""
        return self.shared_latency_ms / self.solo_latency_ms


def _light_client(sim, fault_fn, latencies, period=100 * MS, count=40):
    for i in range(count):
        yield sim.timeout(period)
        start = sim.now
        yield fault_fn(i)
        latencies.append(sim.now - start)


def _greedy_client(sim, fault_fn):
    i = 0
    while True:
        yield sim.timeout(50 * US)
        yield fault_fn(i)
        i += 1


def external_pager(greedy_clients=3):
    """Quantify §5: FIFO external pager vs self-paging with USD QoS.

    Several greedy applications hammer the shared pager (each fault
    costs a write-back plus a read); a light, latency-sensitive client
    faults ten times a second. Behind the shared FIFO its latency
    includes whole queues of other people's work; with its own USD
    guarantee it only ever waits out the current transaction.
    """
    page_blocks = 16

    def greedy_regions(g):
        return 1_500_000 + g * 400_000

    def run_pager(with_greedy):
        sim = Simulator()
        disk = Disk(sim)
        pager = ExternalPager(sim, disk)
        latencies = []

        def light_fault(i):
            return pager.fault(PagerRequest(
                client="light", lba=500_000 + (i % 64) * page_blocks,
                nblocks=page_blocks))

        def make_greedy_fault(g):
            base = greedy_regions(g)
            def fault(i):
                return pager.fault(PagerRequest(
                    client="greedy-%d" % g,
                    lba=base + (i % 512) * page_blocks,
                    nblocks=page_blocks, needs_writeback=True,
                    writeback_lba=base + 200_000 + (i % 512) * page_blocks))
            return fault

        sim.spawn(_light_client(sim, light_fault, latencies), name="light")
        if with_greedy:
            for g in range(greedy_clients):
                sim.spawn(_greedy_client(sim, make_greedy_fault(g)),
                          name="greedy-%d" % g)
        sim.run(8 * SEC)
        mean = sum(latencies) / max(len(latencies), 1)
        return mean / MS, pager.cpu_spent_ns / MS

    solo_ms, _ = run_pager(with_greedy=False)
    shared_ms, pager_cpu = run_pager(with_greedy=True)

    # Self-paging equivalent: every client holds its own disk
    # guarantee; there is no shared server to queue behind.
    sim = Simulator()
    disk = Disk(sim)
    usd = USD(sim, disk)
    # A latency-sensitive sporadic client picks a fine-grained period:
    # the refill wait after an idle-marked period is then at most 10 ms.
    light = usd.admit("light", QoSSpec(period_ns=10 * MS, slice_ns=2 * MS,
                                       laxity_ns=0))
    latencies = []

    def light_fault(i):
        return light.submit(DiskRequest(
            kind=READ, lba=500_000 + (i % 64) * page_blocks,
            nblocks=page_blocks, client="light"))

    sim.spawn(_light_client(sim, light_fault, latencies), name="light")
    share = 70 // greedy_clients
    for g in range(greedy_clients):
        client = usd.admit("greedy-%d" % g,
                           QoSSpec(period_ns=100 * MS,
                                   slice_ns=share * MS, laxity_ns=5 * MS))
        base = greedy_regions(g)

        def make_fault(client=client, base=base):
            def fault(i):
                return client.submit(DiskRequest(
                    kind=WRITE, lba=base + (i % 512) * page_blocks,
                    nblocks=page_blocks, client=client.name))
            return fault

        sim.spawn(_greedy_client(sim, make_fault()), name="greedy-%d" % g)
    sim.run(8 * SEC)
    usd_ms = sum(latencies) / max(len(latencies), 1) / MS

    return ExternalPagerResult(solo_latency_ms=solo_ms,
                               shared_latency_ms=shared_ms,
                               usd_latency_ms=usd_ms,
                               pager_cpu_ms=pager_cpu,
                               greedy_clients=greedy_clients)


# ---------------------------------------------------------------------------
# Stream paging (the paper's §8 extension)
# ---------------------------------------------------------------------------

@dataclass
class StreamPagingResult:
    """Elapsed ns and faults of a mapped-file scan, demand vs stream."""

    demand_ns: int
    demand_faults: int
    stream_ns: int
    stream_faults: int
    demand_nolax_ns: int      # both drivers again with zero laxity
    stream_nolax_ns: int


def _scan(depth, laxity_ms):
    """Scan a 4 MB mapped file through 8 frames at 2 ms CPU per page."""
    system = NemesisSystem()
    qos = QoSSpec(period_ns=100 * MS, slice_ns=80 * MS,
                  laxity_ns=laxity_ms * MS)
    data = system.filesystem.create("corpus", 4 * MB, qos)
    app = system.new_app("scanner", guaranteed_frames=10)
    stretch = app.new_stretch(4 * MB)
    driver = app.mmap_driver(data, frames=8, prefetch_depth=depth)
    app.bind(stretch, driver)

    def body():
        for va in stretch.pages():
            yield Touch(va, AccessKind.READ)
            yield Compute(2 * MS)

    thread = app.spawn(body())
    system.sim.run_until_triggered(thread.done, limit=600 * SEC)
    return system.now, thread.faults


def stream_paging():
    """Demand paging vs a 4-deep stream-paging pipeline, at 5 ms
    laxity and at none. Pipelining runs the scan at max(IO, CPU)
    instead of IO + CPU, so most pages never fault; without laxity it
    is what keeps the USD stream busy."""
    demand_ns, demand_faults = _scan(0, 5)
    stream_ns, stream_faults = _scan(4, 5)
    demand_nolax_ns, _ = _scan(0, 0)
    stream_nolax_ns, _ = _scan(4, 0)
    return StreamPagingResult(
        demand_ns=demand_ns, demand_faults=demand_faults,
        stream_ns=stream_ns, stream_faults=stream_faults,
        demand_nolax_ns=demand_nolax_ns, stream_nolax_ns=stream_nolax_ns)
