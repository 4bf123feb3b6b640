"""Shared experiment plumbing for the paging figures.

Figures 7 and 8 share everything except the stretch-driver variant and
the access pattern; :func:`run_paging_experiment` runs either. The
paper's parameters are the defaults; EXPERIMENTS.md's runs
(:mod:`repro.exp.regenerate`) scale the stretch down with
:func:`small_config` (the steady-state behaviour is identical, the
simulated populate phase just finishes sooner — noted there).
"""

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.apps.pager_app import PagingApplication
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024


@dataclass(frozen=True)
class PagingConfig:
    """Parameters of the §7.2 paging experiments.

    Defaults are the paper's: three clients guaranteed 25, 50 and 100 ms
    per 250 ms ("the same period is used in each case to make the
    results easier to understand"), nobody slack-eligible, laxity 10 ms,
    16 KB of physical memory (2 frames) and 4 MB of virtual per app,
    16 MB swap files.
    """

    period_ms: int = 250
    slices_ms: Tuple[int, ...] = (100, 50, 25)
    laxity_ms: int = 10
    slack_eligible: bool = False
    stretch_bytes: int = 4 * MB
    driver_frames: int = 2
    swap_bytes: int = 16 * MB
    settle_sec: float = 5.0
    measure_sec: float = 30.0
    backing: str = "usd"
    rollover: bool = True
    populate_limit_sec: float = 2000.0

    def qos(self, slice_ms):
        """Build the QoS spec for one client's disk guarantee."""
        return QoSSpec(period_ns=self.period_ms * MS,
                       slice_ns=slice_ms * MS,
                       extra=self.slack_eligible,
                       laxity_ns=self.laxity_ms * MS)

    def app_name(self, slice_ms):
        """Name clients by their share, e.g. ``pager-25%``."""
        share = 100 * slice_ms // self.period_ms
        return "pager-%d%%" % share


@dataclass
class PagingResult:
    """Everything the figure shows, plus supporting statistics."""

    config: PagingConfig
    mode: str
    window: Tuple[int, int]
    bandwidth_mbit: Dict[str, float]
    ratios: Dict[str, float]           # normalised to the smallest share
    txn_stats: Dict[str, Dict[str, float]]
    max_lax_ms: float
    system: object = field(repr=False, default=None)
    apps: List[PagingApplication] = field(repr=False, default_factory=list)

    @property
    def names(self):
        """Client names in guarantee order."""
        return list(self.bandwidth_mbit)


def run_paging_experiment(mode, config=PagingConfig()):
    """Run the Figure 7 (``"read-loop"``) / Figure 8 (``"write-loop"``)
    workload and measure sustained bandwidth per client.

    Returns a :class:`PagingResult`; ``result.system.usd_trace`` holds
    the full scheduler trace for the bottom plots.
    """
    system = NemesisSystem(backing=config.backing, rollover=config.rollover)
    apps = []
    for slice_ms in config.slices_ms:
        apps.append(PagingApplication(
            system, config.app_name(slice_ms), config.qos(slice_ms),
            mode=mode, stretch_bytes=config.stretch_bytes,
            driver_frames=config.driver_frames,
            swap_bytes=config.swap_bytes))
    all_populated = system.sim.all_of([app.populated for app in apps])
    system.sim.run_until_triggered(
        all_populated, limit=int(config.populate_limit_sec * SEC))
    system.run_for(int(config.settle_sec * SEC))
    start = system.now
    begin_counts = {app.name: app.bytes_processed for app in apps}
    system.run_for(int(config.measure_sec * SEC))
    end = system.now
    seconds = (end - start) / SEC
    bandwidth = {}
    for app in apps:
        processed = app.bytes_processed - begin_counts[app.name]
        bandwidth[app.name] = processed * 8 / 1e6 / seconds
    smallest = config.app_name(min(config.slices_ms))
    base = bandwidth[smallest] or 1e-12
    ratios = {name: value / base for name, value in bandwidth.items()}
    txn_stats = {}
    max_lax = 0.0
    trace = system.usd_trace
    if trace is not None:
        for app in apps:
            client = app.driver.swap.name
            txns = trace.filter(kind="txn", client=client, start=start,
                                end=end)
            total = sum(t.duration for t in txns)
            txn_stats[app.name] = {
                "count": len(txns),
                "mean_ms": (total / len(txns) / MS) if txns else 0.0,
                "service_ms": total / MS,
                "lax_ms": trace.total_duration(kind="lax", client=client,
                                               start=start, end=end) / MS,
            }
            laxes = trace.filter(kind="lax", client=client)
            if laxes:
                max_lax = max(max_lax, max(e.duration for e in laxes) / MS)
    return PagingResult(config=config, mode=mode, window=(start, end),
                        bandwidth_mbit=bandwidth, ratios=ratios,
                        txn_stats=txn_stats, max_lax_ms=max_lax,
                        system=system, apps=apps)


def small_config(**overrides):
    """The scaled-down (benchmark-scale) configuration EXPERIMENTS.md uses.

    1 MB stretches and shorter windows: identical steady-state
    behaviour, much shorter populate phase.
    """
    base = PagingConfig(stretch_bytes=1 * MB, swap_bytes=4 * MB,
                        settle_sec=2.0, measure_sec=15.0)
    return replace(base, **overrides)
