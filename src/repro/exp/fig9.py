"""Figure 9: file-system isolation.

"The final experiment presented here adds another factor to the
equation: a client domain reading data from another partition on the
same disk. This client performs significant pipelining ... The
file-system client is guaranteed 50% of the disk (i.e. 125ms per
250ms). It is first run on its own ... Subsequently it was run again,
this time concurrently with two paging applications having 10% and 20%
guarantees respectively. ... the throughput observed by the file-system
client remains almost exactly the same despite the addition of two
heavily paging applications."

``run()`` performs both runs (solo, contended) on identical fresh
systems and reports both bandwidths plus their ratio. The crosstalk
ablation reuses this with the FCFS backing to show the contrast.

Expected runtime: under a second; ``python -m repro.exp.regenerate``
runs it.
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.apps.fsclient import FileSystemClient
from repro.apps.pager_app import PagingApplication
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024


@dataclass(frozen=True)
class Fig9Config:
    """Workload knobs: file-system and pager guarantees, sizes, timing."""

    period_ms: int = 250
    fs_slice_ms: int = 125
    fs_depth: int = 16
    fs_laxity_ms: int = 2
    pager_slices_ms: Tuple[int, ...] = (50, 25)   # 20% and 10%
    pager_laxity_ms: int = 10
    stretch_bytes: int = 1 * MB
    driver_frames: int = 2
    swap_bytes: int = 4 * MB
    settle_sec: float = 3.0
    measure_sec: float = 20.0
    backing: str = "usd"

    def fs_qos(self):
        """Disk guarantee for the file-system client."""
        return QoSSpec(period_ns=self.period_ms * MS,
                       slice_ns=self.fs_slice_ms * MS,
                       extra=False, laxity_ns=self.fs_laxity_ms * MS)

    def pager_qos(self, slice_ms):
        """Disk guarantee for one paging client."""
        return QoSSpec(period_ns=self.period_ms * MS,
                       slice_ns=slice_ms * MS, extra=False,
                       laxity_ns=self.pager_laxity_ms * MS)


@dataclass
class Fig9Result:
    """Solo vs contended file-system bandwidth plus pager throughput."""

    config: Fig9Config
    solo_mbit: float
    contended_mbit: float
    pager_mbit: Dict[str, float]
    systems: tuple = field(repr=False, default=())

    @property
    def retention(self):
        """Contended / solo bandwidth (paper: ~1.0)."""
        return self.contended_mbit / self.solo_mbit if self.solo_mbit else 0.0


def _measure_fs(system, config, with_pagers):
    fs = FileSystemClient(system, "fsclient", config.fs_qos(),
                          depth=config.fs_depth)
    pagers = []
    if with_pagers:
        for slice_ms in config.pager_slices_ms:
            share = 100 * slice_ms // config.period_ms
            pagers.append(PagingApplication(
                system, "pager-%d%%" % share, config.pager_qos(slice_ms),
                mode="write-loop", stretch_bytes=config.stretch_bytes,
                driver_frames=config.driver_frames,
                swap_bytes=config.swap_bytes))
    system.run_for(int(config.settle_sec * SEC))
    start_bytes = fs.bytes_read
    pager_start = {p.name: p.bytes_processed for p in pagers}
    system.run_for(int(config.measure_sec * SEC))
    fs_mbit = (fs.bytes_read - start_bytes) * 8 / 1e6 / config.measure_sec
    pager_mbit = {
        p.name: (p.bytes_processed - pager_start[p.name]) * 8 / 1e6
        / config.measure_sec
        for p in pagers}
    return fs_mbit, pager_mbit


def run(config=Fig9Config()):
    """Both runs on fresh systems; returns a Fig9Result."""
    solo_system = NemesisSystem(backing=config.backing)
    solo_mbit, _ = _measure_fs(solo_system, config, with_pagers=False)
    contended_system = NemesisSystem(backing=config.backing)
    contended_mbit, pager_mbit = _measure_fs(contended_system, config,
                                             with_pagers=True)
    return Fig9Result(config=config, solo_mbit=solo_mbit,
                      contended_mbit=contended_mbit, pager_mbit=pager_mbit,
                      systems=(solo_system, contended_system))
