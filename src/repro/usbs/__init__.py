"""The multi-volume User-Safe Backing Store (``repro.usbs``).

The paper's USBS (§6.7) guarantees paging bandwidth through a single
User-Safe Disk; this package scales that design out. A
:class:`~repro.usbs.manager.VolumeManager` owns N
:class:`~repro.usbs.volume.Volume` instances — each one a simulated
disk with its own USD/Atropos instance running as its own driver-domain
scheduling loop and its own swap partition — and partitions per-client
contracts across them:

* :mod:`repro.usbs.volume` — the volume: disk + USD + SFS partition,
  a health state (healthy/degraded/retired), and per-volume fault-plan
  attachment.
* :mod:`repro.usbs.multiswap` — :class:`MultiVolumeSwap`, the sharded
  swap backing the paged stretch drivers bind to: blok-granularity
  round-robin striping, per-volume USD streams (one guarantee per
  volume), stream selection (``slot_for``/``can_accept``), and live
  re-placement with loss containment.
* :mod:`repro.usbs.manager` — placement policies (striped, pinned —
  both deterministic under the manager's seed), aggregate admission
  control with rollback, the fault-exposure health monitor, and the
  degraded-volume drain.

The subsystem's experiment is two committed missions, run with
``python -m repro.exp sweep scale-scaling scale-failover``: aggregate
paging bandwidth scaling near-linearly from one volume to four while
the per-volume QoS split holds, and a single injected disk failure
degrading only the extents placed on that volume.
"""

from repro.usbs.manager import (PINNED, STRIPED, AdmissionError,
                                VolumeManager, placement_draw)
from repro.usbs.multiswap import FanoutChannel, MultiVolumeSwap
from repro.usbs.volume import DEGRADED, HEALTHY, RETIRED, Volume

__all__ = [
    "AdmissionError",
    "DEGRADED",
    "FanoutChannel",
    "HEALTHY",
    "MultiVolumeSwap",
    "PINNED",
    "RETIRED",
    "STRIPED",
    "Volume",
    "VolumeManager",
    "placement_draw",
]
