"""One backing-store volume: a disk, its USD, and its swap partition.

The paper's USBS (§6.7) binds the swap filesystem to *one* User-Safe
Disk. A :class:`Volume` packages that unit so it can be replicated: a
simulated :class:`~repro.hw.disk.Disk`, a
:class:`~repro.usd.usd.USD` whose Atropos instance runs as its own
driver-domain scheduling loop (named per volume, so its metrics and
trace records are distinguishable), a swap
:class:`~repro.usd.sfs.Partition`, and the
:class:`~repro.usd.sfs.SwapFileSystem` that allocates extents on it.

Volumes carry a health state driven by the fault plane:

* ``HEALTHY`` — accepts new extents; the placement policies use it.
* ``DEGRADED`` — the fault plane marked the disk failing; the
  :class:`~repro.usbs.manager.VolumeManager` drains its extents onto
  healthy volumes and stops placing new ones here. IO to not-yet-drained
  bloks still flows (with retries) — degraded, not dead.
* ``RETIRED`` — every extent has been drained or written off.

Fault plans attach *per volume* (each volume has its own disk and its
own LBA space), so a storm on one spindle cannot, by construction,
touch transactions on another — the multi-volume analogue of the
paper's single-disk crosstalk isolation.
"""

from repro.hw.disk import Disk, QUANTUM_VP3221
from repro.obs.metrics import NULL_REGISTRY
from repro.usd.sfs import SWAP_SPAN, Partition, SwapFileSystem
from repro.usd.usd import USD

#: Health states (see module docstring).
HEALTHY = "healthy"
DEGRADED = "degraded"
RETIRED = "retired"

#: Numeric encoding of health for the ``usbs_volume_health`` gauge.
_HEALTH_LEVEL = {HEALTHY: 2, DEGRADED: 1, RETIRED: 0}


class Volume:
    """One disk + USD + swap partition, with a health state.

    Construction mirrors what :class:`~repro.system.NemesisSystem` does
    for the primary disk, but namespaced per volume: the Atropos
    instance is called ``usd-vol<N>`` so per-volume scheduling metrics
    (``sched_served_ns_total{sched="usd-vol2",...}``) stay separable.
    """

    def __init__(self, sim, index, machine, geometry=QUANTUM_VP3221,
                 metrics=None, trace=None, rollover=True):
        self.sim = sim
        self.index = index
        self.name = "vol%d" % index
        self.machine = machine
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.disk = Disk(sim, geometry)
        self.usd = USD(sim, self.disk, trace=trace, rollover=rollover,
                       metrics=self.metrics, name="usd-%s" % self.name)
        self.partition = Partition("swap-%s" % self.name, *SWAP_SPAN)
        self.sfs = SwapFileSystem(sim, self.usd, machine, self.partition)
        self.state = HEALTHY
        self.metrics.gauge(
            "usbs_volume_health",
            help="volume health: 2 healthy, 1 degraded, 0 retired"
        ).read(lambda: _HEALTH_LEVEL[self.state], volume=self.name)

    # -- health ------------------------------------------------------------

    @property
    def healthy(self):
        """True while the placement policies may use this volume."""
        return self.state == HEALTHY

    def set_state(self, state):
        """Transition the health state (the exported gauge reads it)."""
        if state not in _HEALTH_LEVEL:
            raise ValueError("unknown volume state %r" % (state,))
        self.state = state

    # -- fault plane -------------------------------------------------------

    def install_fault_plan(self, plan):
        """Attach a fresh disk-scoped :class:`~repro.faults.FaultPlan`.

        Each volume owns its disk, so plans are volume-scoped by
        construction; ``None`` heals the disk.
        """
        self.disk.injector = (None if plan is None
                              else plan.bind(self.metrics))

    def fault_exposure(self):
        """Faults injected into this volume's disk so far.

        This is the signal the manager's health monitor watches: a
        volume whose exposure climbs fast is marked failing.
        """
        injector = self.disk.injector
        return injector.injected if injector is not None else 0

    def install_corruption_plan(self, plan):
        """Attach a fresh disk-scoped :class:`~repro.faults.CorruptPlan`.

        Same per-volume scoping as :meth:`install_fault_plan`: silent
        corruption on one spindle cannot touch another's transactions
        (and never trips the exposure-based health monitor — only the
        integrity plane's detections can escalate a silently-failing
        volume). ``None`` heals the disk.
        """
        self.disk.corruptor = (None if plan is None
                               else plan.bind(self.metrics))

    def corruption_exposure(self):
        """Silent corruptions injected into this volume's reads so far
        — escalation evidence, parallel to :meth:`fault_exposure` (but
        invisible to the health monitor: silence is the point; only
        the integrity plane's detections can surface it)."""
        corruptor = self.disk.corruptor
        return corruptor.injected if corruptor is not None else 0

    # -- capacity ----------------------------------------------------------

    @property
    def admitted_share(self):
        """Sum of guaranteed disk shares currently admitted here."""
        return self.usd.sched.admitted_share()

    @property
    def free_share(self):
        """Guaranteeable disk share still unallocated on this volume."""
        return max(0.0, 1.0 - self.admitted_share)

    @property
    def free_blocks(self):
        """Unallocated blocks left in the swap partition."""
        return self.partition.free_blocks

    def __repr__(self):
        return "<Volume %s %s share=%.2f>" % (self.name, self.state,
                                              self.admitted_share)
