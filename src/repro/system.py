"""`NemesisSystem`: one-stop construction of a simulated Nemesis machine.

This is the main public entry point. It wires together the simulator,
the hardware models, the kernel, the centralised allocators (stretch,
frames), the USD/SFS, and exposes :meth:`new_app` to build self-paging
application domains. Example::

    from repro import NemesisSystem, QoSSpec, MS, SEC

    system = NemesisSystem()
    app = system.new_app("player", guaranteed_frames=32)
    stretch = app.new_stretch(4 * 1024 * 1024)
    driver = app.paged_driver(
        frames=2, swap_bytes=16 * 1024 * 1024,
        qos=QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS))
    app.bind(stretch, driver)
    app.spawn(sequential_reader(app, stretch))
    system.run(10 * SEC)

Everything is configurable (machine, disk geometry, cost model, CPU
scheduling model, page-table implementation) with defaults matching the
paper's testbed.
"""

from repro.hw.cpu import CostMeter, CostModel
from repro.hw.disk import Disk, QUANTUM_VP3221
from repro.hw.mmu import MMU
from repro.hw.pagetable import GuardedPageTable, LinearPageTable
from repro.hw.physmem import PhysicalMemory
from repro.hw.platform import ALPHA_EB164
from repro.kernel.cpu import AtroposCpu, FifoCpu, SmpAtroposCpu, UnlimitedCpu
from repro.kernel.kernel import Kernel
from repro.mm.frames import FramesAllocator
from repro.mm.mmentry import MMEntry
from repro.mm.nailed import NailedDriver
from repro.mm.paged import ForgetfulPagedDriver, PagedDriver
from repro.mm.physical import PhysicalDriver
from repro.mm.protdom import ProtectionDomain
from repro.mm.ramtab import RamTab
from repro.mm.stretch_allocator import StretchAllocator
from repro.mm.translation import TranslationSystem
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.sim.core import Simulator
from repro.sim.trace import Trace
from repro.sim.units import MS, SEC
from repro.usd.sfs import Partition, SwapFileSystem
from repro.usd.usd import USD

_PAGETABLES = {"linear": LinearPageTable, "guarded": GuardedPageTable}
_CPUS = {"fifo": FifoCpu, "atropos": AtroposCpu, "unlimited": UnlimitedCpu}


class App:
    """Convenience bundle for one self-paging application domain."""

    def __init__(self, system, domain, frames_client):
        self.system = system
        self.domain = domain
        self.frames = frames_client
        self.mmentry = MMEntry(domain, frames_client, system.pagetable,
                               fault_timeout=system.fault_timeout,
                               behavior=system.behavior_injector)
        self.drivers = []
        self.stretches = []

    @property
    def name(self):
        return self.domain.name

    def new_stretch(self, nbytes, start=None):
        """Allocate a stretch owned by this app (rwm rights)."""
        stretch = self.system.stretch_allocator.new(self.domain, nbytes,
                                                    start=start)
        self.stretches.append(stretch)
        return stretch

    def bind(self, stretch, driver, priority=None):
        """Bind a stretch to a driver through the MMEntry.

        ``priority`` (optional int, lower pays first) declares where
        the driver sits in the domain's revocation order — the
        multi-pager knob of the regimes subsystem.
        """
        return self.mmentry.bind(stretch, driver, priority=priority)

    def take_guaranteed_frames(self):
        """The §6.2 idiom: time-sensitive apps grab every guaranteed
        frame at initialisation. Returns the PFNs."""
        want = self.frames.guaranteed - self.frames.allocated
        return self.frames.alloc_now(want) if want > 0 else []

    # -- driver factories ---------------------------------------------------

    def physical_driver(self, frames=0, name=None):
        driver = PhysicalDriver(name or "%s-phys" % self.name, self.domain,
                                self.frames, self.system.translation)
        if frames:
            driver.provide_frames(frames)
        self.drivers.append(driver)
        return driver

    def nailed_driver(self, name=None):
        driver = NailedDriver(name or "%s-nailed" % self.name, self.domain,
                              self.frames, self.system.translation)
        self.drivers.append(driver)
        return driver

    def seg_driver(self, name=None):
        """A segmentation-regime driver (see :mod:`repro.regimes`).

        Backs each bound stretch with one contiguous frame extent and
        a base+limit translation entry instead of per-page mappings.
        Attaches the system-wide :class:`SegTranslation` on first use.
        """
        from repro.regimes.seg import SegDriver

        self.system.ensure_seg_translation()
        driver = SegDriver(name or "%s-seg" % self.name, self.domain,
                           self.frames, self.system.translation)
        self.drivers.append(driver)
        return driver

    def _create_swap(self, name, swap_bytes, qos, depth, store, placement):
        """Allocate backing for a paged driver from the chosen store.

        ``store=None``/``"sfs"`` is the paper's single-disk SFS;
        ``"usbs"`` places a sharded backing through the system's
        :class:`~repro.usbs.manager.VolumeManager` (the system must
        have been built with ``volumes >= 1``), with ``placement``
        selecting striped/pinned (None: the manager's default).
        """
        if store in (None, "sfs"):
            swap = self.system.sfs.create_swapfile(name, swap_bytes, qos,
                                                   depth=depth)
        elif store == "usbs":
            if self.system.usbs is None:
                raise ValueError(
                    "store='usbs' needs NemesisSystem(volumes=N >= 1)")
            swap = self.system.usbs.create_backing(
                name, swap_bytes, qos, placement=placement, depth=depth)
        else:
            raise ValueError("store must be None, 'sfs' or 'usbs'")
        return self.system._wrap_swap(swap)

    def paged_driver(self, frames, swap_bytes, qos, forgetful=False,
                     name=None, depth=2, policy="fifo", store=None,
                     placement=None):
        """A paged driver with its own swap file (QoS negotiated now).

        ``policy`` selects the eviction policy: ``"fifo"`` (the paper's
        pure demand scheme) or ``"clock"`` (second-chance via the
        referenced bits). ``store``/``placement`` select the backing
        store (see :meth:`_create_swap`).
        """
        name = name or "%s-paged" % self.name
        swap = self._create_swap(name, swap_bytes, qos, depth, store,
                                 placement)
        if forgetful:
            cls = ForgetfulPagedDriver
        elif policy == "clock":
            from repro.mm.clockdriver import ClockPagedDriver

            cls = ClockPagedDriver
        elif policy == "fifo":
            cls = PagedDriver
        else:
            raise ValueError("policy must be 'fifo' or 'clock'")
        driver = cls(name, self.domain, self.frames,
                     self.system.translation, swap)
        if frames:
            driver.provide_frames(frames)
        self.drivers.append(driver)
        return driver

    def stream_driver(self, frames, swap_bytes, qos, prefetch_depth=4,
                      name=None, store=None, placement=None):
        """A stream-paging driver (the paper's §8 pipelining extension):
        a paged driver that detects sequential faults and prefetches
        ahead through a deeper IO channel. Over a multi-volume backing
        (``store="usbs"``) the pipeline is what converts volume count
        into bandwidth: sequential bloks stripe round-robin, so depth-V
        read-ahead keeps V spindles busy at once."""
        from repro.mm.stream import StreamPagedDriver

        name = name or "%s-stream" % self.name
        swap = self._create_swap(name, swap_bytes, qos,
                                 prefetch_depth + 2, store, placement)
        driver = StreamPagedDriver(name, self.domain, self.frames,
                                   self.system.translation, swap,
                                   prefetch_depth=prefetch_depth)
        if frames:
            driver.provide_frames(frames)
        self.drivers.append(driver)
        return driver

    def mmap_driver(self, file, frames, prefetch_depth=4, name=None):
        """Map a file (from ``system.filesystem``) behind a stretch.

        Returns a :class:`~repro.mm.mapped.MappedFileDriver`; bind it to
        a stretch no larger than the file. Dirty pages write back on
        eviction; call ``yield from driver.sync()`` from a thread for
        msync semantics.
        """
        from repro.mm.mapped import MappedFileDriver

        driver = MappedFileDriver(name or "%s-mmap-%s" % (self.name,
                                                            file.name),
                                  self.domain, self.frames,
                                  self.system.translation, file,
                                  prefetch_depth=prefetch_depth)
        if frames:
            driver.provide_frames(frames)
        self.drivers.append(driver)
        return driver

    # -- threads -----------------------------------------------------------------

    def spawn(self, gen, name=""):
        """Add a user-level thread to the domain."""
        return self.domain.add_thread(gen, name=name)

    # -- lifecycle -----------------------------------------------------------------

    def shutdown(self):
        """Orderly teardown of the whole application.

        Kills the domain, force-unmaps and returns every owned frame,
        destroys the app's stretches, and releases its CPU share and
        USD guarantees so admission control can re-grant them. Dirty
        pages are *not* written back (this is exit, not suspend — call
        a driver's ``sync()`` first if the data matters).
        """
        system = self.system
        self.domain.kill("shutdown")
        # Release the domain's CPU share so admission control can
        # re-grant it. The FIFO and unlimited models hold no contract.
        cpu_depart = getattr(system.cpu, "depart_account", None)
        if cpu_depart is not None:
            cpu_depart(self.domain.cpu, discard=True)
        system.frames_allocator.depart(self.frames)
        for stretch in list(self.stretches):
            if not stretch.destroyed:
                system.stretch_allocator.destroy(stretch)
        self.stretches.clear()
        for driver in self.drivers:
            swap = getattr(driver, "swap", None)
            if swap is None:
                continue
            attachments = getattr(swap, "attachments", None)
            clients = (attachments() if attachments is not None
                       else [swap.channel.usd_client])
            for client in clients:
                # A multi-volume swap spans several USDs; each client
                # records the service it was admitted to. Single-disk
                # clients fall back to the system USD.
                service = getattr(client, "usd", None) or system.usd
                if client in service.clients:
                    # The domain is dead: nobody will collect queued
                    # completions, so discard them (their events fail).
                    service.depart(client, discard=True)
            # An integrity wrapper proxies the real backing; identity
            # checks (and the scrubber registry) go by the inner object.
            inner = getattr(swap, "inner", swap)
            scrubber = system.scrubbers.pop(inner.name, None)
            if scrubber is not None:
                scrubber.stop()
            if system.usbs is not None and inner in system.usbs.backings:
                # A dead app's backing must not take part in future
                # volume drains (its streams are gone).
                system.usbs.backings.remove(inner)
        if self in system.apps:
            system.apps.remove(self)


class NemesisSystem:
    """A complete simulated machine running Nemesis."""

    def __init__(self, machine=ALPHA_EB164, geometry=QUANTUM_VP3221,
                 cost_model=None, pagetable="linear", cpu="fifo",
                 backing="usd",
                 rollover=True, slack_enabled=True, usd_trace=True,
                 system_reserve_frames=16, revocation_timeout=100 * MS,
                 max_revocation_rounds=3,
                 swap_partition=(262144, 2_097_152),
                 fs_partition=(3_500_000, 786_432), metrics=True,
                 fault_plan=None, behavior_plan=None, corrupt_plan=None,
                 fault_timeout=30 * SEC, volumes=0,
                 volume_placement="striped", volume_seed=1999,
                 volume_geometry=None, volume_monitor=True,
                 integrity=False, integrity_scrub=True,
                 scrub_interval=20 * MS, integrity_threshold=4,
                 cpus=0, placement="ffd", place_seed=1999):
        # Observability first: every subsystem below takes the registry.
        self.metrics = MetricsRegistry(enabled=metrics)
        self.sim = Simulator(metrics=self.metrics)
        self.span_trace = Trace("spans")
        self.spans = SpanTracer(self.sim, trace=self.span_trace,
                                metrics=self.metrics)
        self.machine = machine
        self.meter = CostMeter(cost_model or CostModel())
        # Hardware.
        self.physmem = PhysicalMemory(machine)
        if pagetable not in _PAGETABLES:
            raise ValueError("pagetable must be one of %s" % list(_PAGETABLES))
        self.pagetable = _PAGETABLES[pagetable](machine, self.meter)
        self.mmu = MMU(machine, self.pagetable, self.meter)
        self.disk = Disk(self.sim, geometry)
        # Fault injection (None = a healthy disk) and the per-fault
        # resolution watchdog that keeps a wedged disk from wedging a
        # domain (None = disabled).
        self.fault_injector = None
        self.behavior_injector = None
        self.corruption_injector = None
        self.fault_timeout = fault_timeout
        if fault_plan is not None:
            self.install_fault_plan(fault_plan)
        if corrupt_plan is not None:
            self.install_corruption_plan(corrupt_plan)
        # The integrity plane: when enabled, every paged/stream swap
        # backing is wrapped in a verifying ChecksummedSwap, each with
        # a background scrubber on the owner's own streams.
        self.integrity_enabled = bool(integrity)
        self.integrity_scrub = bool(integrity_scrub)
        self.scrub_interval = scrub_interval
        self.integrity_threshold = integrity_threshold
        self.scrubbers = {}         # backing name -> Scrubber
        self.integrity_swaps = []   # every ChecksummedSwap built
        self._escalator = None
        # Kernel + CPU. `cpus` (or a Machine with cpus > 1) selects the
        # SMP platform: one Atropos run queue per core, with domain
        # placement by `placement`/`place_seed` (see repro.place). The
        # default (cpus=0 on a uniprocessor machine) keeps the classic
        # single-CPU models bit-identical.
        smp_cpus = cpus or (machine.cpus if machine.cpus > 1 else 0)
        if smp_cpus:
            self.cpu = SmpAtroposCpu(self.sim, cpus=smp_cpus,
                                     placement=placement, seed=place_seed,
                                     metrics=self.metrics)
        else:
            if cpu not in _CPUS:
                raise ValueError("cpu must be one of %s" % list(_CPUS))
            self.cpu = _CPUS[cpu](self.sim)
        self.kernel = Kernel(self.sim, machine, self.mmu, self.meter,
                             self.cpu, metrics=self.metrics,
                             spans=self.spans)
        # System-domain services.
        self.ramtab = RamTab(self.physmem.total_frames,
                             machine.page_shift)
        self.translation = TranslationSystem(machine, self.pagetable,
                                             self.mmu, self.ramtab,
                                             self.meter)
        self.stretch_allocator = StretchAllocator(machine, self.translation)
        self.frames_trace = Trace("frames")
        self.frames_allocator = FramesAllocator(
            self.sim, self.physmem, self.ramtab, self.translation,
            trace=self.frames_trace, revocation_timeout=revocation_timeout,
            max_revocation_rounds=max_revocation_rounds,
            system_reserve=system_reserve_frames, metrics=self.metrics,
            spans=self.spans)
        # Backing store: the USD, or the FCFS baseline for the
        # crosstalk ablations (same admit/submit interface).
        self.usd_trace = Trace("usd") if usd_trace else None
        if backing == "usd":
            self.usd = USD(self.sim, self.disk, trace=self.usd_trace,
                           rollover=rollover, slack_enabled=slack_enabled,
                           metrics=self.metrics)
        elif backing == "fcfs":
            from repro.baseline.fcfs_disk import FcfsDiskService

            self.usd = FcfsDiskService(self.sim, self.disk,
                                       trace=self.usd_trace)
        else:
            raise ValueError("backing must be 'usd' or 'fcfs'")
        self.swap_partition = Partition("swap", *swap_partition)
        self.fs_partition = Partition("fs", *fs_partition)
        self.sfs = SwapFileSystem(self.sim, self.usd, machine,
                                  self.swap_partition)
        from repro.usd.files import FileSystem

        self.filesystem = FileSystem(self.sim, self.usd, machine,
                                     self.fs_partition)
        # Multi-volume backing store: N extra disks, each behind its
        # own USD in its own driver domain, pooled by a VolumeManager
        # (drivers opt in with store="usbs"). The system disk above
        # stays dedicated to the single-disk SFS and the filesystem.
        self.usbs = None
        if volumes:
            from repro.usbs import VolumeManager

            self.usbs = VolumeManager(
                self.sim, machine, volumes,
                geometry=volume_geometry or geometry,
                placement=volume_placement, seed=volume_seed,
                metrics=self.metrics, spans=self.spans,
                trace=self.usd_trace, rollover=rollover,
                slack_enabled=slack_enabled, monitor=volume_monitor)
        self.apps = []
        if behavior_plan is not None:
            self.install_behavior_plan(behavior_plan)

    # -- construction -------------------------------------------------------

    def install_fault_plan(self, plan):
        """Attach a :class:`~repro.faults.FaultPlan` to the disk.

        May be called mid-run (a fault storm that starts later is just
        a plan whose rules have ``start_ns`` set). Passing ``None``
        heals the disk.
        """
        from repro.faults import FaultInjector

        if plan is None:
            self.fault_injector = None
        else:
            self.fault_injector = FaultInjector(plan, metrics=self.metrics)
        self.disk.injector = self.fault_injector
        return self.fault_injector

    def install_corruption_plan(self, plan):
        """Attach a :class:`~repro.faults.CorruptPlan` to the disk.

        Corruption is *silent*: affected reads complete with STATUS_OK
        and wrong data, invisible to retries and watchdogs — only the
        integrity plane's end-to-end checksums can tell. ``None`` heals
        the disk.
        """
        from repro.faults import CorruptionInjector

        if plan is None:
            self.corruption_injector = None
        else:
            self.corruption_injector = CorruptionInjector(
                plan, metrics=self.metrics)
        self.disk.corruptor = self.corruption_injector
        return self.corruption_injector

    def _wrap_swap(self, swap):
        """Wrap a freshly created swap backing in the integrity plane.

        No-op unless the system was built with ``integrity=True``.
        Otherwise the backing goes behind a
        :class:`~repro.integrity.swap.ChecksummedSwap` (verify on every
        swap-in, quarantine/repair on mismatch, escalate multi-volume
        unrepairable losses to the PR-5 drain ladder) and, when
        scrubbing is on,
        gets a background :class:`~repro.integrity.scrub.Scrubber`
        walking its bloks through the owner's own streams.
        """
        if not self.integrity_enabled:
            return swap
        from repro.integrity import ChecksummedSwap, Scrubber, VolumeEscalator

        on_lost = None
        if self.usbs is not None:
            if self._escalator is None:
                self._escalator = VolumeEscalator(
                    self.usbs, threshold=self.integrity_threshold)
            on_lost = self._escalator
        wrapped = ChecksummedSwap(self.sim, swap, metrics=self.metrics,
                                  on_lost=on_lost)
        self.integrity_swaps.append(wrapped)
        if self.integrity_scrub:
            scrubber = Scrubber(self.sim, wrapped,
                                interval_ns=self.scrub_interval,
                                spans=self.spans)
            scrubber.start()
            self.scrubbers[swap.name] = scrubber
        return wrapped

    def install_behavior_plan(self, plan):
        """Attach a :class:`~repro.faults.BehaviorPlan`: hostile-domain
        rules consulted at the MMEntry revocation channel and the
        frames-client request path. Passing ``None`` makes every domain
        cooperative again. Applies to existing and future apps.
        """
        from repro.faults import BehaviorInjector

        if plan is None:
            self.behavior_injector = None
        else:
            self.behavior_injector = BehaviorInjector(plan,
                                                      metrics=self.metrics)
        self.frames_allocator.behavior = self.behavior_injector
        for app in self.apps:
            app.mmentry.behavior = self.behavior_injector
        return self.behavior_injector

    def ensure_seg_translation(self):
        """Attach the segmentation regime (idempotent); returns it.

        Systems that never call this keep ``translation.seg`` /
        ``mmu.seg`` as ``None``, so the classic per-page walk stays
        bit-identical — the regimes ablation depends on that.
        """
        from repro.regimes.seg import attach_seg

        return attach_seg(self.translation)

    def new_app(self, name, guaranteed_frames, extra_frames=0,
                cpu_qos=None):
        """Create a self-paging application domain with its contract."""
        protdom = ProtectionDomain(self.meter, name="%s-pd" % name)
        domain = self.kernel.create_domain(name, protdom, cpu_qos=cpu_qos)
        client = self.frames_allocator.admit(domain, guaranteed_frames,
                                             extra_frames)
        app = App(self, domain, client)
        self.apps.append(app)
        return app

    # -- running ---------------------------------------------------------------

    def run(self, until=None):
        """Advance simulated time (absolute ``until``, ns)."""
        return self.sim.run(until=until)

    def run_for(self, duration):
        """Advance simulated time by ``duration`` ns."""
        return self.sim.run(until=self.sim.now + duration)

    @property
    def now(self):
        # Read the clock directly: thread bodies stamp times through
        # this on every operation.
        return self.sim._now

    # -- observability ----------------------------------------------------------

    def metrics_snapshot(self):
        """Capture every metric series at the current instant."""
        return self.metrics.snapshot()
