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
from repro.kernel.cpu import AtroposCpu, FifoCpu, UnlimitedCpu
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
from repro.usd.sfs import SWAP_SPAN, Partition, SwapFileSystem
from repro.usd.usd import USD

_PAGETABLES = {"linear": LinearPageTable, "guarded": GuardedPageTable}
_CPUS = ("fifo", "atropos", "unlimited")

#: (start, nblocks) of the system disk's file-system partition, after
#: its swap partition (``repro.usd.sfs.SWAP_SPAN``).
FS_PARTITION = (3_500_000, 786_432)


class App:
    """Convenience bundle for one self-paging application domain."""

    def __init__(self, system, domain, frames_client):
        self.system = system
        self.domain = domain
        self.frames = frames_client
        self.mmentry = MMEntry(domain, frames_client, system.pagetable,
                               fault_timeout=system.fault_timeout)
        self.drivers = []
        self.stretches = []

    @property
    def name(self):
        """The application's domain name."""
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
        """A physical stretch driver (§6.6): a page gets a demand-zeroed
        frame on first touch, with no backing store. ``frames`` are
        allocated into its pool now."""
        driver = PhysicalDriver(name or "%s-phys" % self.name, self.domain,
                                self.frames, self.system.translation)
        if frames:
            driver.provide_frames(frames)
        self.drivers.append(driver)
        return driver

    def nailed_driver(self, name=None):
        """A nailed stretch driver (§6.6): frames back a bound stretch at
        bind time, so it never faults or pages."""
        driver = NailedDriver(name or "%s-nailed" % self.name, self.domain,
                              self.frames, self.system.translation)
        self.drivers.append(driver)
        return driver

    def seg_driver(self, name=None):
        """A segmentation-regime driver (see :mod:`repro.regimes`).

        Backs each bound stretch with one contiguous frame extent and
        a base+limit translation entry instead of per-page mappings,
        installed in the MMU's :class:`~repro.hw.mmu.SegTranslation`.
        """
        from repro.regimes.seg import SegDriver

        driver = SegDriver(name or "%s-seg" % self.name, self.domain,
                           self.frames, self.system.translation)
        self.drivers.append(driver)
        return driver

    def _create_swap(self, name, swap_bytes, qos, depth, store):
        """Allocate backing for a paged driver from the chosen store.

        ``store=None``/``"sfs"`` is the paper's single-disk SFS;
        ``"usbs"`` places a sharded backing through the system's
        :class:`~repro.usbs.manager.VolumeManager` (the system must
        have been built with ``volumes >= 1``) under the manager's
        placement policy.
        """
        if store in (None, "sfs"):
            swap = self.system.sfs.create_swapfile(name, swap_bytes, qos,
                                                   depth=depth)
        elif store == "usbs":
            if self.system.usbs is None:
                raise ValueError(
                    "store='usbs' needs NemesisSystem(volumes=N >= 1)")
            swap = self.system.usbs.create_backing(name, swap_bytes, qos,
                                                   depth=depth)
        else:
            raise ValueError("store must be None, 'sfs' or 'usbs'")
        return self.system._wrap_swap(swap)

    def paged_driver(self, frames, swap_bytes, qos, forgetful=False,
                     name=None, policy="fifo", store=None):
        """A paged driver with its own swap file (QoS negotiated now).

        ``policy`` selects the eviction policy: ``"fifo"`` (the paper's
        pure demand scheme) or ``"clock"`` (second-chance via the
        referenced bits). ``store`` selects the backing store (see
        :meth:`_create_swap`); the swap channel is two deep.
        """
        name = name or "%s-paged" % self.name
        swap = self._create_swap(name, swap_bytes, qos, depth=2,
                                 store=store)
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
                      store=None):
        """A stream-paging driver (the paper's §8 pipelining extension):
        a paged driver that detects sequential faults and prefetches
        ahead through a deeper IO channel. Over a multi-volume backing
        (``store="usbs"``) the pipeline is what converts volume count
        into bandwidth: sequential bloks stripe round-robin, so depth-V
        read-ahead keeps V spindles busy at once."""
        from repro.mm.stream import StreamPagedDriver

        name = "%s-stream" % self.name
        swap = self._create_swap(name, swap_bytes, qos, prefetch_depth + 2,
                                 store)
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
            cpu_depart(self.domain.cpu)
        system.frames_allocator.depart(self.frames)
        for stretch in list(self.stretches):
            if not stretch.destroyed:
                system.stretch_allocator.destroy(stretch)
        self.stretches.clear()
        for driver in self.drivers:
            swap = getattr(driver, "swap", None)
            if swap is None:
                continue
            for client in swap.attachments():
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
                 backing="usd", rollover=True, usd_trace=True,
                 system_reserve_frames=16, revocation_timeout=100 * MS,
                 max_revocation_rounds=3, metrics=True, behavior_plan=None,
                 fault_timeout=30 * SEC, volumes=0,
                 volume_placement="striped", volume_seed=1999,
                 integrity=False, scrub_interval=20 * MS,
                 integrity_threshold=4,
                 cpus=0, place_seed=1999):
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
        # The per-fault resolution watchdog that keeps a wedged disk
        # from wedging a domain (None = disabled). Fault plans live where
        # they are consulted; see the install_* methods.
        self.fault_timeout = fault_timeout
        # The integrity plane: when enabled, every paged/stream swap
        # backing is wrapped in a verifying ChecksummedSwap, each with
        # a background scrubber on the owner's own streams.
        self.integrity_enabled = bool(integrity)
        self.scrub_interval = scrub_interval
        self.integrity_threshold = integrity_threshold
        self.scrubbers = {}         # backing name -> Scrubber
        self.integrity_swaps = []   # every ChecksummedSwap built
        self._escalator = None
        # Kernel + CPU. `cpus=N` builds N cores, each with its own Atropos
        # run queue, with first-fit-decreasing domain placement seeded by
        # `place_seed` (see repro.place); `cpu="atropos"` is the one-core
        # case, the paper's uniprocessor. Otherwise (cpus=0) `cpu` picks
        # the FIFO or unlimited model.
        if cpu not in _CPUS:
            raise ValueError("cpu must be one of %s" % list(_CPUS))
        if cpus or cpu == "atropos":
            self.cpu = AtroposCpu(self.sim, cpus=cpus or 1, seed=place_seed,
                                  metrics=self.metrics)
        elif cpu == "fifo":
            self.cpu = FifoCpu(self.sim)
        else:
            self.cpu = UnlimitedCpu(self.sim)
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
                           rollover=rollover, metrics=self.metrics)
        elif backing == "fcfs":
            from repro.baseline.fcfs_disk import FcfsDiskService

            self.usd = FcfsDiskService(self.sim, self.disk,
                                       trace=self.usd_trace)
        else:
            raise ValueError("backing must be 'usd' or 'fcfs'")
        self.swap_partition = Partition("swap", *SWAP_SPAN)
        self.fs_partition = Partition("fs", *FS_PARTITION)
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
                self.sim, machine, volumes, geometry=geometry,
                placement=volume_placement, seed=volume_seed,
                metrics=self.metrics, spans=self.spans,
                trace=self.usd_trace, rollover=rollover)
        self.apps = []
        if behavior_plan is not None:
            self.frames_allocator.behavior = behavior_plan.bind(self.metrics)

    # -- construction -------------------------------------------------------

    def install_fault_plan(self, plan):
        """Attach a fresh :class:`~repro.faults.FaultPlan` to the disk
        (as ``disk.injector``).

        May be called mid-run (a fault storm that starts later is just
        a plan whose rules have ``start_ns`` set). Passing ``None``
        heals the disk.
        """
        self.disk.injector = (None if plan is None
                              else plan.bind(self.metrics))

    def install_corruption_plan(self, plan):
        """Attach a fresh :class:`~repro.faults.CorruptPlan` to the disk
        (as ``disk.corruptor``).

        Corruption is *silent*: affected reads complete with STATUS_OK
        and wrong data, invisible to retries and watchdogs — only the
        integrity plane's end-to-end checksums can tell. ``None`` heals
        the disk.
        """
        self.disk.corruptor = (None if plan is None
                               else plan.bind(self.metrics))

    def _wrap_swap(self, swap):
        """Wrap a freshly created swap backing in the integrity plane.

        No-op unless the system was built with ``integrity=True``.
        Otherwise the backing goes behind a
        :class:`~repro.integrity.swap.ChecksummedSwap` (verify on every
        swap-in, quarantine/repair on mismatch, escalate multi-volume
        unrepairable losses to the volume drain ladder) and gets a
        background :class:`~repro.integrity.scrub.Scrubber` walking its
        bloks through the owner's own streams.
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
        scrubber = Scrubber(self.sim, wrapped,
                            interval_ns=self.scrub_interval,
                            spans=self.spans)
        scrubber.start()
        self.scrubbers[swap.name] = scrubber
        return wrapped

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
        """Current simulated time in nanoseconds."""
        # Read the clock directly: thread bodies stamp times through
        # this on every operation.
        return self.sim._now

    # -- observability ----------------------------------------------------------

    def metrics_snapshot(self):
        """Capture every metric series at the current instant."""
        return self.metrics.snapshot()
