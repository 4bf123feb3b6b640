"""The §7.2 test application.

"A test application was written which created a paged stretch driver
with 16Kb of physical memory and 16Mb of swap space, and then allocated
a 4Mb stretch and bound it to the stretch driver. The application then
proceeded to sequentially read every byte in the stretch, causing every
page to be demand zeroed. [Experiment 1] continues ... by writing to
every byte in the stretch, and then forking a 'watch thread'. The main
thread continues sequentially accessing every byte from the start of
the 4Mb stretch, incrementing a counter for each byte 'processed' and
looping around to the start when it reaches the top."

Byte touching is modelled at page granularity: one :class:`Touch` per
page (the access that can fault) plus a :class:`Compute` charge of
``per_byte_touch * page_size`` (the paper's "trivial amount of
computation ... per page").

Modes:

* ``"read-loop"`` (Figure 7): demand-zero pass, write pass (populates
  swap), then an endless sequential *read* loop — steady state is one
  page-in per fault.
* ``"write-loop"`` (Figure 8, with the forgetful driver): endless
  sequential *write* loop — steady state is one page-out per fault.
"""

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, Touch
from repro.apps.watch import BandwidthWatcher

MB = 1024 * 1024
KB = 1024


class PagingApplication:
    """One self-paging application of the paper's experiments."""

    def __init__(self, system, name, qos, mode="read-loop",
                 stretch_bytes=4 * MB, driver_frames=2,
                 swap_bytes=16 * MB, guaranteed_frames=None,
                 extra_frames=0, driver_kind="paged", store=None,
                 prefetch_depth=4, stretches=()):
        if mode not in ("read-loop", "write-loop"):
            raise ValueError("mode must be 'read-loop' or 'write-loop'")
        if driver_kind not in ("paged", "stream", "seg"):
            raise ValueError("driver_kind must be 'paged', 'stream' "
                             "or 'seg'")
        self.system = system
        self.name = name
        self.mode = mode
        self.bytes_processed = 0
        self.loops_completed = 0
        self.populated = system.sim.event("%s.populated" % name)
        self.page_size = system.machine.page_size
        # Contract: exactly the frames the driver needs (plus none
        # optimistic) — the time-sensitive-app idiom of §6.2. The seg
        # regime has no backing store, so its working set *is* the
        # whole stretch: the default contract covers every page.
        if guaranteed_frames is None:
            frames = (stretch_bytes // self.page_size
                      if driver_kind == "seg" else driver_frames)
        else:
            frames = guaranteed_frames
        self.app = system.new_app(name, guaranteed_frames=frames,
                                  extra_frames=extra_frames)
        self.stretch = self.app.new_stretch(stretch_bytes)
        if driver_kind == "seg":
            # The segmentation regime: one contiguous extent, no swap.
            self.driver = self.app.seg_driver()
        elif driver_kind == "stream":
            # The pipelined driver — the one that converts a
            # multi-volume backing (store="usbs") into aggregate
            # bandwidth. Forgetfulness is a pure-demand-driver notion,
            # so mode only controls the loop body here.
            self.driver = self.app.stream_driver(
                frames=driver_frames, swap_bytes=swap_bytes, qos=qos,
                prefetch_depth=prefetch_depth, store=store)
        else:
            self.driver = self.app.paged_driver(
                frames=driver_frames, swap_bytes=swap_bytes, qos=qos,
                forgetful=(mode == "write-loop"), store=store)
        self.app.bind(self.stretch, self.driver)
        self._per_page_compute = (system.meter.model["per_byte_touch"]
                                  * self.page_size)
        # The multi-pager mix: extra stretches, each with its own pager
        # personality, faults demuxed by the domain's PagerRegistry.
        self.extra_drivers = []
        self.extra_bytes = 0
        for spec in stretches:
            self._add_pager(spec, qos)
        self.main_thread = self.app.spawn(self._main(), name="%s-main" % name)
        self.watch = BandwidthWatcher(
            system.sim, lambda: self.bytes_processed, name="%s-watch" % name)

    # -- the multi-pager mix ---------------------------------------------

    def _add_pager(self, spec, qos):
        """Build one extra stretch + pager personality from a spec.

        ``spec`` is a normalised ``[[workload.domains.stretches]]``
        entry; :data:`repro.missions.schema.STRETCH_FIELDS` documents
        its fields, defaults and sentinels ("" name: numbered). The
        stretch gets its own toucher thread (write pass, then an
        endless read loop) counting into ``extra_bytes`` — the main
        stretch's ``bytes_processed`` bandwidth stays comparable
        across regimes.
        """
        app = self.app
        name = spec["name"] or "%s-p%d" % (self.name,
                                           len(self.extra_drivers))
        kind = spec["driver"]
        pages = spec["pages"]
        frames = spec["frames"]
        priority = None if spec["priority"] == -1 else spec["priority"]
        swap_bytes = (spec["swap_kb"] * KB
                      or 4 * pages * self.page_size)
        nbytes = pages * self.page_size
        if kind in ("paged", "forgetful"):
            driver = app.paged_driver(frames=frames, swap_bytes=swap_bytes,
                                      qos=qos, forgetful=(kind == "forgetful"),
                                      name=name)
        elif kind == "mapped-file":
            file = self.system.filesystem.create(name, nbytes, qos)
            driver = app.mmap_driver(file, frames=frames, name=name)
        elif kind == "nailed":
            driver = app.nailed_driver(name=name)
        elif kind == "physical":
            driver = app.physical_driver(frames=frames, name=name)
        elif kind == "seg":
            driver = app.seg_driver(name=name)
        else:
            raise ValueError("unknown pager kind %r" % kind)
        stretch = app.new_stretch(nbytes)
        app.bind(stretch, driver, priority=priority)
        app.spawn(self._extra_body(stretch), name="%s-touch" % name)
        self.extra_drivers.append((name, kind, driver, stretch))

    def _extra_body(self, stretch):
        """Toucher for one extra stretch: populate, then read forever."""
        for va in stretch.pages():
            yield Touch(va, AccessKind.WRITE)
            yield Compute(self._per_page_compute, label="process-page")
        while True:
            for va in stretch.pages():
                yield Touch(va, AccessKind.READ)
                yield Compute(self._per_page_compute, label="process-page")
                self.extra_bytes += self.page_size

    # -- thread bodies ---------------------------------------------------

    def _pass(self, kind, count_progress):
        """One sequential pass over every page of the stretch."""
        for va in self.stretch.pages():
            yield Touch(va, kind)
            yield Compute(self._per_page_compute, label="process-page")
            if count_progress:
                self.bytes_processed += self.page_size

    def _main(self):
        if self.mode == "read-loop":
            # Demand-zero every page, then write every byte (so that
            # every page has been dirtied and will be paged out), then
            # loop reading.
            yield from self._pass(AccessKind.READ, count_progress=False)
            yield from self._pass(AccessKind.WRITE, count_progress=False)
            self.populated.trigger(self.system.sim.now)
            while True:
                yield from self._pass(AccessKind.READ, count_progress=True)
                self.loops_completed += 1
        else:
            # Figure 8: pure page-out load from the first touch.
            self.populated.trigger(self.system.sim.now)
            while True:
                yield from self._pass(AccessKind.WRITE, count_progress=True)
                self.loops_completed += 1
