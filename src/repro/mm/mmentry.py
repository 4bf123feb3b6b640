"""The MMEntry: the memory-management entry of a domain.

§6.5: "An entry called the MMEntry is used to handle memory management
events. The notification handler of the MMEntry is attached to the
endpoint used by the kernel for fault dispatching ... It is also
entered when the frames allocator performs a revocation notification.
The 'top' part of the MMEntry consists of one or more worker threads
which can be unblocked by the notification handler.

The MMEntry does not directly handle memory faults or revocation
requests: rather it coordinates the set of stretch drivers used by the
domain:

* If handling a memory fault, it uses the faulting stretch to look up
  the stretch driver bound to that stretch and then invokes it.
* If handling a revocation notification, it cycles through each stretch
  driver requesting that it relinquish frames until enough have been
  freed."

The fast-path invocation from inside the notification handler is "merely
a 'fast path' optimisation"; on ``Retry`` the faulting thread stays
blocked and a worker finishes the job once activations are on.
"""

from collections import deque

from repro.hw.mmu import FaultCode
from repro.kernel.threads import Compute, ThreadState, Wait
from repro.mm.sdriver import FaultOutcome, FaultTimeout
from repro.regimes.registry import PagerRegistry
from repro.sim.units import fmt_time


class _WorkerSlot:
    """Watchdog bookkeeping for one MMEntry worker thread."""

    __slots__ = ("thread", "fault")

    def __init__(self):
        self.thread = None
        self.fault = None      # fault currently being resolved


class MMEntry:
    """Notification handlers + worker threads coordinating stretch drivers.

    ``fault_timeout`` arms a per-fault *resolution watchdog*: if a
    worker's slow path has not finished within that many nanoseconds of
    simulated time (a wedged disk, a lost completion), the watchdog
    throws :class:`~repro.mm.sdriver.FaultTimeout` into the worker —
    the same shape as the intrusive-revocation penalty: miss the
    deadline and the faulting thread is killed rather than letting the
    whole domain wedge behind one stuck fault. ``None`` disables it.
    """

    def __init__(self, domain, frames_client, pagetable, workers=1,
                 fault_timeout=None):
        self.domain = domain
        self.sim = domain.sim
        self.meter = domain.meter
        self.frames = frames_client
        self.pagetable = pagetable
        self.registry = PagerRegistry()
        self._work = deque()           # queued faults / revocations
        self._work_event = None
        self.fault_timeout = fault_timeout
        self.fast_resolved = 0
        self.slow_resolved = 0
        self.failures = 0
        self.revocations_handled = 0
        self.watchdog_kills = 0
        metrics = domain.kernel.metrics
        self.spans = domain.kernel.spans
        # The counts above and the work queue's length are read when
        # the registry is; the rest are pushed.
        name = domain.name
        faults = metrics.counter(
            "mm_faults_resolved_total",
            help="faults resolved, by domain and path (fast/slow)")
        faults.read(lambda: self.fast_resolved, domain=name, path="fast")
        faults.read(lambda: self.slow_resolved, domain=name, path="slow")
        metrics.counter(
            "mm_fault_failures_total",
            help="unresolvable faults (the faulting thread is killed)"
        ).read(lambda: self.failures, domain=name)
        metrics.counter(
            "mm_revocations_handled_total",
            help="intrusive revocation notifications serviced"
        ).read(lambda: self.revocations_handled, domain=name)
        self._c_cleans = metrics.counter(
            "frames_revocation_cleans_total",
            help="dirty pages written out (through the victim's own "
                 "paged driver and USD stream) to satisfy intrusive "
                 "revocation"
        ).child(domain=name)
        metrics.gauge(
            "mm_work_queue_depth",
            help="faults/revocations queued for MMEntry workers"
        ).read(lambda: len(self._work), domain=name)
        metrics.counter(
            "mm_watchdog_kills_total",
            help="slow-path fault resolutions killed by the watchdog"
        ).read(lambda: self.watchdog_kills, domain=name)
        self._h_latency = metrics.histogram(
            "mm_fault_latency_ns",
            help="fault-taken to thread-resumed latency"
        ).child(domain=name)
        # Per-driver (and hence per-regime) fault/revocation counters:
        # the domain-level families above stay untouched for existing
        # dashboards; these add the ``driver`` label for separability.
        self._f_sdriver_faults = metrics.counter(
            "sdriver_faults_total",
            help="faults resolved per stretch driver, by driver and "
                 "path (fast/slow)")
        self._f_sdriver_released = metrics.counter(
            "sdriver_revocation_released_total",
            help="frames arranged for revocation per stretch driver, "
                 "by driver")
        self._fault_overrides = {}     # FaultCode -> handler(fault) -> FaultOutcome
        # Wire up the endpoints.
        domain.fault_channel.handler = self._fault_notification
        self.revocation_channel = domain.create_channel(
            "revocation", handler=self._revocation_notification)
        frames_client.revocation_channel = self.revocation_channel
        self._watchdog_cb = self._watchdog_fire
        self._slots = []
        for index in range(workers):
            slot = _WorkerSlot()
            slot.thread = domain.add_thread(
                self._worker_body(slot),
                name="%s-mmworker-%d" % (domain.name, index))
            self._slots.append(slot)

    # -- registration --------------------------------------------------------

    @property
    def drivers(self):
        """Registered stretch drivers, in registration order."""
        return self.registry.drivers

    def bind(self, stretch, driver, priority=None):
        """Bind a stretch to a driver and index it for fault demux."""
        driver.bind(stretch)
        self.registry.bind(stretch, driver, priority=priority)
        return stretch

    def driver_for_va(self, va):
        """Demultiplex a faulting address to its stretch driver."""
        pte = self.pagetable.peek(self.domain.kernel.machine.page_of(va))
        if pte is None:
            return None
        return self.registry.driver_for_sid(pte.sid)

    # -- notification handlers (activation-handler context!) --------------------

    def set_fault_handler(self, code, handler):
        """Override handling of one fault type with a custom handler.

        The paper's appel1 benchmark "uses a standard (physical) stretch
        driver with the access violation fault type overridden by a
        custom fault-handler" — this is that hook. The handler runs in
        the notification-handler context and returns a
        :class:`~repro.mm.sdriver.FaultOutcome`.
        """
        self._fault_overrides[code] = handler

    def _resolved_fast(self, fault):
        self.fast_resolved += 1
        self._h_latency.observe(self.sim.now - fault.time)
        self.domain.resume_thread(fault.thread)

    def _failed(self, fault, reason):
        self.failures += 1
        fault.thread.kill("%s %s" % (reason, fault))

    def _fault_notification(self, fault):
        """Handle a fault event: fast path, else queue for a worker."""
        self.meter.charge("notify_handler")
        override = self._fault_overrides.get(fault.code)
        if override is not None:
            self.meter.charge("fault_decode")
            outcome = override(fault)
            if outcome is FaultOutcome.SUCCESS:
                self._resolved_fast(fault)
            elif outcome is FaultOutcome.RETRY:
                self.meter.charge("thread_block")
                self._enqueue(("fault", fault,
                               self.driver_for_va(fault.va)))
            else:
                self._failed(fault, "custom handler failed")
            return
        driver = self.driver_for_va(fault.va)
        if driver is None or fault.code is FaultCode.UNALLOCATED:
            # No stretch driver responsible: there is no safety net.
            self._failed(fault, "unhandled")
            return
        self.meter.charge("sdriver_fast")
        outcome = driver.try_fast(fault)
        if outcome is FaultOutcome.SUCCESS:
            self._f_sdriver_faults.inc(driver=driver.name, path="fast")
            self._resolved_fast(fault)
        elif outcome is FaultOutcome.RETRY:
            self.meter.charge("thread_block")
            self._enqueue(("fault", fault, driver))
        else:
            self._failed(fault, "stretch driver failed")

    def _revocation_notification(self, request):
        """Queue a revocation request for a worker (IDC is needed).

        This is the injection point for ``revoke_*`` behaviour faults:
        a ``revoke_silent`` domain drops the notification here (it will
        never reply — the allocator's escalation must kill it); the
        other hostile behaviours ride along to the worker.
        """
        self.meter.charge("notify_handler")
        decision = None
        behavior = self.frames.allocator.behavior
        if behavior is not None:
            decision = behavior.revocation_decision(self.domain.name,
                                                    self.sim.now)
        if decision is not None and decision.kind == "revoke_silent":
            return   # hostile: the request vanishes, no reply ever
        self.meter.charge("thread_block")
        self._enqueue(("revoke", (request, decision), None))

    def _enqueue(self, work):
        self._work.append(work)
        if self._work_event is not None and not self._work_event.triggered:
            self._work_event.trigger(None)

    # -- worker threads -----------------------------------------------------------

    def _worker_body(self, slot):
        while True:
            while self._work:
                kind, payload, driver = self._work.popleft()
                yield Compute(self.meter.model["thread_switch"],
                              label="mmentry-dispatch")
                if kind == "fault":
                    span = self.spans.start("fault.slow",
                                            client=self.domain.name,
                                            va=payload.va)
                    slot.fault = payload
                    if self.fault_timeout is not None:
                        self.sim._schedule(self.fault_timeout,
                                           self._watchdog_cb,
                                           (slot, payload))
                    try:
                        ok = yield from driver.handle_slow(payload)
                    except FaultTimeout:
                        ok = False
                    slot.fault = None
                    span.end(ok=ok)
                    if ok:
                        self.slow_resolved += 1
                        if driver is not None:
                            self._f_sdriver_faults.inc(driver=driver.name,
                                                       path="slow")
                        self._h_latency.observe(self.sim.now - payload.time)
                        self.domain.resume_thread(payload.thread)
                    else:
                        self._failed(payload, "slow path failed:")
                else:
                    request, decision = payload
                    yield from self._handle_revocation(request, decision)
            self._work_event = self.sim.event("mmentry.work")
            yield Wait(self._work_event)

    def _watchdog_fire(self, watched):
        """The per-fault resolution deadline of ``watched``, a ``(slot,
        fault)`` pair, passed: unwedge the worker.

        If the worker already moved on, this is a no-op. Otherwise the
        worker is blocked on an IO event that never (or too late)
        triggers; we detach it from that wait and throw
        :class:`FaultTimeout` at it, so the faulting thread is killed
        instead of the whole MMEntry wedging behind one stuck fault.
        """
        slot, fault = watched
        if slot.fault is not fault:
            return   # resolved (or failed) in time
        worker = slot.thread
        if worker.state is not ThreadState.BLOCKED:
            return   # making progress (e.g. waiting on CPU), not wedged
        self.watchdog_kills += 1
        worker.wait_event = None   # the stale event must not wake us
        worker.next_throw = FaultTimeout(
            "fault %r unresolved after %s" % (fault,
                                              fmt_time(self.fault_timeout)))
        worker.state = ThreadState.RUNNABLE
        self.domain._kick()

    def _handle_revocation(self, request, decision=None):
        """Cycle drivers until ``k`` frames are arranged, then reply.

        The cleaning leg — dirty optimistic frames written out through
        this domain's own paged driver and USD stream, every nanosecond
        charged to this domain — is deadline-aware: drivers stop
        starting new clean IOs once the revocation deadline is at hand
        and we reply with whatever is arranged. Partial progress is
        survivable (the allocator re-asks with a shrunken ``k``); only
        zero progress counts as a strike.
        """
        self.revocations_handled += 1
        span = self.spans.start("revocation.handle",
                                client=self.domain.name, k=request.k)
        if decision is not None and decision.kind == "revoke_slow":
            # Hostile dithering: the deadline keeps running while we nap.
            yield Wait(self.sim.timeout(decision.delay_ns))
        want = request.k
        if decision is not None and decision.kind == "revoke_partial":
            # Weak but not a liar: delivers at least one frame per round
            # whenever its fraction is nonzero.
            want = int(request.k * decision.fraction)
            if decision.fraction > 0:
                want = max(1, want)
        elif decision is not None and decision.kind == "revoke_lie":
            want = 0   # reply without arranging anything
        remaining = want
        clean_span = self.spans.start("revocation.clean",
                                      client=self.domain.name, k=want)
        pageouts_before = sum(getattr(d, "pageouts", 0)
                              for d in self.drivers)
        # "Cycles through each stretch driver" — in *declared* priority
        # order, so a multi-pager domain decides which personality pays
        # first (forgetful caches before nailed regions).
        for driver in self.registry.in_priority_order():
            if remaining <= 0:
                break
            arranged = yield from driver.release_frames(
                remaining, deadline=request.deadline)
            remaining -= arranged
            if arranged:
                self._f_sdriver_released.inc(arranged, driver=driver.name)
        cleaned = sum(getattr(d, "pageouts", 0)
                      for d in self.drivers) - pageouts_before
        if cleaned:
            self._c_cleans.inc(cleaned)
        clean_span.end(cleaned=cleaned, shortfall=max(remaining, 0))
        span.end(shortfall=max(remaining, 0))
        # Reply regardless; the allocator verifies the top of the stack
        # and escalates (re-ask, then kill) if we came up short (§6.2).
        self.frames.revocation_ready()
