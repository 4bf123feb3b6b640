"""The frames allocator: physical-memory contracts and revocation.

§6.2. Each client domain is admitted with a service contract ``(g, x)``:
``g`` frames are *guaranteed* (immune from revocation in the short term)
and up to ``x`` further frames may be held *optimistically*, revocable
at short notice. Admission control keeps the sum of guarantees within
main memory, "to ensure that the guarantees of all clients can be met
simultaneously". While ``n < g``, "a request for a single physical frame
is guaranteed to succeed".

Revocation always takes frames from the **top of the victim's frame
stack**:

* **Transparent**: if the top frames are unused, the allocator simply
  reclaims them and updates the stack (Figure 4, left).
* **Intrusive**: otherwise the allocator sends a revocation notification
  asking for ``k`` frames by time ``T`` (relatively far in the future —
  e.g. 100 ms — because the application may first have to clean dirty
  pages). If the application fails to arrange ``k`` unused frames on top
  of its stack by the deadline, "the domain is killed and all of its
  frames reclaimed" (Figure 4, right).

The intrusive leg here is a bounded *escalation ladder* rather than a
single-shot ultimatum: a round that makes progress (some frames arrive
on top of the stack) earns the victim a fresh round with a shrunken
``k``, so a cooperating domain that is merely slow to clean dirty pages
is never killed for being dirty. Only ``max_revocation_rounds``
*consecutive zero-progress* rounds — a genuinely silent or lying
domain — escalate to the Figure 4 kill. Orderly exits use
:meth:`FramesAllocator.depart`, which releases the contract without the
kill accounting.
"""

from collections import deque
from dataclasses import dataclass

from repro.hw.mmu import FaultCode  # noqa: F401  (re-exported context)
from repro.mm.framestack import FrameStack
from repro.mm.ramtab import FrameState
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.spans import NULL_TRACER
from repro.sim.units import MS


class FramesError(Exception):
    """Allocation/contract violation."""


@dataclass(frozen=True)
class RevocationRequest:
    """Payload of a revocation notification: release ``k`` frames by
    ``deadline`` (absolute simulated time)."""

    k: int
    deadline: int


class FramesClient:
    """Per-domain contract state and allocation interface."""

    def __init__(self, allocator, domain, guaranteed, extra):
        self.allocator = allocator
        self.domain = domain
        self.guaranteed = guaranteed
        self.extra = extra
        self.allocated = 0            # n
        name = domain.name if domain is not None else "?"
        metrics = allocator.metrics
        self._c_grants = metrics.counter(
            "frames_grants_total", help="frames granted, by domain"
        ).child(domain=name)
        self._c_frees = metrics.counter(
            "frames_frees_total", help="frames voluntarily returned"
        ).child(domain=name)
        metrics.gauge(
            "frames_allocated", help="frames currently held (n)"
        ).read(lambda: self.allocated, domain=name)
        metrics.gauge(
            "frames_stack_depth", help="frame-stack depth"
        ).read(lambda: len(self.stack), domain=name)
        self._m_revoked = metrics.counter(
            "frames_revoked_total",
            help="frames taken back, by domain and kind "
                 "(transparent/intrusive/kill)")
        self._c_revoked_transparent = self._m_revoked.child(
            domain=name, kind="transparent")
        self.stack = FrameStack()
        self.revocation_channel = None   # set by the MMEntry
        self._reply_event = None         # pending intrusive revocation
        self.killed = False
        self.departed = False            # orderly contract release

    # -- derived quantities ----------------------------------------------

    @property
    def optimistic(self):
        """Number of currently optimistically-held frames (n - g)+."""
        return max(0, self.allocated - self.guaranteed)

    @property
    def quota(self):
        """Hard ceiling on n."""
        return self.guaranteed + self.extra

    @property
    def active(self):
        """Contract still live (neither killed nor departed)."""
        return not self.killed and not self.departed

    # -- allocation --------------------------------------------------------

    def alloc_now(self, count=1, pfns=None):
        """Synchronous allocation (initialisation-time pattern).

        Satisfies the request from the free pool, performing transparent
        revocation of other domains' optimistic frames if needed for a
        within-guarantee request. Raises :class:`FramesError` if the
        request cannot be satisfied synchronously — callers needing
        intrusive revocation must use :meth:`request_frames`.
        """
        return self.allocator._alloc_sync(self, count, pfns)

    def alloc_coloured(self, count, colour, ncolours):
        """Allocate frames of one cache colour (§6.2: "make use of page
        colouring"). Synchronous; raises if unavailable."""
        granted = []
        for _ in range(count):
            if self.killed or self.allocated >= self.quota:
                break
            pfn = self.allocator.physmem.take_any_coloured(colour, ncolours)
            if pfn is None:
                break
            self.allocator._grant(self, pfn)
            granted.append(pfn)
        if len(granted) < count:
            for pfn in granted:  # all-or-nothing
                self.free(pfn)
            raise FramesError(
                "no %d free frames of colour %d/%d" % (count, colour,
                                                       ncolours))
        return granted

    def alloc_contiguous(self, count):
        """Allocate physically contiguous frames (§6.2: "take advantage
        of superpage TLB mappings"). The run is recorded in the RamTab
        with the corresponding logical frame width. Synchronous;
        raises if no aligned run is free."""
        if self.killed:
            raise FramesError("client domain was killed")
        if self.allocated + count > self.quota:
            raise FramesError("contract quota exceeded")
        pfns = self.allocator.physmem.take_contiguous(count)
        if pfns is None:
            raise FramesError("no contiguous run of %d frames" % count)
        page_shift = self.allocator.physmem.machine.page_shift
        run_width = page_shift + (count - 1).bit_length()
        for pfn in pfns:
            self.allocator.ramtab.set_owner(pfn, self.domain,
                                            width=run_width)
            self.stack.push(pfn)
            self.allocated += 1
            self._c_grants.inc()
            self.allocator._record("grant", self, pfn=pfn,
                                   optimistic=self.allocated > self.guaranteed)
        return pfns

    def request_frames(self, count=1):
        """Asynchronous allocation; may drive intrusive revocation.

        Returns a SimEvent triggering with the list of granted PFNs
        (possibly shorter than ``count`` if the contract or memory runs
        out — an optimistic request is best-effort). This is the
        frames-client injection point for ``alloc_thrash`` behaviour
        faults: a thrashing domain's requests are inflated (capped by
        its own quota, so the churn can never violate admission).
        """
        behavior = self.allocator.behavior
        if behavior is not None and self.domain is not None:
            count = behavior.alloc_count(self.domain.name,
                                         self.allocator.sim.now, count,
                                         self.quota - self.allocated)
        return self.allocator._alloc_async(self, count)

    def free(self, pfn):
        """Return a frame to the system (it must be unused)."""
        self.allocator._free(self, pfn)

    def owns_unused(self, pfn):
        """True if this client still owns ``pfn`` and it is unused.

        Stretch drivers use this to lazily discard pool frames that were
        transparently revoked.
        """
        return (self.active
                and pfn in self.stack
                and self.allocator.ramtab.owner(pfn) is self.domain
                and self.allocator.ramtab.is_unused(pfn))

    # -- revocation interaction --------------------------------------------

    def revocation_ready(self):
        """Application's reply: the top-of-stack frames are now unused."""
        if self._reply_event is not None and not self._reply_event.triggered:
            self._reply_event.trigger(None)


class FramesAllocator:
    """The centralised physical-memory allocator (system domain)."""

    def __init__(self, sim, physmem, ramtab, translation, trace=None,
                 revocation_timeout=100 * MS, max_revocation_rounds=3,
                 system_reserve=0, metrics=None, spans=None):
        self.sim = sim
        self.physmem = physmem
        self.ramtab = ramtab
        self.translation = translation
        self.trace = trace
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spans = spans if spans is not None else NULL_TRACER
        self._m_notifications = self.metrics.counter(
            "frames_revocation_notifications_total",
            help="intrusive revocation requests sent, by victim domain")
        self._m_kills = self.metrics.counter(
            "frames_kills_total",
            help="domains killed for violating the revocation protocol")
        self._m_rounds = self.metrics.counter(
            "frames_revocation_rounds_total",
            help="intrusive revocation rounds driven, by victim domain")
        self._m_departs = self.metrics.counter(
            "frames_departs_total",
            help="contracts released by orderly departure, by domain")
        self.revocation_timeout = revocation_timeout
        self.max_revocation_rounds = max_revocation_rounds
        self.system_reserve = system_reserve
        self.behavior = None            # optional BehaviorPlan
        self.clients = []
        self._requests = deque()
        self._wake = sim.event("frames.wake")
        sim.spawn(self._loop(), name="frames-allocator")

    # -- admission ------------------------------------------------------------

    def total_guaranteed(self):
        """Sum of the guarantees of every live contract."""
        return sum(c.guaranteed for c in self.clients if c.active)

    def admit(self, domain, guaranteed, extra=0):
        """Admit a domain with contract (guaranteed, extra).

        Admission control: the sum of all guarantees (plus the system
        reserve) must fit in main memory.
        """
        if guaranteed < 0 or extra < 0:
            raise FramesError("negative contract")
        capacity = self.physmem.region("main").frames - self.system_reserve
        if self.total_guaranteed() + guaranteed > capacity:
            raise FramesError(
                "admission control: %d guaranteed frames requested, only %d "
                "of %d uncommitted" % (guaranteed,
                                       capacity - self.total_guaranteed(),
                                       capacity))
        client = FramesClient(self, domain, guaranteed, extra)
        self.clients.append(client)
        return client

    # -- internals: grant / free ------------------------------------------------

    def _record(self, kind, client, **info):
        if self.trace is not None:
            name = client.domain.name if client.domain else "?"
            self.trace.record(self.sim.now, kind, name, **info)

    def _grant(self, client, pfn):
        self.ramtab.set_owner(pfn, client.domain)
        client.stack.push(pfn)
        client.allocated += 1
        client._c_grants.inc()
        self._record("grant", client, pfn=pfn,
                     optimistic=client.allocated > client.guaranteed)

    def _take_free(self, client, specific=None):
        """Take a frame from the free pool if the contract allows it."""
        if client.killed:
            raise FramesError("client domain was killed")
        if client.departed:
            raise FramesError("client domain departed")
        if client.allocated >= client.quota:
            return None
        # Optimistic grants (n >= g) need no hold-back: optimistic frames
        # are revocable, so handing out any free frame never endangers
        # outstanding guarantees.
        if specific is not None:
            if not self.physmem.is_free(specific):
                return None
            return self.physmem.take(specific)
        return self.physmem.take_any()

    def _free(self, client, pfn):
        if self.ramtab.owner(pfn) is not client.domain:
            raise FramesError("domain %s does not own PFN %d"
                              % (client.domain.name, pfn))
        if self.ramtab.state(pfn) is not FrameState.UNUSED:
            raise FramesError("PFN %d still mapped; unmap before freeing" % pfn)
        client.stack.remove(pfn)
        self.ramtab.clear_owner(pfn)
        self.physmem.release(pfn)
        client.allocated -= 1
        client._c_frees.inc()
        self._record("free", client, pfn=pfn)

    # -- synchronous path ---------------------------------------------------------

    def _alloc_sync(self, client, count, pfns):
        if pfns is not None:
            granted = []
            for pfn in pfns:
                frame = self._take_free(client, specific=pfn)
                if frame is None:
                    for got in granted:  # roll back
                        self.ramtab.clear_owner(got)
                        client.stack.remove(got)
                        self.physmem.release(got)
                        client.allocated -= 1
                    raise FramesError("PFN %d unavailable" % pfn)
                self._grant(client, frame)
                granted.append(frame)
            return granted
        granted = []
        for _ in range(count):
            frame = self._take_free(client)
            if frame is None and client.allocated < client.guaranteed:
                # Within guarantee: try transparent revocation.
                if self._revoke_transparent(1, exclude=client):
                    frame = self._take_free(client)
            if frame is None:
                if client.allocated < client.guaranteed:
                    raise FramesError(
                        "guaranteed allocation needs intrusive revocation; "
                        "use request_frames()")
                break  # optimistic request: best effort

            self._grant(client, frame)
            granted.append(frame)
        return granted

    # -- asynchronous path ----------------------------------------------------------

    def _alloc_async(self, client, count):
        done = self.sim.event("frames.request")
        self._requests.append(("alloc", client, count, None, done))
        if not self._wake.triggered:
            self._wake.trigger(None)
        return done

    def transfer(self, donor, beneficiary, count):
        """System-initiated rebalancing: revoke up to ``count`` of the
        donor's *optimistic* frames (full protocol, including the
        intrusive leg) and grant them optimistically to the
        beneficiary. Used by the global-memory balancer; guarantees are
        untouched on both sides. Returns a SimEvent with the granted
        PFNs (possibly empty)."""
        done = self.sim.event("frames.transfer")
        self._requests.append(("transfer", beneficiary, count, donor, done))
        if not self._wake.triggered:
            self._wake.trigger(None)
        return done

    def _loop(self):
        while True:
            if not self._requests:
                if self._wake.triggered:
                    self._wake = self.sim.event("frames.wake")
                    continue
                yield self._wake
                continue
            kind, client, count, donor, done = self._requests.popleft()
            if kind == "transfer":
                yield from self._do_transfer(client, count, donor, done)
                continue
            granted = []
            while len(granted) < count and client.active:
                frame = self._take_free(client)
                if frame is not None:
                    self._grant(client, frame)
                    granted.append(frame)
                    continue
                if client.allocated >= client.guaranteed:
                    break  # optimistic: best effort, no revocation for it
                needed = count - len(granted)
                progressed = yield from self._revoke(needed, exclude=client)
                if progressed:
                    continue
                # Zero revocation progress only ends the request if the
                # pool is still dry: a victim departing mid-round frees
                # its frames without them counting as progress.
                if self.physmem.free_in_region("main") == 0:
                    break  # nothing revocable: contract invariant violated
            done.trigger(granted)

    def _do_transfer(self, beneficiary, count, donor, done):
        """One balancer-initiated donor→beneficiary move.

        Either side may die (kill or departure) while the intrusive
        protocol is in flight; the transfer then simply stops — revoked
        frames stay in the free pool, and the result event always
        triggers (with whatever was granted) so the balancer never
        wedges on a dead transfer.
        """
        count = min(count, donor.optimistic)
        granted = []
        if count > 0 and donor.active and beneficiary.active:
            freed = yield from self._revoke_victim(donor, count)
            for _ in range(min(freed, count)):
                if not beneficiary.active:
                    break   # beneficiary died while the donor cleaned
                frame = self._take_free(beneficiary)
                if frame is None:
                    break
                self._grant(beneficiary, frame)
                granted.append(frame)
        done.trigger(granted)

    # -- revocation --------------------------------------------------------------------

    def _victim(self, exclude):
        """The client with the most optimistic frames (None if nobody)."""
        best = None
        for candidate in self.clients:
            if candidate is exclude or not candidate.active:
                continue
            if candidate.optimistic <= 0:
                continue
            if best is None or candidate.optimistic > best.optimistic:
                best = candidate
        return best

    def _reclaim_top(self, victim, k, kind="transparent"):
        """Reclaim up to ``k`` unused frames from the top of the stack."""
        reclaimed = 0
        while reclaimed < k and victim.optimistic > 0:
            top = victim.stack.top(1)
            if not top or not self.ramtab.is_unused(top[0]):
                break
            pfn = top[0]
            victim.stack.remove(pfn)
            self.ramtab.clear_owner(pfn)
            self.physmem.release(pfn)
            victim.allocated -= 1
            reclaimed += 1
            self._record("revoke", victim, pfn=pfn,
                         transparent=kind == "transparent")
        if reclaimed:
            if kind == "transparent":
                victim._c_revoked_transparent.inc(reclaimed)
            else:
                victim._m_revoked.inc(
                    reclaimed, domain=victim.domain.name
                    if victim.domain else "?", kind=kind)
        return reclaimed

    def _revoke_transparent(self, k, exclude=None):
        """Figure 4 (left): reclaim unused top-of-stack frames.

        Returns the number of frames reclaimed (0 if none possible).
        """
        total = 0
        while total < k:
            victim = self._victim(exclude)
            if victim is None:
                break
            got = self._reclaim_top(victim, k - total)
            if got == 0:
                break  # top of best victim's stack is in use
            total += got
        return total

    def _revoke(self, k, exclude=None):
        """Full protocol: transparent first, then intrusive (Figure 4).

        A generator (run inside the allocator loop). Returns the number
        of frames freed into the pool.
        """
        got = self._revoke_transparent(k, exclude=exclude)
        if got >= k:
            return got
        victim = self._victim(exclude)
        if victim is None:
            return got
        got += yield from self._revoke_victim(victim, k - got)
        return got

    def _revoke_victim(self, victim, k):
        """Revoke up to ``k`` frames from one specific victim.

        Transparent reclaim of its unused top-of-stack frames first,
        then the intrusive notification protocol as a bounded
        escalation ladder:

        * each round asks for the outstanding ``k`` with a fresh
          deadline ``revocation_timeout`` away;
        * a round that delivers *any* frames is progress — the victim
          earns a fresh round for the (shrunken) remainder, so a
          cooperating domain whose top-of-stack frames are merely dirty
          survives even if one deadline is not enough to clean them all;
        * a zero-progress round (no reply, or a reply with nothing
          arranged) is a strike; after ``max_revocation_rounds``
          consecutive strikes the domain is genuinely silent or lying
          and is killed (Figure 4, right) — kill is strictly the
          backstop, never the first response. A silent re-ask also
          shrinks ``k``, giving a struggling victim the easiest
          possible target before escalation.

        Returns the number of frames freed into the pool.
        """
        got = self._reclaim_top(victim, k)
        if got >= k or victim.optimistic <= 0:
            return got
        if victim.revocation_channel is None:
            # The domain cannot handle notifications: contract violation.
            got += self._kill(victim, reason="no revocation channel")
            return got
        victim_name = victim.domain.name if victim.domain else "?"
        span = self.spans.start("revocation.intrusive", client=victim_name,
                                k=k - got)
        ask = min(k - got, victim.optimistic)
        rounds = 0
        strikes = 0
        while (got < k and victim.optimistic > 0 and victim.active):
            rounds += 1
            self._m_rounds.inc(domain=victim_name)
            deadline = self.sim.now + self.revocation_timeout
            request = RevocationRequest(k=ask, deadline=deadline)
            victim._reply_event = self.sim.event("revocation.reply")
            self._m_notifications.inc(domain=victim_name)
            self._record("revoke_notify", victim, k=ask, deadline=deadline,
                         round=rounds)
            victim.revocation_channel.send(request)
            timer = self.sim.timeout(self.revocation_timeout)
            yield self.sim.any_of([victim._reply_event, timer])
            replied = victim._reply_event.triggered
            victim._reply_event = None
            if replied:
                timer.cancel()   # the race is decided; don't fire stale
            if not victim.active:
                break   # killed or departed while we waited
            reclaimed = self._reclaim_top(victim, ask, kind="intrusive")
            got += reclaimed
            if got >= k or victim.optimistic <= 0:
                span.end(rounds=rounds, killed=False)
                return got
            if reclaimed > 0:
                # Progress: re-ask for the shrunken remainder.
                strikes = 0
                ask = min(k - got, victim.optimistic)
                continue
            # Zero progress: silent (no reply) or lying (empty reply).
            strikes += 1
            self._record("revoke_strike", victim, round=rounds,
                         replied=replied)
            if strikes >= self.max_revocation_rounds:
                got += self._kill(
                    victim, reason="lied under revocation" if replied
                    else "silent under revocation")
                span.end(rounds=rounds, killed=True)
                return got
            ask = max(1, min(ask // 2, victim.optimistic))
        span.end(rounds=rounds, killed=victim.killed)
        return got

    def _kill(self, victim, reason="revocation deadline missed"):
        """Escalation exhausted (or protocol violated): kill, reclaim all."""
        self._record("kill", victim, reason=reason)
        victim.killed = True
        victim_name = victim.domain.name if victim.domain else "?"
        self._m_kills.inc(domain=victim_name)
        if victim.domain is not None:
            victim.domain.kill(reason)
        freed = self._reclaim_all(victim)
        if freed:
            victim._m_revoked.inc(freed, domain=victim_name, kind="kill")
        return freed

    def _reclaim_all(self, client):
        """Force-unmap and return every frame a dead contract holds."""
        freed = 0
        if client.domain is not None:
            for pfn in self.ramtab.owned_by(client.domain):
                self.translation.force_unmap_frame(pfn)
                self.ramtab.clear_owner(pfn)
                self.physmem.release(pfn)
                freed += 1
        else:
            for pfn in client.stack.pfns_top_down():
                self.ramtab.clear_owner(pfn)
                self.physmem.release(pfn)
                freed += 1
        client.allocated = 0
        client.stack = FrameStack()
        return freed

    def depart(self, client):
        """Orderly contract release (the opposite of :meth:`admit`).

        All of the client's frames are force-unmapped and returned to
        the pool, and the guarantee leaves admission-control accounting
        exactly as a kill would release it — but without the kill
        bookkeeping, so `frames_kills_total` keeps meaning "protocol
        violators" only. Idempotent, and safe mid-revocation: a pending
        intrusive round observes ``departed`` and stops escalating.
        Returns the number of frames returned to the pool.
        """
        if not client.active:
            return 0
        client.departed = True
        client_name = client.domain.name if client.domain else "?"
        self._m_departs.inc(domain=client_name)
        if client._reply_event is not None and not client._reply_event.triggered:
            # Unblock a revocation round waiting on this domain.
            client._reply_event.trigger(None)
        freed = self._reclaim_all(client)
        self._record("depart", client, freed=freed)
        return freed
