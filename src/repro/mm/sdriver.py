"""Stretch drivers: application-level objects that back stretches.

§6.6: "A stretch driver is something which provides physical resources
to back the virtual addresses of the stretches it is responsible for.
Stretch drivers acquire and manage their own physical frames, and are
responsible for setting up virtual to physical mappings by invoking the
translation system." They are *unprivileged* — everything they do goes
through the validated low-level syscalls, using frames from their own
domain's contract.

The driver interface mirrors the two-phase fault handling of §6.5/§6.6:

* :meth:`try_fast` runs inside the notification handler (no blocking,
  no IDC). It returns :class:`FaultOutcome`:
  ``SUCCESS`` (mapped, resume the thread), ``RETRY`` (a worker thread
  must finish the job), or ``FAILURE`` (unresolvable — no safety net).
* :meth:`handle_slow` is a generator of thread effects run by an MMEntry
  worker thread; it may perform IDC and IO.
* :meth:`release_frames` supports revocation: arrange for ``k`` frames
  to become unused at the top of the frame stack (cleaning dirty pages
  first if there is a backing store).
"""

from enum import Enum

from repro.hw.mmu import FaultCode
from repro.obs.metrics import NULL_REGISTRY


class FaultOutcome(Enum):
    """A fast-path verdict: resolved, retry the access, or failed."""

    SUCCESS = "success"
    RETRY = "retry"
    FAILURE = "failure"


class FaultTimeout(Exception):
    """Thrown into an MMEntry worker whose slow-path fault resolution
    exceeded the watchdog deadline (the backing store wedged).

    Defined here rather than in the MMEntry because drivers need to
    catch it for cleanup (returning a half-used frame to the pool)
    before re-raising.
    """


class StretchDriver:
    """Base class: frame-pool bookkeeping shared by concrete drivers.

    A driver owns a pool of *unused* frames (``self._free``) plus the
    frames it currently has mapped. All its frames live on the domain's
    frame stack; per-frame info (which VPN a frame backs) is stored in
    the stack's info dicts, as the paper suggests.
    """

    kind = "abstract"

    def __init__(self, name, domain, frames_client, translation):
        self.name = name
        self.domain = domain
        self.frames = frames_client
        self.translation = translation
        self.machine = translation.machine
        self.stretches = {}
        self._free = []          # unused PFNs owned by this driver
        self.faults_fast = 0
        self.faults_slow = 0
        self.io_failures = 0
        metrics = getattr(getattr(domain, "kernel", None), "metrics",
                          None) or NULL_REGISTRY
        metrics.counter(
            "sdriver_io_failures_total",
            help="persistent backing-store IO failures absorbed by "
                 "stretch drivers, by driver"
        ).read(lambda: self.io_failures, driver=name)

    # -- setup ----------------------------------------------------------

    def bind(self, stretch):
        """Associate a stretch with this driver.

        "Before the virtual address may be referred to the stretch must
        be *bound* to a stretch driver" (§6.1).
        """
        if stretch.driver is not None:
            raise ValueError("stretch %d already bound" % stretch.sid)
        stretch.driver = self
        self.stretches[stretch.sid] = stretch
        return stretch

    def provide_frames(self, count):
        """Acquire ``count`` frames synchronously into the free pool."""
        granted = self.frames.alloc_now(count)
        self._free.extend(granted)
        return granted

    def adopt_frames(self, pfns):
        """Add already-granted frames (e.g. from request_frames)."""
        self._free.extend(pfns)

    @property
    def free_frames(self):
        """Frames in the driver's pool, mapped nowhere."""
        return len(self._free)

    def note_io_failure(self):
        """Record a persistent IO failure this driver had to absorb."""
        self.io_failures += 1

    def _pop_free(self):
        """Pop a *still-valid* unused frame from the pool.

        Frames the allocator revoked out from under us (transparent
        revocation takes unused frames without asking) are lazily
        discarded here, so a stale pool entry can never be mapped — the
        map() validation would reject it anyway, but we should not even
        try.
        """
        while self._free:
            pfn = self._free.pop()
            if self.frames.owns_unused(pfn):
                return pfn
        return None

    # -- mapping helpers ----------------------------------------------------

    def _map_page(self, va, pfn, nailed=False):
        page_va = self.machine.page_base(self.machine.page_of(va))
        self.translation.map(self.domain, page_va, pfn, nailed=nailed)
        info = self.frames.stack.info(pfn)
        info["vpn"] = self.machine.page_of(va)
        info["driver"] = self.name
        # A frame in use is one the domain least wants revoked.
        self.frames.stack.move_to_bottom(pfn)

    def _unmap_page(self, vpn):
        va = self.machine.page_base(vpn)
        pfn, was_dirty = self.translation.unmap(self.domain, va)
        info = self.frames.stack.info(pfn)
        info.pop("vpn", None)
        self.frames.stack.move_to_top(pfn)
        return pfn, was_dirty

    # -- the driver interface ---------------------------------------------------

    def try_fast(self, fault):
        """Attempt resolution inside the notification handler."""
        raise NotImplementedError

    def handle_slow(self, fault):
        """Worker-thread resolution; generator of thread effects
        returning True on success."""
        raise NotImplementedError

    def release_frames(self, k, deadline=None):
        """Generator: arrange >= min(k, possible) unused frames on top
        of the stack; returns the number arranged.

        ``deadline`` (absolute simulated time, or None) is the
        revocation deadline: a driver whose releases cost IO should
        stop starting new clean operations once it would overrun, and
        return the partial count — the allocator re-asks rather than
        killing a domain that made progress.
        """
        raise NotImplementedError

    # -- common fault sanity check -------------------------------------------------

    def _check_fault(self, fault):
        """Basic sanity: only page faults on our stretches are fixable."""
        if fault.code is not FaultCode.PAGE:
            return False
        vpn = self.machine.page_of(fault.va)
        for stretch in self.stretches.values():
            if stretch.base_vpn <= vpn < stretch.base_vpn + stretch.npages:
                return True
        return False

    def __repr__(self):
        return "<%s %s free=%d stretches=%d>" % (
            type(self).__name__, self.name, len(self._free),
            len(self.stretches))
