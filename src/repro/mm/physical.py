"""The physical stretch driver.

§6.6: provides no backing initially; the first access to any page
faults. The fast path (inside the notification handler) maps an unused
frame if one is available; otherwise it returns ``Retry`` and a worker
thread — where IDC is permitted — asks the frames allocator for more
frames. If that fails too, the outcome is ``Failure`` (and the faulting
thread dies: self-paging has no safety net).

Pages materialise demand-zeroed; there is no backing store, so frames
released under revocation pressure lose their contents.
"""

from repro.hw.mmu import FaultCode
from repro.kernel.threads import Compute, Wait
from repro.mm.sdriver import FaultOutcome, StretchDriver


class PhysicalDriver(StretchDriver):
    """Demand-allocated physical memory, no paging."""

    kind = "physical"

    def __init__(self, name, domain, frames_client, translation,
                 zero_on_map=True):
        super().__init__(name, domain, frames_client, translation)
        self.zero_on_map = zero_on_map
        self._resident = []  # vpns in mapping order (oldest first)

    # -- fault handling ------------------------------------------------------

    def try_fast(self, fault):
        """Map a pool frame at the faulting page; RETRY if none is free."""
        if not self._check_fault(fault):
            return FaultOutcome.FAILURE
        pfn = self._pop_free()
        if pfn is None:
            return FaultOutcome.RETRY
        self.faults_fast += 1
        if self.zero_on_map:
            self.translation.meter.charge("zero_page")
        self._map_page(fault.va, pfn)
        self._resident.append(self.machine.page_of(fault.va))
        return FaultOutcome.SUCCESS

    def handle_slow(self, fault):
        """Worker-thread path: get more frames via IDC, then map."""
        if not self._check_fault(fault):
            return False
        self.faults_slow += 1
        pfn = self._pop_free()
        if pfn is None:
            granted = yield Wait(self.frames.request_frames(1))
            if not granted:
                return False
            self.adopt_frames(granted)
            pfn = self._pop_free()
            if pfn is None:
                return False
        if self.zero_on_map:
            yield Compute(self.translation.meter.model["zero_page"],
                          label="zero")
        self._map_page(fault.va, pfn)
        self._resident.append(self.machine.page_of(fault.va))
        return True

    # -- revocation ---------------------------------------------------------------

    def release_frames(self, k, deadline=None):
        """Arrange up to ``k`` unused frames on top of the stack.

        Pool frames are offered first; then mapped pages are sacrificed
        oldest-first (their contents are lost — a physical stretch
        driver has nowhere to save them, which is why time-sensitive
        domains avoid optimistic frames, §6.2).
        """
        arranged = 0
        for pfn in list(self._free):
            if arranged >= k:
                break
            if not self.frames.owns_unused(pfn):
                self._free.remove(pfn)   # revoked under us; drop stale entry
                continue
            self.frames.stack.move_to_top(pfn)
            arranged += 1
        while arranged < k and self._resident:
            vpn = self._resident.pop(0)
            pfn, _dirty = self._unmap_page(vpn)
            self._free.append(pfn)
            arranged += 1
        return arranged
        yield  # pragma: no cover  (generator interface)
