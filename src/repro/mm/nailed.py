"""The nailed stretch driver.

§6.6: "The simplest is the nailed stretch driver; this provides
physical frames to back a stretch at bind time, and hence never deals
with page faults." Time-sensitive code uses it for memory that must
never incur paging delay.
"""

from repro.mm.sdriver import FaultOutcome, StretchDriver


class NailedDriver(StretchDriver):
    """Backs every page at bind time with nailed frames."""

    kind = "nailed"

    def bind(self, stretch):
        """Bind and immediately back the whole stretch.

        Allocates ``stretch.npages`` frames from the domain's contract
        (synchronously — a nailed stretch is an initialisation-time
        construct) and maps each page nailed.
        """
        super().bind(stretch)
        needed = stretch.npages - len(self._free)
        if needed > 0:
            self.provide_frames(needed)
        for va in stretch.pages():
            pfn = self._free.pop()
            self._map_page(va, pfn, nailed=True)
        return stretch

    def try_fast(self, fault):
        """Always FAILURE: a nailed stretch never faults legitimately."""
        # A nailed stretch cannot legitimately fault: the frames are
        # there. Any fault is a bug (or a protection violation) and there
        # is no safety net.
        self.faults_fast += 1
        return FaultOutcome.FAILURE

    def handle_slow(self, fault):
        """Fails: a nailed stretch has nothing to fetch."""
        return False
        yield  # pragma: no cover  (keeps this a generator)

    def release_frames(self, k, deadline=None):
        """Nailed frames are immune; only pool frames can be offered."""
        arranged = 0
        for pfn in list(self._free):
            if arranged >= k:
                break
            if not self.frames.owns_unused(pfn):
                self._free.remove(pfn)   # revoked under us; drop stale entry
                continue
            self.frames.stack.move_to_top(pfn)
            arranged += 1
        return arranged
        yield  # pragma: no cover
