"""The per-stretch pager registry.

The MMEntry of §6.5 "coordinates the set of stretch drivers used by
the domain": faults are demultiplexed to the driver bound to the
faulting stretch, and a revocation notification "cycles through each
stretch driver requesting that it relinquish frames until enough have
been freed". This module makes that set a first-class object with a
*declared* revocation order, so one domain can deliberately run
several pager personalities at once (Klimiankou's multi-pager
environment) and still decide which personality pays first under
memory pressure — nailed regions last, forgetful caches first.

The registry is deliberately dependency-free: it stores drivers and
stretch ids, nothing else, so it can sit underneath
:class:`repro.mm.mmentry.MMEntry` without layering cycles.
"""

import itertools


class PagerRegistry:
    """Stretch-id -> driver demux plus a declared revocation order.

    Drivers are registered once (idempotently) with an optional
    integer ``priority``; revocation asks drivers in ascending
    priority (ties broken by registration order), so the *first*
    registered personalities give up frames first by default. Fault
    demux is by stretch ownership and never consults priority.
    """

    def __init__(self):
        self._order = []        # drivers in registration order
        self._priority = {}     # id(driver) -> (priority, seq)
        self._by_sid = {}       # stretch id -> driver
        self._seq = itertools.count()

    # -- registration ------------------------------------------------------

    def register(self, driver, priority=None):
        """Track ``driver`` (idempotent); ``priority`` orders revocation.

        ``None`` assigns the next registration index, preserving the
        historical cycle-in-registration-order behaviour. Re-registering
        with an explicit priority re-ranks an existing driver.
        """
        key = id(driver)
        if key not in self._priority:
            seq = next(self._seq)
            self._order.append(driver)
            self._priority[key] = (seq if priority is None else priority,
                                   seq)
        elif priority is not None:
            self._priority[key] = (priority, self._priority[key][1])

    def bind(self, stretch, driver, priority=None):
        """Register ``driver`` and route ``stretch``'s faults to it."""
        self.register(driver, priority=priority)
        self._by_sid[stretch.sid] = driver
        return stretch

    # -- lookup ------------------------------------------------------------

    def driver_for_sid(self, sid):
        """The driver owning stretch ``sid``, or None."""
        return self._by_sid.get(sid)

    @property
    def drivers(self):
        """Registered drivers in registration order (a copy)."""
        return list(self._order)

    def in_priority_order(self):
        """Drivers in declared revocation order (ascending priority,
        registration order on ties)."""
        return sorted(self._order,
                      key=lambda driver: self._priority[id(driver)])

    def priority_of(self, driver):
        """The declared priority of a registered driver."""
        return self._priority[id(driver)][0]

    # -- protocol ----------------------------------------------------------

    def __len__(self):
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def __contains__(self, driver):
        return id(driver) in self._priority

    def __repr__(self):
        return "<PagerRegistry drivers=%d stretches=%d>" % (
            len(self._order), len(self._by_sid))
