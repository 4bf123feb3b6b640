"""Timestamped trace recording.

The paper's Figures 7 and 8 include *USD scheduler traces*: per-client
transactions (filled boxes whose width is the transaction duration), lax
time (solid lines between transactions) and new allocations (small
arrows at period boundaries). :class:`Trace` records exactly these kinds
of events; the experiment harness renders them as series or ASCII plots.

Traces are cheap, append-only lists of :class:`TraceEvent`, filterable by
kind and client and sliceable by time window.
"""

from typing import List


class TraceEvent:
    """One trace record (treat as immutable once recorded).

    A plain ``__slots__`` class rather than a dataclass: traces on busy
    runs hold millions of events, and slots cut both the per-event
    memory and the construction cost roughly in half.

    Attributes:
        time: simulated time (ns) at which the event *started*.
        kind: free-form tag, e.g. ``"txn"``, ``"lax"``, ``"alloc"``.
        client: name of the client/domain the event belongs to.
        duration: event duration in ns (0 for instantaneous events).
        info: extra payload (request kind, remaining allocation, ...).
    """

    __slots__ = ("time", "kind", "client", "duration", "info")

    def __init__(self, time, kind, client, duration=0, info=None):
        self.time = time
        self.kind = kind
        self.client = client
        self.duration = duration
        self.info = {} if info is None else info

    @property
    def end(self):
        return self.time + self.duration

    def __repr__(self):
        return ("TraceEvent(time=%r, kind=%r, client=%r, duration=%r, "
                "info=%r)" % (self.time, self.kind, self.client,
                              self.duration, self.info))


class Trace:
    """Append-only trace with simple query helpers."""

    def __init__(self, name=""):
        self.name = name
        self.events: List[TraceEvent] = []

    def record(self, time, kind, client, duration=0, **info):
        """Append an event; returns it for convenience."""
        event = TraceEvent(time, kind, client, duration, info)
        self.events.append(event)
        return event

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def filter(self, kind=None, client=None, start=None, end=None):
        """Return events matching all given criteria.

        ``start``/``end`` select events whose start time lies in
        ``[start, end)``.
        """
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if client is not None and event.client != client:
                continue
            if start is not None and event.time < start:
                continue
            if end is not None and event.time >= end:
                continue
            out.append(event)
        return out

    def clients(self) -> List[str]:
        """Distinct client names in first-appearance order."""
        seen = []
        for event in self.events:
            if event.client not in seen:
                seen.append(event.client)
        return seen

    def total_duration(self, kind=None, client=None, start=None, end=None):
        """Sum of durations of matching events (ns)."""
        return sum(e.duration for e in self.filter(kind, client, start, end))

    def count(self, kind=None, client=None, start=None, end=None):
        """Number of matching events."""
        return len(self.filter(kind, client, start, end))
