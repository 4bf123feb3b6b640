"""Structured span tracing over simulated time.

A *span* is an enter/exit pair with simulated timestamps: the slow leg
of a fault, a revocation round-trip, a USD transaction. Spans unify
with the existing :class:`~repro.sim.trace.Trace` — each finished span
is recorded as a ``TraceEvent`` with ``kind="span"`` and the span name
in ``info`` — so every query helper (``filter``, ``between``,
``total_duration``) works on spans unchanged, and span durations also
feed a latency histogram per (name, client) in the metrics registry.

Spans work naturally inside simulation generators: start before the
first ``yield``, end after the last one — the simulated clock advances
in between. The context-manager form works too, because ``__exit__``
runs when the generator's control flow leaves the block, at whatever
simulated time is then current::

    with tracer.measure("fault.slow", client=domain.name):
        ok = yield from driver.handle_slow(fault)
"""

from contextlib import contextmanager

from repro.obs.metrics import ChildCache, LATENCY_BUCKETS_NS, NULL_REGISTRY


class Span:
    """One open span; call :meth:`end` exactly once."""

    __slots__ = ("tracer", "name", "client", "start", "info", "closed")

    def __init__(self, tracer, name, client, start, info):
        self.tracer = tracer
        self.name = name
        self.client = client
        self.start = start
        self.info = info
        self.closed = False

    def end(self, **info):
        """Close the span at the current simulated time."""
        if self.closed:
            return
        self.closed = True
        if info:
            self.info.update(info)
        self.tracer._finish(self)

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return "<Span %s/%s %s>" % (self.name, self.client, state)


class _NullSpan:
    __slots__ = ()

    def end(self, **info):
        """Record nothing."""


_NULL_SPAN = _NullSpan()


class SpanTracer:
    """Creates spans, timestamps them, and fans out the results."""

    def __init__(self, sim, trace=None, metrics=None):
        self.sim = sim
        self.trace = trace
        metrics = metrics if metrics is not None else NULL_REGISTRY
        histogram = metrics.histogram(
            "span_ns", buckets=LATENCY_BUCKETS_NS,
            help="span durations by (name, client)")
        self._histograms = ChildCache(
            lambda key: histogram.child(name=key[0], client=key[1]))
        # With no trace attached and a disabled registry a finished span
        # would go nowhere: hand out the shared null span so fully
        # disabled observability allocates nothing per measurement.
        self._off = trace is None and not metrics.enabled
        self.started = 0
        self.finished = 0

    def start(self, name, client="", **info):
        """Open a span at the current simulated time."""
        if self._off:
            return _NULL_SPAN
        self.started += 1
        return Span(self, name, client, self.sim.now, info)

    @contextmanager
    def measure(self, name, client="", **info):
        """Context-manager form; ends the span even on exceptions."""
        span = self.start(name, client, **info)
        try:
            yield span
        finally:
            span.end()

    def _finish(self, span):
        self.finished += 1
        duration = self.sim.now - span.start
        if self.trace is not None:
            self.trace.record(span.start, "span", span.client,
                              duration=duration, name=span.name, **span.info)
        self._histograms[span.name, span.client].observe(duration)


class NullTracer:
    """Tracer with the same surface and no effect (and no clock)."""

    def start(self, name, client="", **info):
        """The shared null span: nothing is timed."""
        return _NULL_SPAN

    @contextmanager
    def measure(self, name, client="", **info):
        """Context-manager form, yielding the null span."""
        yield _NULL_SPAN


#: Shared no-op tracer: the default for components built outside a
#: :class:`~repro.system.NemesisSystem`.
NULL_TRACER = NullTracer()
