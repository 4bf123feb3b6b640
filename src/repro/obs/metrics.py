"""Metrics: labelled counters, gauges and fixed-bucket histograms.

The paper's central claim is *accountability*: every fault, frame and
disk transaction is attributable to exactly one application (§3, §5).
The trace subsystem (:mod:`repro.sim.trace`) records individual events;
this module adds the aggregate view — cheap, always-on counters labelled
by domain/client that tests and experiments can snapshot and diff, so a
QoS-crosstalk regression shows up as a non-zero delta on the *wrong*
label instead of a skewed figure after a full experiment re-run.

Design notes:

* Instruments are *families* keyed by label sets. Hot paths bind a
  child once (``family.child(domain="a")``) and pay one attribute load
  plus an integer add per event; one whose labels are known only per
  event keeps its children in a :class:`ChildCache`.
* A disabled registry (``MetricsRegistry(enabled=False)``) hands out
  shared null instruments whose mutators are no-ops and which allocate
  nothing per call — instrumented code needs no ``if metrics:`` guards.
* ``snapshot()`` captures the current values; ``snapshot.diff(earlier)``
  subtracts counters and histograms (gauges keep their current value),
  which is how tests assert "this workload cost N faults for domain X
  and zero for Y".
* A value its owner already keeps (a count, a queue's length) is
  counted once: the owner registers a reader,
  ``family.read(fn, domain="a")``, and every read of the family or a
  snapshot calls ``fn()``. Readers that share a label set are summed,
  so a domain re-admitted under its old name (a supervised restart)
  reads on top of its earlier incarnations. Nothing is pushed per
  event; a family is fed either by readers or by ``inc``/``set``,
  never both.

Everything is simulation-agnostic: no clocks, no simulator imports.
"""

import json
from bisect import bisect_left


def _label_key(labels):
    """Canonical, hashable form of a label set."""
    return tuple(sorted(labels.items()))


def _label_str(key):
    return ",".join("%s=%s" % kv for kv in key)


# -- null instruments (disabled registry) -----------------------------------


class _NullChild:
    """Shared do-nothing bound instrument."""

    __slots__ = ()

    def inc(self, amount=1):
        """Count nothing."""

    def dec(self, amount=1):
        """Count nothing."""

    def set(self, value):
        """Record nothing."""

    def set_max(self, value):
        """Record nothing."""

    def observe(self, value):
        """Record nothing."""

    @property
    def value(self):
        """Always 0."""
        return 0


#: The bound instrument every disabled family hands out: it accepts
#: inc/dec/set/observe and does nothing.
NULL_INSTRUMENT = _NullChild()


class _NullFamily:
    """Shared do-nothing metric family."""

    __slots__ = ()

    def child(self, **labels):
        """The shared do-nothing bound instrument."""
        return NULL_INSTRUMENT

    def inc(self, amount=1, **labels):
        """Count nothing."""

    def set(self, value, **labels):
        """Record nothing."""

    def observe(self, value, **labels):
        """Record nothing."""

    def read(self, fn, **labels):
        """Read nothing: ``fn`` is dropped."""

    def get(self, **labels):
        """Always 0."""
        return 0

    def series(self):
        """No series: a disabled family records nothing."""
        return {}


_NULL_FAMILY = _NullFamily()


# -- live instruments --------------------------------------------------------


class _BoundCounter:
    """A counter cell bound to one label set."""

    __slots__ = ("_cell",)

    def __init__(self, cell):
        self._cell = cell

    def inc(self, amount=1):
        """Add ``amount`` (never negative: counters only go up)."""
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        self._cell[0] += amount

    @property
    def value(self):
        """The count so far."""
        return self._cell[0]


class _BoundGauge:
    """A gauge cell bound to one label set."""

    __slots__ = ("_cell",)

    def __init__(self, cell):
        self._cell = cell

    def set(self, value):
        """Set the gauge to ``value``."""
        self._cell[0] = value

    def set_max(self, value):
        """Raise the gauge to ``value`` if that is higher (a peak)."""
        if value > self._cell[0]:
            self._cell[0] = value

    def inc(self, amount=1):
        """Raise the gauge by ``amount``."""
        self._cell[0] += amount

    def dec(self, amount=1):
        """Lower the gauge by ``amount``."""
        self._cell[0] -= amount

    @property
    def value(self):
        """The gauge's current value."""
        return self._cell[0]


class _HistogramCell:
    """Bucket counts + sum + count for one label set.

    The cell is also the bound instrument ``HistogramFamily.child()``
    hands out, so an observation is a single call.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.sum = 0
        self.count = 0

    def observe(self, value):
        """Record one observation in its bucket, the sum and the count."""
        self.count += 1
        self.sum += value
        # The first bucket whose bound is >= value (bounds are inclusive
        # upper bounds); past the last bound, the overflow bucket.
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self):
        """Mean of the observations (0.0 before the first)."""
        return self.sum / self.count if self.count else 0.0


class _Family:
    """Common machinery: one cell per distinct label set."""

    kind = "?"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._cells = {}  # label key -> cell

    def _new_cell(self):
        raise NotImplementedError

    def _bind(self, cell):
        raise NotImplementedError

    def _cell(self, labels):
        key = _label_key(labels)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self._new_cell()
        return cell

    def child(self, **labels):
        """Bind a label set once; the bound instrument is the hot path."""
        return self._bind(self._cell(labels))

    def series(self):
        """{label key tuple: plain value} for snapshots."""
        return {key: self._export(cell) for key, cell in self._cells.items()}


class _ScalarFamily(_Family):
    """A number per label set: kept in a cell, or read from its owner."""

    def __init__(self, name, help=""):
        super().__init__(name, help=help)
        self._readers = {}  # label key -> [fn, ...]

    def _new_cell(self):
        return [0]

    def _export(self, cell):
        return cell[0]

    def read(self, fn, **labels):
        """Read the series of ``labels`` as ``fn()`` whenever the family
        or a snapshot is read, summed with every other reader of the
        same label set."""
        self._readers.setdefault(_label_key(labels), []).append(fn)

    def get(self, **labels):
        """The value for ``labels`` (0 if never touched)."""
        key = _label_key(labels)
        readers = self._readers.get(key)
        if readers is not None:
            return sum(fn() for fn in readers)
        cell = self._cells.get(key)
        return cell[0] if cell else 0

    def series(self):
        """{label key tuple: plain value}, readers called now."""
        out = super().series()
        for key, readers in self._readers.items():
            out[key] = sum(fn() for fn in readers)
        return out


class CounterFamily(_ScalarFamily):
    """A monotone counter per label set."""

    kind = "counter"

    def _bind(self, cell):
        return _BoundCounter(cell)

    def inc(self, amount=1, **labels):
        """Add ``amount`` to the counter of ``labels``."""
        _BoundCounter(self._cell(labels)).inc(amount)


class GaugeFamily(_ScalarFamily):
    """A settable value per label set."""

    kind = "gauge"

    def _bind(self, cell):
        return _BoundGauge(cell)

    def set(self, value, **labels):
        """Set the gauge of ``labels`` to ``value``."""
        self._cell(labels)[0] = value

    def inc(self, amount=1, **labels):
        """Raise the gauge of ``labels`` by ``amount``."""
        self._cell(labels)[0] += amount


class HistogramFamily(_Family):
    """Bucketed observations (plus sum and count) per label set."""

    kind = "histogram"

    def __init__(self, name, buckets, help=""):
        super().__init__(name, help=help)
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be ascending")
        self.bounds = bounds

    def _new_cell(self):
        return _HistogramCell(self.bounds)

    def _bind(self, cell):
        return cell

    def observe(self, value, **labels):
        """Record one observation for ``labels``."""
        self._cell(labels).observe(value)

    def get(self, **labels):
        """``{"count", "sum", "buckets"}`` for ``labels``."""
        cell = self._cells.get(_label_key(labels))
        if cell is None:
            return {"count": 0, "sum": 0,
                    "buckets": [0] * (len(self.bounds) + 1)}
        return self._export(cell)

    def _export(self, cell):
        return {"count": cell.count, "sum": cell.sum,
                "buckets": list(cell.counts)}


class ChildCache(dict):
    """Bound instruments by a caller's key, each bound on first use.

    For a per-event path whose label values are only known at run time
    (a driver's name, a span's name and client): ``cache[key]`` is one
    dict lookup, where ``family.inc(**labels)`` sorts a label dict per
    call. ``bind(key)`` returns the bound child for ``key``, e.g.
    ``ChildCache(lambda driver: family.child(driver=driver.name))``.
    """

    __slots__ = ("_bind",)

    def __init__(self, bind):
        super().__init__()
        self._bind = bind

    def __missing__(self, key):
        child = self[key] = self._bind(key)
        return child


# Default latency bucket bounds (ns): 1 us .. 10 s, roughly log-spaced.
LATENCY_BUCKETS_NS = (
    1_000, 10_000, 100_000, 1_000_000, 5_000_000, 10_000_000,
    50_000_000, 100_000_000, 500_000_000, 1_000_000_000, 10_000_000_000,
)


class MetricsSnapshot:
    """An immutable capture of every metric series at one instant.

    ``data`` maps ``name -> (kind, {label key: value})`` where counter
    and gauge values are numbers and histogram values are
    ``{"count", "sum", "buckets"}`` dicts.
    """

    def __init__(self, data):
        self._data = data

    def names(self):
        """Every metric family name captured, sorted."""
        return sorted(self._data)

    def get(self, name, /, **labels):
        """Value of one series (0 / empty histogram if never touched)."""
        kind, series = self._data.get(name, ("counter", {}))
        value = series.get(_label_key(labels))
        if value is None:
            return {"count": 0, "sum": 0, "buckets": []} \
                if kind == "histogram" else 0
        return value

    def labels(self, name, /):
        """The label sets recorded under ``name``, as dicts."""
        _kind, series = self._data.get(name, ("counter", {}))
        return [dict(key) for key in series]

    def total(self, name, /, **labels):
        """Sum across label sets, optionally restricted to those that
        include ``labels`` (histograms sum their counts).

        ``total("faults_injected_total", client="pager")`` sums every
        kind of fault injected against one client.
        """
        kind, series = self._data.get(name, ("counter", {}))
        want = set(labels.items())
        if kind == "histogram":
            return sum(cell["count"] for key, cell in series.items()
                       if want <= set(key))
        return sum(value for key, value in series.items()
                   if want <= set(key))

    def diff(self, earlier):
        """The change since ``earlier``: counters and histograms
        subtract; gauges keep their current (newer) value."""
        out = {}
        for name, (kind, series) in self._data.items():
            _ekind, eseries = earlier._data.get(name, (kind, {}))
            if kind == "gauge":
                out[name] = (kind, dict(series))
                continue
            delta = {}
            for key, value in series.items():
                if kind == "histogram":
                    prev = eseries.get(key)
                    if prev is None:
                        delta[key] = dict(value, buckets=list(value["buckets"]))
                    else:
                        delta[key] = {
                            "count": value["count"] - prev["count"],
                            "sum": value["sum"] - prev["sum"],
                            "buckets": [a - b for a, b in
                                        zip(value["buckets"], prev["buckets"])],
                        }
                else:
                    delta[key] = value - eseries.get(key, 0)
            out[name] = (kind, delta)
        return MetricsSnapshot(out)

    def as_dict(self):
        """JSON-able form: {name: {"kind", "series": [{labels, value}]}}."""
        out = {}
        for name, (kind, series) in sorted(self._data.items()):
            out[name] = {
                "kind": kind,
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ],
            }
        return out

    def to_json(self, indent=2):
        """:meth:`as_dict` as sorted, indented JSON text."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "<MetricsSnapshot %d metrics>" % len(self._data)


class MetricsRegistry:
    """Owns every metric family of one system instance.

    Families are created on first request and are idempotent: asking for
    the same name twice returns the same family (with a kind check, so a
    name cannot silently change meaning).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._families = {}

    def _family(self, name, kind, factory):
        if not self.enabled:
            return _NULL_FAMILY
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = factory()
        elif family.kind != kind:
            raise ValueError("metric %r is a %s, not a %s"
                             % (name, family.kind, kind))
        return family

    def counter(self, name, help=""):
        """The counter family ``name`` (created on first request)."""
        return self._family(name, "counter",
                            lambda: CounterFamily(name, help=help))

    def gauge(self, name, help=""):
        """The gauge family ``name`` (created on first request)."""
        return self._family(name, "gauge",
                            lambda: GaugeFamily(name, help=help))

    def histogram(self, name, buckets=LATENCY_BUCKETS_NS, help=""):
        """The histogram family ``name`` with ``buckets`` as inclusive
        upper bounds (created on first request)."""
        return self._family(
            name, "histogram",
            lambda: HistogramFamily(name, buckets, help=help))

    def snapshot(self):
        """Capture every series right now (readers are called)."""
        data = {}
        for name, family in self._families.items():
            data[name] = (family.kind, family.series())
        return MetricsSnapshot(data)

    def to_json(self, indent=2):
        """A fresh snapshot as JSON text."""
        return self.snapshot().to_json(indent=indent)

    def render_text(self):
        """Aligned plain-text dump (debugging aid)."""
        lines = []
        for name, (kind, series) in sorted(self.snapshot()._data.items()):
            for key, value in sorted(series.items()):
                if kind == "histogram":
                    value = "count=%d sum=%d" % (value["count"], value["sum"])
                label = _label_str(key)
                lines.append("%s{%s} %s" % (name, label, value))
        return "\n".join(lines)


#: Shared always-disabled registry: the default for components built
#: outside a :class:`~repro.system.NemesisSystem` (unit tests, ad-hoc
#: scripts). Instruments from it are no-ops.
NULL_REGISTRY = MetricsRegistry(enabled=False)
