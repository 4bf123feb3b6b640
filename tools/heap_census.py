"""Count the heap entries one benchmark window dispatches, by callable.

Runs one ``perfbench`` workload's setup and one window at a seed, as
``perfbench/run.py`` does (its workload classes are imported, not
copied), and prints:

* every heap entry the window dispatched, by callable, most frequent
  first, then their total beside the window's ``sim.events``;
* the simulator heaps at the window's end: their entries, by callable,
  and their size.

A callable is named by its qualified name (``AtroposScheduler._elapsed``;
a ``functools.partial`` as ``partial(...)`` of its function, and a
``Deadline``'s entry as ``Deadline(...)`` of the callable it fires).
The counts are deterministic at a seed. Entries are counted as
``repro.sim.core`` pops them, so the tool slows the window down; it
measures no time. A mission_mix window builds one simulator per
mission: its counts are summed over them.

Usage::

    python3 tools/heap_census.py --workload W [--seed S]
"""

import argparse
import functools
import os
import sys
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def label(fn):
    """The name a heap entry's callable is counted under."""
    if isinstance(fn, functools.partial):
        return "partial(%s)" % label(fn.func)
    owner = getattr(fn, "__self__", None)
    if type(owner).__name__ == "Deadline":
        return "Deadline(%s)" % label(owner.fn)
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__


def census(workload, seed):
    """Run ``workload``'s setup and one window at ``seed``; return the
    window's dispatched entries and the end-of-window heaps, each a
    ``Counter`` by callable, and the window's ``sim.events``."""
    for path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import heapq

    from repro.sim import core
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(sorted(WORKLOADS))))

    dispatched = Counter()
    simulators = []
    heappop = heapq.heappop

    def counting_pop(heap):
        entry = heappop(heap)
        dispatched[label(entry[2])] += 1
        return entry

    init = core.Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        simulators.append(sim)

    # Only repro.sim.core sees the counting pop: it calls heapq through
    # its module global, and nothing else in the process changes.
    core.heapq = types.SimpleNamespace(heappush=heapq.heappush,
                                       heappop=counting_pop)
    core.Simulator.__init__ = recording_init
    try:
        work = WORKLOADS[workload](seed)
        work.setup()
        dispatched.clear()
        work.window()
    finally:
        core.heapq = heapq
        core.Simulator.__init__ = init
    result = work.finish()
    heap = Counter(label(entry[2]) for sim in simulators
                   for entry in sim._heap)
    return dispatched, heap, result["layers"]["sim.events"]


def _table(counts):
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print("%10s  %s" % (format(count, ","), name))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1999)
    args = parser.parse_args(argv)
    dispatched, heap, events = census(args.workload, args.seed)
    print("entries dispatched in one %s window at seed %d, by callable:"
          % (args.workload, args.seed))
    _table(dispatched)
    print("total %s (sim.events %s)"
          % (format(sum(dispatched.values()), ","), format(events, ",")))
    print("heap at the window's end, by callable:")
    _table(heap)
    print("heap size %s" % format(sum(heap.values()), ","))
    return 0


if __name__ == "__main__":
    sys.exit(main())
