"""Deterministic discrete-event simulation kernel.

Everything in the reproduction runs on this substrate: simulated hardware
(disk, MMU), the Nemesis kernel (domains, events, schedulers) and the
applications are all processes advancing a single integer-nanosecond clock.

The design is a small, from-scratch process-based simulator:

* :class:`~repro.sim.core.Simulator` owns the event heap and the clock.
* :class:`~repro.sim.core.SimEvent` is a one-shot occurrence that processes
  may wait on by ``yield``-ing it.
* :class:`~repro.sim.core.Process` wraps a generator; each ``yield`` of a
  :class:`SimEvent` suspends the process until the event triggers. A
  process is itself an event (it triggers when the generator returns), so
  processes can join one another.
* :class:`~repro.sim.core.Deadline` is a re-armable timer: each arm
  supersedes the last without leaving a dead entry per arm on the heap.
* :class:`~repro.sim.trace.Trace` records timestamped, typed trace events
  (the USD scheduler traces of Figures 7 and 8 are rendered from these).

Determinism: the heap breaks time ties by insertion sequence number, and
no wall-clock or unseeded randomness is used anywhere in the package, so
every experiment is exactly reproducible.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Deadline,
    Interrupt,
    Process,
    SimEvent,
    Simulator,
    Timeout,
)
from repro.sim.trace import Trace, TraceEvent
from repro.sim.units import MS, NS, SEC, US, fmt_time, from_ms, from_sec, from_us, to_ms, to_sec, to_us

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadline",
    "Interrupt",
    "MS",
    "NS",
    "Process",
    "SEC",
    "SimEvent",
    "Simulator",
    "Timeout",
    "Trace",
    "TraceEvent",
    "US",
    "fmt_time",
    "from_ms",
    "from_sec",
    "from_us",
    "to_ms",
    "to_sec",
    "to_us",
]
