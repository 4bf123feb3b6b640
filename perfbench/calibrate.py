"""A fixed reference load that measures how fast the host runs Python.

The host the benchmark runs on is shared: its speed drifts by up to 2x
over minutes, for every kind of Python code at once. While a
``Speedometer`` runs, a CPU-time interval timer interrupts the measured
work every ``INTERVAL_S`` and runs one lap of a small fixed load in the
signal handler, so that a host time can be scaled by the reference time
measured beside it, and the laps' own time taken out of it. The load is
the benchmark's own code and never touches ``repro``, so a change to
the program cannot speed it up; it reads and writes none of the
program's state, so the simulation runs exactly as without it.

One lap has two halves that together track the drift better than
either alone:

* a discrete-event loop that mixes what the simulator spends its time
  on: a heap of ``(time, seq, fn, arg)`` entries, generator processes
  resumed with ``send``, bound-method dispatch, attribute reads and
  writes on small objects, and dict counters;
* a dependent walk through a 4 MB array in scattered order, which
  slows, as the simulator does, when other tenants take the shared
  caches.
"""

import array
import contextlib
import heapq
import signal
import statistics
import time

#: Seconds one lap takes on a nominal host: host times are reported
#: as the seconds they would have taken at that speed.
NOMINAL_LAP_S = 0.005
#: CPU seconds between laps.
INTERVAL_S = 0.025

_CHAIN_LENGTH = 1 << 20
_CHAIN_STEPS = 24000
_EVENTS = 2400
_PROCS = 32


class _Proc:
    __slots__ = ("gen", "loop", "count")

    def __init__(self, loop, gen):
        self.loop = loop
        self.gen = gen
        self.count = 0

    def resume(self, value):
        self.count += 1
        delay = self.gen.send(value)
        self.loop.push(delay, self.resume, self.count)


class _Loop:
    def __init__(self):
        self.heap = []
        self.now = 0
        self.seq = 0
        self.stats = {}

    def push(self, delay, fn, arg):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, arg))

    def run(self, events):
        heap = self.heap
        heappop = heapq.heappop
        for _ in range(events):
            entry = heappop(heap)
            self.now = entry[0]
            entry[2](entry[3])


def _worker(loop, index):
    stats = loop.stats
    key = "w%d" % (index % 5)
    step = 3 + index % 7
    value = yield 1
    while True:
        stats[key] = stats.get(key, 0) + value
        value = yield step + value % 11


def event_loop_lap():
    """Run the fixed discrete-event loop once; returns a checksum."""
    loop = _Loop()
    for index in range(_PROCS):
        proc = _Proc(loop, _worker(loop, index))
        next(proc.gen)
        loop.push(index, proc.resume, 0)
    loop.run(_EVENTS)
    return loop.now + sum(loop.stats.values())


def _chain():
    """One cycle through every slot: ``i -> 162013 i + 1`` modulo a
    power of two has full period (the multiplier is 1 mod 4, the
    increment odd), and the large multiplier scatters the steps."""
    mask = _CHAIN_LENGTH - 1
    return array.array("i", ((162013 * i + 1) & mask
                             for i in range(_CHAIN_LENGTH)))


class Speedometer:
    """Reference laps, timed, while the measured work runs."""

    def __init__(self):
        self.laps = []             # (perf_counter at start, seconds)
        self.chain = _chain()
        self.at = 0
        self.checksum = event_loop_lap()
        self._busy = False

    def lap(self):
        """One timed reference lap, kept in ``laps``."""
        clock = time.perf_counter
        chain = self.chain
        start = clock()
        value = event_loop_lap()
        at = self.at
        for _ in range(_CHAIN_STEPS):
            at = chain[at]
        self.laps.append((start, clock() - start))
        self.at = at
        if value != self.checksum:
            raise RuntimeError("reference loop is not deterministic")

    def _on_timer(self, _signum, _frame):
        if not self._busy:
            self._busy = True
            try:
                self.lap()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Lap every ``INTERVAL_S`` of CPU time inside the block."""
        previous = signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def between(self, start, end):
        """Seconds of each lap that began in ``[start, end)``."""
        return [seconds for at, seconds in self.laps if start <= at < end]


def speed(lap_seconds):
    """The host's speed relative to the nominal one, from lap times:
    host seconds times speed are nominal seconds."""
    return NOMINAL_LAP_S / statistics.fmean(lap_seconds)
