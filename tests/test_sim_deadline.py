"""The re-armable timer, :class:`repro.sim.core.Deadline`.

A ``Deadline`` stands for one ``_schedule`` per arm whose owner ignores
every arm but the latest (the MMEntry's fault watchdog, the Atropos lax
timer). The differential test holds it to exactly that reference: the
same callbacks at the same instants, in the same order among other
entries at those instants, and a heap run to exhaustion that stops at
the same instant. The regression test checks what it is for: a paged
application's resolved faults leave no watchdog entries on the heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Touch
from repro.sched.atropos import QoSSpec
from repro.sim.core import Deadline, Simulator
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024


class _PerArm:
    """The reference: one heap entry per arm, each carrying its arm's
    token, and a callback that returns at once unless its token is the
    latest (the owners' ``token != self._lax_wait`` check)."""

    def __init__(self, sim, fn):
        self.sim = sim
        self.fn = fn
        self.token = 0

    def arm(self, delay, arg):
        self.token += 1
        self.sim._schedule(delay, self._fire, (self.token, arg))

    def _fire(self, entry):
        token, arg = entry
        if token == self.token:
            self.fn(arg)


#: One arm: (instant it is made at, delay, delay of a re-arm made from
#: inside its own callback or None, whether probes mark its deadline).
#: Instants and delays share a small range so arms, deadlines and
#: probes often coincide; an unprobed deadline may be the last entry.
_TIMES = st.integers(min_value=0, max_value=40)
_ARMS = st.lists(st.tuples(_TIMES, _TIMES, st.one_of(st.none(), _TIMES),
                           st.booleans()),
                 min_size=1, max_size=12)
_SLICES = st.lists(st.integers(min_value=0, max_value=90), max_size=4)


def _run(timer_cls, arms, slices):
    """Drive one timer through ``arms``, with probes at a probed
    deadline's instant queued before and after its arm; return what was
    seen, the instant and count of records at each slice's end, and the
    instant a run to exhaustion stops at."""
    sim = Simulator()
    seen = []

    def probe(label):
        seen.append((sim.now, label))

    def fire(arg):
        seen.append((sim.now, "fire", arg))
        redelay = arms[arg][2] if arg < len(arms) else None
        if redelay is not None:
            timer.arm(redelay, len(arms) + arg)
            sim._schedule(redelay, probe, ("after re-arm", arg))

    def make_arm(index):
        _at, delay, _redelay, probed = arms[index]
        timer.arm(delay, index)
        if probed:
            sim._schedule(delay, probe, ("after", index))

    timer = timer_cls(sim, fire)
    for index, (at, delay, _redelay, probed) in enumerate(arms):
        if probed:
            sim._schedule(at + delay, probe, ("before", index))
        sim._schedule(at, make_arm, index)
    cuts = []
    for until in sorted(slices):
        sim.run(until=until)
        cuts.append((sim.now, len(seen)))
    sim.run()
    return seen, cuts, sim.now


@settings(max_examples=300, deadline=None)
@given(_ARMS, _SLICES)
def test_deadline_matches_one_entry_per_arm(arms, slices):
    assert _run(Deadline, arms, slices) == _run(_PerArm, arms, slices)


def test_a_later_arm_falling_earlier_fires_alone():
    """A later arm with an earlier deadline fires at its own instant,
    the first arm's entry pops later calling nothing, and the drained
    heap stops at the first arm's instant."""
    sim = Simulator()
    fired = []
    timer = Deadline(sim, lambda arg: fired.append((sim.now, arg)))
    timer.arm(100, "first")
    sim.call_at(10, lambda: timer.arm(20, "second"))
    sim.run()
    assert fired == [(30, "second")]
    assert sim.now == 100


def test_resolved_faults_leave_no_watchdog_entries():
    """With the default 30 s ``fault_timeout``, a paged application
    resolves a thousand slow faults in a few simulated seconds; each
    armed its worker's watchdog, and none of them stays on the heap."""
    system = NemesisSystem()
    app = system.new_app("pager", guaranteed_frames=2)
    stretch = app.new_stretch(8 * system.machine.page_size)
    app.bind(stretch, app.paged_driver(
        frames=2, swap_bytes=1 * MB,
        qos=QoSSpec(period_ns=100 * MS, slice_ns=40 * MS,
                    laxity_ns=2 * MS)))

    def body():
        for _ in range(130):
            for va in stretch.pages():
                yield Touch(va, AccessKind.READ)

    thread = app.spawn(body())
    system.sim.run_until_triggered(thread.done, limit=60 * SEC)
    assert system.sim.now < app.mmentry.fault_timeout
    assert app.mmentry.slow_resolved >= 1000
    assert len(system.sim._heap) < 20
