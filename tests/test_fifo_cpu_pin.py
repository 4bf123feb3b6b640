"""Exact-output pin for the default FIFO CPU.

``NemesisSystem()`` serves every domain's bursts through one
:class:`~repro.kernel.cpu.FifoCpu`, the CPU of every paper figure. The
figure tests check ranges; this test pins exact values, so a change to
the burst path (domain turn, CPU account, FIFO server) that shifts a
charged nanosecond or reorders two same-instant heap entries fails
here. One small mixed workload:

* two paged self-pagers with 2 frames each, so every other touch
  faults through the MMEntry, the USD and the disk; the second pager's
  second thread sleeps (``Wait``) and ``Yield``\\ s between touches;
* a compute domain whose bursts exceed the 1 ms quantum, so they are
  split into chunks, with a thread that sleeps and yields too;
* the first pager is killed (``app.domain.kill``) at a fixed simulated
  time, mid-stream.

It pins each CPU account's ``consumed_ns`` and ``bursts``, each
thread's touch (or compute-step) count, a BLAKE2b digest of every CPU
burst's completion time in completion order, and the dispatched-event
count. Completion times are recorded by wrappers of
:meth:`FifoCpu._complete <repro.kernel.cpu.FifoCpu._complete>` and of
:meth:`FifoCpu._run_ahead <repro.kernel.cpu.FifoCpu._run_ahead>`, for
the bursts that complete inline; neither pushes a heap entry of its
own.

Any edit to the expected values must say which simulated result changed
and why.
"""

import hashlib

from repro.hw.mmu import AccessKind
from repro.kernel.cpu import FifoCpu
from repro.kernel.threads import Compute, Touch, Wait, Yield
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, US
from repro.system import NemesisSystem

MB = 1024 * 1024
PAGER_QOS = QoSSpec(period_ns=100 * MS, slice_ns=40 * MS, extra=True,
                    laxity_ns=5 * MS)
PAGES = 6
KILL_AT = 121 * MS + 250 * US
RUN_NS = 300 * MS

EXPECTED_ACCOUNTS = {
    # name: (consumed_ns, bursts)
    "pin-a": (707010, 108),
    "pin-b": (1979800, 336),
    "pin-crunch": (274452200, 129),
}
EXPECTED_STEPS = {
    "pin-a-t0": 9, "pin-a-t1": 9,
    "pin-b-t0": 26, "pin-b-t1": 26,
    "pin-crunch-t0": 127,
}
EXPECTED_COMPLETIONS = 771
EXPECTED_DIGEST = "39f1ae92d3c0b553da687cf012746dab"
EXPECTED_EVENTS = 2129


def _pager(sim, stretch, steps, key, sleeps):
    step = 0
    while True:
        for va in stretch.pages():
            yield Touch(va, AccessKind.WRITE if step % 2 else AccessKind.READ)
            steps[key] += 1
            yield Compute(20 * US + 3 * US * (step % 4))
            step += 1
            if sleeps and step % 3 == 0:
                yield Wait(sim.timeout(90 * US + 40 * US * (step % 5)))
            if sleeps and step % 4 == 0:
                yield Yield()


def _compute(sim, steps, key):
    step = 0
    while True:
        yield Compute(1 * MS + 700 * US + 150 * US * (step % 7), label="crunch")
        steps[key] += 1
        step += 1
        if step % 2 == 0:
            yield Wait(sim.timeout(400 * US))
        else:
            yield Yield()


def run_pin_workload(monkeypatch):
    system = NemesisSystem()
    sim = system.sim
    completions = []
    complete = FifoCpu._complete
    run_ahead = FifoCpu._run_ahead

    def recording_complete(cpu):
        completions.append(sim.now)
        complete(cpu)

    def recording_run_ahead(cpu, ns):
        ran = run_ahead(cpu, ns)
        if ran:
            completions.append(sim.now)
        return ran

    monkeypatch.setattr(FifoCpu, "_complete", recording_complete)
    monkeypatch.setattr(FifoCpu, "_run_ahead", recording_run_ahead)
    page_size = system.machine.page_size
    steps = {}
    apps = {}
    for name, sleepers in (("pin-a", (False, False)),
                           ("pin-b", (False, True))):
        app = system.new_app(name, guaranteed_frames=4)
        stretch = app.new_stretch(PAGES * page_size)
        app.bind(stretch, app.paged_driver(frames=2, swap_bytes=1 * MB,
                                           qos=PAGER_QOS))
        for index, sleeps in enumerate(sleepers):
            key = "%s-t%d" % (name, index)
            steps[key] = 0
            app.spawn(_pager(sim, stretch, steps, key, sleeps), name=key)
        apps[name] = app
    crunch = system.new_app("pin-crunch", guaranteed_frames=1)
    steps["pin-crunch-t0"] = 0
    crunch.spawn(_compute(sim, steps, "pin-crunch-t0"), name="pin-crunch-t0")
    apps["pin-crunch"] = crunch
    sim.call_at(KILL_AT, lambda: apps["pin-a"].domain.kill("pin"))
    system.run_for(RUN_NS)
    accounts = {name: (app.domain.cpu.consumed_ns, app.domain.cpu.bursts)
                for name, app in apps.items()}
    digest = hashlib.blake2b(digest_size=16)
    for when in completions:
        digest.update(b"%d\n" % when)
    return (accounts, steps, len(completions), digest.hexdigest(),
            sim.events_dispatched)


def test_fifo_cpu_output_is_pinned(monkeypatch):
    accounts, steps, completions, digest, events = run_pin_workload(
        monkeypatch)
    assert accounts == EXPECTED_ACCOUNTS
    assert steps == EXPECTED_STEPS
    assert completions == EXPECTED_COMPLETIONS
    assert digest == EXPECTED_DIGEST
    assert events == EXPECTED_EVENTS
