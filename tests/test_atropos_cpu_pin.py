"""Exact-output pin for the single-core Atropos CPU.

``NemesisSystem(cpu="atropos")`` runs every domain's bursts through one
:class:`~repro.sched.atropos.AtroposScheduler`. The sensitivity and
integration tests only check ranges there, so this test pins exact
values: a change to the burst path (domain step, CPU account, scheduler
loop) that shifts a charged nanosecond or reorders two same-instant
heap entries fails here. It pins the per-client accounting (on the
clients and in the core's live ``sched_*{sched="cpu0"}`` counters),
per-thread progress and dispatched-event count of one small mixed
workload:

* three contracted domains (40%, 25% with laxity, 10%) and one
  slack-eligible 5% domain, two threads each;
* every thread touches its domain's resident pages and computes between
  touches; the laxity domain's threads also sleep (``Wait``) and
  ``Yield`` now and then, so the lax-wait path is charged too.

Any edit to the expected values must say which simulated result changed
and why.
"""

import random

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Compute, Touch, Wait, Yield
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, US
from repro.system import NemesisSystem

PERIOD = 10 * MS
#: (domain, slice, slack-eligible, laxity, sleeps)
CONTRACTS = (
    ("pin-40", 4 * MS, False, 0, False),
    ("pin-25", 2500 * US, False, 300 * US, True),
    ("pin-10", 1 * MS, False, 0, False),
    ("pin-bg", 500 * US, True, 0, False),
)
THREADS = 2
PAGES = 16
RUN_NS = 100 * MS

EXPECTED_CLIENTS = {
    # name: (served_ns, lax_ns, slack_ns, served_items, slack_items)
    "pin-40": (40001311, 0, 0, 1835, 0),
    "pin-25": (20773391, 4226609, 0, 1047, 0),
    "pin-10": (10061735, 0, 0, 427, 0),
    "pin-bg": (5057923, 0, 19872471, 279, 1035),
}
EXPECTED_TOUCHES = {
    "pin-40-t0": 450, "pin-40-t1": 451,
    "pin-25-t0": 252, "pin-25-t1": 252,
    "pin-10-t0": 98, "pin-10-t1": 99,
    "pin-bg-t0": 321, "pin-bg-t1": 320,
}
EXPECTED_EVENTS = 9668


def _worker(system, visit, computes, touches, key, sleeps):
    sim = system.sim
    step = 0
    while True:
        for va, ns in zip(visit, computes):
            yield Touch(va, AccessKind.WRITE if step % 3 == 0
                        else AccessKind.READ)
            touches[key] += 1
            yield Compute(ns, label="work")
            step += 1
            if sleeps and step % 7 == 0:
                yield Wait(sim.timeout(150 * US + 10 * US * (step % 5)))
            if sleeps and step % 11 == 0:
                yield Yield()


def run_pin_workload():
    rng = random.Random(20260807)
    system = NemesisSystem(cpu="atropos")
    page_size = system.machine.page_size
    touches = {}
    for name, slice_ns, extra, laxity, sleeps in CONTRACTS:
        qos = QoSSpec(period_ns=PERIOD, slice_ns=slice_ns, extra=extra,
                      laxity_ns=laxity)
        app = system.new_app(name, guaranteed_frames=PAGES, cpu_qos=qos)
        stretch = app.new_stretch(PAGES * page_size)
        app.bind(stretch, app.physical_driver(frames=PAGES))
        pages = list(stretch.pages())
        for index in range(THREADS):
            visit = list(pages)
            rng.shuffle(visit)
            computes = [rng.randrange(15 * US, 70 * US) for _ in visit]
            key = "%s-t%d" % (name, index)
            touches[key] = 0
            app.spawn(_worker(system, visit, computes, touches, key, sleeps),
                      name=key)
    system.run_for(RUN_NS)
    clients = {client.name: (client.served_ns, client.lax_ns,
                             client.slack_ns, client.served_items,
                             client.slack_items)
               for client in system.cpu.sched.clients}
    return system, clients, touches


def test_single_core_atropos_output_is_pinned():
    system, clients, touches = run_pin_workload()
    assert clients == EXPECTED_CLIENTS
    assert touches == EXPECTED_TOUCHES
    assert system.sim.events_dispatched == EXPECTED_EVENTS
    # The one core's live metrics read the same pinned service.
    snap = system.metrics.snapshot()
    for name, (served, lax, slack, _, _) in EXPECTED_CLIENTS.items():
        labels = {"sched": "cpu0", "client": name}
        assert snap.get("sched_served_ns_total", **labels) == served
        assert snap.get("sched_lax_ns_total", **labels) == lax
        assert snap.get("sched_slack_ns_total", **labels) == slack
