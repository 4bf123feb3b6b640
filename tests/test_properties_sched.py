"""More property-based scheduler tests: EDF ordering, determinism,
admission monotonicity, and every item resolving across departures and
crashes."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.sched.atropos import AtroposScheduler, QoSSpec
from repro.sim.core import Simulator
from repro.sim.trace import Trace
from repro.sim.units import MS, SEC, US
from tests.test_sched_atropos import Segments


#: One step against a scheduler: (submit kind or None, client index,
#: item length in us, depart the client?, crash?, restart?, then run
#: for this many us). A step does each of its parts in that order. An
#: "item" or "failing" item takes its length in two segments.
STEP = st.tuples(
    st.sampled_from((None, "burst", "item", "failing")),
    st.integers(0, 2), st.integers(0, 4000),
    st.booleans(), st.booleans(), st.booleans(), st.integers(0, 1000))


def qos_strategy():
    return st.builds(
        lambda period, share, lax: QoSSpec(
            period_ns=period * MS,
            slice_ns=max(int(period * MS * share), 1),
            laxity_ns=lax * MS),
        st.integers(20, 200), st.floats(0.05, 0.3), st.integers(0, 10))


class TestSchedulerProperties:
    @given(st.lists(qos_strategy(), min_size=1, max_size=3),
           st.integers(1, 8))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_deterministic_replay(self, specs, item_ms):
        """Identical inputs produce identical transaction traces."""
        def run_once():
            sim = Simulator()
            trace = Trace()
            sched = AtroposScheduler(sim, trace=trace)
            for index, qos in enumerate(specs):
                client = sched.admit("c%d" % index, qos)

                def loop(client=client):
                    while True:
                        yield client.submit(None, ns=item_ms * MS)

                sim.spawn(loop())
            sim.run(until=2 * SEC)
            return [(e.time, e.kind, e.client) for e in trace]

        assert run_once() == run_once()

    @given(st.lists(qos_strategy(), min_size=2, max_size=3))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_client_starves_under_saturation(self, specs):
        sim = Simulator()
        sched = AtroposScheduler(sim)
        clients = []
        counts = {}
        for index, qos in enumerate(specs):
            client = sched.admit("c%d" % index, qos)
            clients.append(client)

            def loop(client=client, name="c%d" % index):
                while True:
                    yield client.submit(None, ns=2 * MS)
                    counts[name] = counts.get(name, 0) + 1

            sim.spawn(loop())
        sim.run(until=3 * SEC)
        for index in range(len(specs)):
            assert counts.get("c%d" % index, 0) > 0

    @given(st.lists(qos_strategy(), min_size=1, max_size=3),
           st.integers(0, 100))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rollover_debit_bounded_by_one_slice(self, specs, frac):
        """Roll-over accounting (§6.7): an overrun "will count against
        its next allocation" — but never against more than one. A client
        only starts an item while ``remaining > 0``, so the carried
        debit is strictly less than the longest single item. With every
        item no longer than the smallest admitted slice, the per-period
        debit can therefore never exceed one period's allocation.

        The assertion is fed entirely from the per-client metrics the
        scheduler now exports, not from scheduler internals."""
        sim = Simulator()
        metrics = MetricsRegistry()
        sched = AtroposScheduler(sim, metrics=metrics)
        min_slice = min(qos.slice_ns for qos in specs)
        # Non-preemptible item length in (0, min_slice]: long enough to
        # overrun routinely, never longer than any client's slice.
        item_ns = max(1, min_slice * (frac + 1) // 101)
        for index, qos in enumerate(specs):
            client = sched.admit("c%d" % index, qos)

            def loop(client=client):
                while True:
                    yield client.submit(None, ns=item_ns)

            sim.spawn(loop())
        sim.run(until=3 * SEC)
        snap = metrics.snapshot()
        for index, qos in enumerate(specs):
            labels = {"sched": "atropos", "client": "c%d" % index}
            max_debit = snap.get("sched_rollover_max_debit_ns", **labels)
            assert 0 <= max_debit <= qos.slice_ns
            # Debits only exist at all if the client actually served
            # work; an idle client accumulates none.
            if snap.get("sched_rollover_debit_ns_total", **labels) > 0:
                assert snap.get("sched_txn_ns", **labels)["count"] > 0

    @given(st.lists(st.floats(0.02, 0.4), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_admission_exactly_at_capacity_boundary(self, shares):
        sim = Simulator()
        sched = AtroposScheduler(sim)
        admitted = 0.0
        for index, share in enumerate(shares):
            qos = QoSSpec(period_ns=100 * MS,
                          slice_ns=int(share * 100 * MS))
            if admitted + qos.share <= 1.0 + 1e-12:
                sched.admit("c%d" % index, qos)
                admitted += qos.share
            else:
                with pytest.raises(ValueError):
                    sched.admit("c%d" % index, qos)
        assert sched.admitted_share() == pytest.approx(admitted)


class TestEveryItemResolves:
    @given(st.lists(qos_strategy(), min_size=1, max_size=3),
           st.lists(STEP, max_size=30))
    # The crash that used to drop a departed client's in-flight item.
    @example([QoSSpec(period_ns=100 * MS, slice_ns=50 * MS)],
             [("item", 0, 4000, False, False, False, 1000),
              (None, 0, 0, True, True, False, 0)])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_items_resolve_once_and_completed_work_is_charged(self, specs,
                                                              steps):
        """Random submits (bursts, two-segment items and failing items),
        ``depart(discard=True)``, ``crash()`` and ``restart()``: after a
        final restart and a drain, every submitted item's event has
        triggered or failed exactly once, and each client's served plus
        slack time is exactly the summed length of its completed items
        (an aborted attempt is never charged; its replay is)."""
        sim = Simulator()
        sched = AtroposScheduler(sim)
        clients = [sched.admit("c%d" % index, qos)
                   for index, qos in enumerate(specs)]
        submitted = []   # (client, ns, done, callbacks fired)

        def item(ns, fails):
            return Segments(ns // 2, ns - ns // 2, value=ns,
                            error=IOError("item failed") if fails else None)

        for kind, index, length, depart, crash, restart, gap in steps:
            client = clients[index % len(clients)]
            if kind is not None and not client.departed:
                ns = length * US
                if kind == "burst":
                    done = client.submit(None, ns=ns)
                else:
                    done = client.submit(item(ns, kind == "failing"))
                fired = []
                done.add_callback(fired.append)
                submitted.append((client, ns, done, fired))
            if depart and not client.departed:
                sched.depart(client, discard=True)
            if crash:
                sched.crash()
            if restart and not sched.running:
                sched.restart()
            sim.run(until=sim.now + gap * US)
        sim.run(until=sim.now)    # let a pending crash land
        if not sched.running:
            sched.restart()
        deadline = sim.now + 10 * SEC
        while (sim.now < deadline
               and not all(fired for _, _, _, fired in submitted)):
            sim.run(until=sim.now + 100 * MS)
        completed = {client.name: 0 for client in clients}
        for client, ns, done, fired in submitted:
            assert done.triggered and len(fired) == 1, (client.name, ns)
            if done.ok:
                completed[client.name] += ns
        for client in clients:
            assert (client.served_ns + client.slack_ns
                    == completed[client.name]), client.name
