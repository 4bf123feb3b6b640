"""Property-based fault isolation: under ANY fault plan scoped to one
stream's extent, a non-faulty stream keeps its guarantee.

This is the QoS-crosstalk claim extended to the failure domain: retries,
backoff, wedges and remaps are all charged to the stream that suffered
them, so a fault storm on one extent is invisible — in both accounting
and bandwidth — to everyone else.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    BAD_BLOCK,
    LATENCY,
    STUCK,
    TRANSIENT,
    FaultPlan,
    FaultRule,
)
from repro.hw.disk import Disk, DiskRequest, READ, WRITE
from repro.obs.metrics import MetricsRegistry
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC
from repro.usd.usd import TransactionFailed, USD

# The victim's extent; the good client reads far away from it.
VICTIM_START = 500_000
VICTIM_END = 540_000
GOOD_BASE = 3_600_000
DURATION = 8 * SEC
PERIOD = 100 * MS
SLICE = 30 * MS
SHARE = SLICE / PERIOD


def rule_strategy():
    def build(kind, rate):
        extra = {}
        if kind == STUCK:
            extra["stuck_ns"] = 25 * MS
        elif kind == LATENCY:
            extra["extra_ns"] = 5 * MS
        return FaultRule(kind=kind, rate=rate, lba_start=VICTIM_START,
                         lba_end=VICTIM_END, **extra)

    return st.builds(build,
                     st.sampled_from((TRANSIENT, BAD_BLOCK, LATENCY, STUCK)),
                     st.floats(0.0, 1.0))


class TestFaultIsolation:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           rules=st.lists(rule_strategy(), min_size=1, max_size=3))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_non_faulty_stream_keeps_its_guarantee(self, seed, rules):
        sim = Simulator()
        metrics = MetricsRegistry()
        injector = FaultPlan(seed=seed, rules=tuple(rules)).bind(metrics)
        usd = USD(sim, Disk(sim, injector=injector), metrics=metrics)
        good = usd.admit("good", QoSSpec(period_ns=PERIOD, slice_ns=SLICE,
                                         laxity_ns=5 * MS))
        victim = usd.admit("victim", QoSSpec(period_ns=PERIOD,
                                             slice_ns=SLICE,
                                             laxity_ns=5 * MS))

        def good_loop():
            index = 0
            while True:
                yield good.submit(DiskRequest(
                    kind=READ, lba=GOOD_BASE + (index % 128) * 16,
                    nblocks=16))
                index += 1

        def victim_loop():
            index = 0
            while True:
                lba = VICTIM_START + (index % 128) * 16
                kind = WRITE if index % 2 else READ
                try:
                    yield victim.submit(DiskRequest(
                        kind=kind, lba=lba, nblocks=16))
                except TransactionFailed:
                    pass    # the victim's problem, and only the victim's
                index += 1

        sim.spawn(good_loop())
        sim.spawn(victim_loop())
        sim.run(until=DURATION)

        # The good stream never saw a fault, never retried, never failed.
        assert good.retries == 0
        assert good.failures == 0
        snap = metrics.snapshot()
        assert snap.total("faults_injected_total", client="good") == 0
        assert snap.get("usd_retries_total", client="good") == 0
        # And its guarantee held: served (+ laxity credit) stays within
        # slop of the contracted share of the whole run.
        served = good._sched_client.served_ns + good._sched_client.lax_ns
        assert served >= 0.85 * SHARE * DURATION

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_storm_runs_are_reproducible(self, seed):
        """Same seed, same plan => byte-identical fault sequence and
        identical final accounting."""
        def run_once():
            sim = Simulator()
            injector = FaultPlan(seed=seed, rules=(
                FaultRule(kind=TRANSIENT, rate=0.3,
                          lba_start=VICTIM_START, lba_end=VICTIM_END),
                FaultRule(kind=BAD_BLOCK, rate=0.002,
                          lba_start=VICTIM_START, lba_end=VICTIM_END),))
            usd = USD(sim, Disk(sim, injector=injector))
            client = usd.admit("victim", QoSSpec(period_ns=PERIOD,
                                                 slice_ns=SLICE,
                                                 laxity_ns=5 * MS))

            def loop():
                index = 0
                while True:
                    try:
                        yield client.submit(DiskRequest(
                            kind=READ,
                            lba=VICTIM_START + (index % 64) * 16,
                            nblocks=16))
                    except TransactionFailed:
                        pass
                    index += 1

            sim.spawn(loop())
            sim.run(until=2 * SEC)
            return (injector.injected, client.retries, client.failures,
                    client.transactions, client._sched_client.served_ns)

        assert run_once() == run_once()
