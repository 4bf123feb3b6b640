"""The integrity plane: checksum model, the detect→quarantine→repair→
declare ladder, background scrubbing, and loss escalation.

The ladder tests drive :class:`ChecksummedSwap` over a scripted fake
backing (per-read corruption labels, no probability) so every branch —
repaired, lost, quarantine fail-fast, rewrite-lifts-quarantine, drain
verification — is pinned exactly. The regression class at the bottom
runs the real Disk/USD/SFS stack instead, pinning the corruption ×
RetryPolicy interaction: a silent corruption completes ``ok``, so the
USD retry ladder must stay out of it entirely — exactly one repair
re-read, charged to the owner's own stream, and no leaked work.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.corrupt import (BIT_FLIP, CORRUPT_KINDS, TORN_WRITE,
                                  CorruptPlan, CorruptRule)
from repro.hw.disk import Disk, READ
from repro.hw.platform import Machine
from repro.integrity import (ChecksummedSwap, CorruptDataError, Scrubber,
                             VolumeEscalator, blok_payload, checksum,
                             corrupt_payload)
from repro.obs.metrics import MetricsRegistry
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC
from repro.usd.sfs import Partition, SwapFileSystem
from repro.usd.usd import USD

QOS = QoSSpec(period_ns=100 * MS, slice_ns=30 * MS, laxity_ns=5 * MS)


class TestChecksumModel:
    @given(name=st.text(min_size=1, max_size=16),
           blok=st.integers(0, 2 ** 20),
           generation=st.integers(0, 2 ** 16))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, name, blok, generation):
        """Writer and verifier derive the same bytes and digest from
        (backing, blok, generation) alone — the content model is a
        pure function, so a clean round trip always verifies."""
        payload = blok_payload(name, blok, generation)
        assert blok_payload(name, blok, generation) == payload
        assert checksum(payload) == checksum(
            blok_payload(name, blok, generation))

    @given(name=st.text(min_size=1, max_size=16),
           blok=st.integers(0, 2 ** 20),
           generation=st.integers(1, 2 ** 16),
           kind=st.sampled_from(CORRUPT_KINDS))
    @settings(max_examples=200, deadline=None)
    def test_every_corruption_kind_breaks_the_digest(self, name, blok,
                                                     generation, kind):
        """All three corrupt variants differ from the true payload, so
        a stored digest catches every one."""
        true = blok_payload(name, blok, generation)
        rotten = corrupt_payload(name, blok, generation, kind)
        assert rotten != true
        assert checksum(rotten) != checksum(true)


class FakeBacking:
    """A swap backing with scripted corruption: each read consumes the
    next label from ``corrupt_next`` (None = clean). Gives the ladder
    tests exact control over which read — demand, repair, scrub —
    comes back rotten."""

    def __init__(self, sim, name="fake-swap", latency=MS):
        self.sim = sim
        self.name = name
        self.latency = latency
        self.corrupt_next = []
        self.reads = 0
        self.writes = 0

    def _complete(self, event, value):
        yield self.sim.timeout(self.latency)
        event.trigger(value)

    def write(self, blok):
        self.writes += 1
        event = self.sim.event("fake.write(%d)" % blok)
        self.sim.spawn(self._complete(event, SimpleNamespace(corrupt=None)))
        return event

    def read(self, blok):
        self.reads += 1
        kind = self.corrupt_next.pop(0) if self.corrupt_next else None
        event = self.sim.event("fake.read(%d)" % blok)
        self.sim.spawn(self._complete(event, SimpleNamespace(corrupt=kind)))
        return event

    def can_accept(self, blok, kind=READ, reserve=1):
        return True

    def slot_for(self, blok, kind=READ):
        return self.sim.timeout(0)


@pytest.fixture
def sim():
    return Simulator()


def _drive(sim, gen):
    """Run one driver generator to completion, returning the list its
    body appends outcomes to."""
    outcomes = []
    sim.spawn(gen(outcomes))
    sim.run(until=1 * SEC)
    return outcomes


class TestChecksummedSwapLadder:
    def test_clean_round_trip_records_and_verifies(self, sim):
        backing = FakeBacking(sim)
        swap = ChecksummedSwap(sim, backing)

        def driver(out):
            yield swap.write(7)
            yield swap.read(7)
            out.append("ok")

        assert _drive(sim, driver) == ["ok"]
        assert swap.checksummed_bloks() == [7]
        assert swap.corruptions_detected == 0
        assert backing.verifier is swap   # drain hookup

    def test_transient_flip_is_repaired_on_the_re_read(self, sim):
        metrics = MetricsRegistry()
        backing = FakeBacking(sim)
        swap = ChecksummedSwap(sim, backing, metrics=metrics)
        backing.corrupt_next = [BIT_FLIP, None]   # demand rotten, repair clean

        def driver(out):
            yield swap.write(7)
            yield swap.read(7)
            out.append("repaired")

        assert _drive(sim, driver) == ["repaired"]
        assert (swap.corruptions_detected, swap.corruptions_repaired,
                swap.corruptions_lost) == (1, 1, 0)
        assert swap.repair_reads == 1
        assert swap.quarantined_bloks() == []
        snap = metrics.snapshot()
        assert snap.total("integrity_corruptions_detected_total") == 1
        assert snap.total("integrity_corruptions_repaired_total") == 1

    def test_persistent_corruption_is_declared_lost(self, sim):
        backing = FakeBacking(sim)
        losses = []
        swap = ChecksummedSwap(
            sim, backing,
            on_lost=lambda s, blok, kind, source:
            losses.append((blok, kind, source)))
        backing.corrupt_next = [TORN_WRITE, TORN_WRITE]

        def driver(out):
            yield swap.write(7)
            try:
                yield swap.read(7)
            except CorruptDataError as exc:
                out.append((exc.blok, exc.kind))

        assert _drive(sim, driver) == [(7, TORN_WRITE)]
        assert (swap.corruptions_detected, swap.corruptions_repaired,
                swap.corruptions_lost) == (1, 0, 1)
        # Both rotten payloads were intercepted before any consumer.
        assert swap.corruptions_caught == 2
        assert losses == [(7, TORN_WRITE, "demand")]
        assert swap.quarantined_bloks() == [7]

    def test_quarantined_blok_fails_fast_and_rewrite_lifts(self, sim):
        backing = FakeBacking(sim)
        swap = ChecksummedSwap(sim, backing)
        backing.corrupt_next = [TORN_WRITE, TORN_WRITE]

        def driver(out):
            yield swap.write(7)
            for _ in range(2):
                try:
                    yield swap.read(7)
                except CorruptDataError:
                    out.append(backing.reads)
            yield swap.write(7)       # fresh data supersedes
            yield swap.read(7)
            out.append("clean-after-rewrite")

        reads_at_loss, reads_at_quarantine, verdict = _drive(sim, driver)
        # The second read failed fast: no extra backing I/O happened.
        assert reads_at_quarantine == reads_at_loss
        assert verdict == "clean-after-rewrite"
        assert swap.quarantined_bloks() == []
        assert swap.corruptions_lost == 1   # only the first declaration

    def test_ledger_identity_detected_equals_repaired_plus_lost(self, sim):
        backing = FakeBacking(sim)
        swap = ChecksummedSwap(sim, backing)
        backing.corrupt_next = [BIT_FLIP, None,          # blok 1: repaired
                                TORN_WRITE, TORN_WRITE]  # blok 2: lost

        def driver(out):
            yield swap.write(1)
            yield swap.write(2)
            yield swap.read(1)
            try:
                yield swap.read(2)
            except CorruptDataError:
                pass
            out.append("done")

        _drive(sim, driver)
        assert swap.corruptions_detected == (
            swap.corruptions_repaired + swap.corruptions_lost) == 2


class TestDrainCheck:
    def _swap(self, sim):
        swap = ChecksummedSwap(sim, FakeBacking(sim))
        swap.checksums[5] = checksum(blok_payload(swap.name, 5, 1))
        swap._written[5] = 1
        return swap

    def test_clean_payload_passes(self, sim):
        swap = self._swap(sim)
        assert swap.drain_check(5, SimpleNamespace(corrupt=None))
        assert swap.corruptions_detected == 0

    def test_corrupt_payload_is_declared_lost_in_one_step(self, sim):
        swap = self._swap(sim)
        assert not swap.drain_check(5, SimpleNamespace(corrupt=BIT_FLIP))
        assert (swap.corruptions_detected, swap.corruptions_lost,
                swap.corruptions_caught) == (1, 1, 1)

    def test_free_blok_corruption_is_caught_but_not_declared(self, sim):
        swap = self._swap(sim)
        assert swap.drain_check(9, SimpleNamespace(corrupt=BIT_FLIP))
        assert swap.corruptions_detected == 0
        assert swap.corruptions_caught == 1


class TestScrubber:
    def test_scrub_finds_latent_corruption_before_demand_does(self, sim):
        """Three cold bloks, one rotten: the walk detects it, the
        repair heals it, and the pass counters say so."""
        backing = FakeBacking(sim)
        swap = ChecksummedSwap(sim, backing)

        def setup(out):
            for blok in (1, 2, 3):
                yield swap.write(blok)
            out.append("written")

        _drive(sim, setup)
        backing.corrupt_next = [None, BIT_FLIP, None]   # blok 2 rotten once
        scrubber = Scrubber(sim, swap, interval_ns=2 * MS)
        scrubber.start()
        sim.run(until=sim.now + 1 * SEC)
        scrubber.stop()
        assert scrubber.passes >= 1
        assert scrubber.scanned >= 3
        assert scrubber.detected == 1
        assert (swap.corruptions_detected, swap.corruptions_repaired) \
            == (1, 1)

    def test_stop_retires_the_loop(self, sim):
        backing = FakeBacking(sim)
        swap = ChecksummedSwap(sim, backing)
        scrubber = Scrubber(sim, swap, interval_ns=2 * MS)
        scrubber.start()
        sim.run(until=50 * MS)
        scrubber.stop()
        passes = scrubber.passes
        sim.run(until=sim.now + 200 * MS)
        assert scrubber.passes == passes


class TestVolumeEscalator:
    def _fixture(self, healthy=True):
        volume = SimpleNamespace(index=2, healthy=healthy)
        manager = SimpleNamespace(degraded=[])
        manager.degrade = manager.degraded.append
        swap = SimpleNamespace(volume_of=lambda blok, kind: volume)
        return volume, manager, swap

    def test_degrades_at_the_loss_threshold(self):
        volume, manager, swap = self._fixture()
        escalator = VolumeEscalator(manager, threshold=2)
        escalator(swap, 1, TORN_WRITE, "demand")
        assert manager.degraded == []
        escalator(swap, 2, TORN_WRITE, "demand")
        assert manager.degraded == [volume]
        assert escalator.losses == {2: 2}
        assert escalator.escalated == [2]

    def test_unhealthy_volume_is_not_degraded_again(self):
        volume, manager, swap = self._fixture(healthy=False)
        escalator = VolumeEscalator(manager, threshold=1)
        escalator(swap, 1, TORN_WRITE, "demand")
        assert manager.degraded == []

    def test_single_disk_backing_is_ignored(self):
        _, manager, _ = self._fixture()
        escalator = VolumeEscalator(manager, threshold=1)
        escalator(SimpleNamespace(), 1, TORN_WRITE, "demand")
        assert escalator.losses == {}


class TestRepairRetryRegression:
    """Corruption re-fetch × USD RetryPolicy, on the real stack.

    A silent corruption completes with status ``ok``, so the USD retry
    ladder must never engage: the ONLY re-fetch is the integrity
    plane's single repair re-read, it rides the owner's own stream,
    and when the dust settles no work item is left in flight."""

    def test_one_repair_read_no_usd_retry_no_leak(self):
        sim = Simulator()
        machine = Machine()
        partition = Partition("swap", 100_000, 64 * 8)
        injector = CorruptPlan(seed=5, rules=(
            CorruptRule(kind=TORN_WRITE,
                        blocks=(100_000,)),))   # blok 0, unconditionally
        disk = Disk(sim, corruptor=injector)
        usd = USD(sim, disk)
        sfs = SwapFileSystem(sim, usd, machine, partition)
        swapfile = sfs.create_swapfile("victim", 16 * machine.page_size,
                                       QOS)
        assert swapfile.extent.start == 100_000
        swap = ChecksummedSwap(sim, swapfile)
        outcomes = []

        def driver():
            yield swap.write(0)
            yield swap.write(1)
            try:
                yield swap.read(0)
            except CorruptDataError as exc:
                outcomes.append(("lost", exc.blok))
            yield swap.read(1)
            outcomes.append("clean-neighbour")

        sim.spawn(driver())
        sim.run(until=2 * SEC)

        assert outcomes == [("lost", 0), "clean-neighbour"]
        # Exactly one repair re-read — no double-retry from below.
        assert swap.repair_reads == 1
        assert swapfile.reads == 3          # demand ×2 + one repair
        client = swapfile.channel.usd_client
        assert client.retries == 0          # status was ok throughout
        assert client.failures == 0
        assert client.transactions == 5     # 2 writes + 3 reads
        # No leaked work item: the channel drained completely.
        assert swapfile.channel.outstanding == 0
        # Both rotten payloads were injected on this stream and both
        # were intercepted by the wrapper.
        assert injector.injected == 2
        assert swap.corruptions_caught == 2
