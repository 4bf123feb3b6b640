"""Tests for the multi-volume User-Safe Backing Store.

Covers the :class:`~repro.usbs.manager.VolumeManager` control plane
(placement, aggregate admission with rollback, the degraded-volume
drain) and the :class:`~repro.usbs.multiswap.MultiVolumeSwap` data
plane (striped routing, re-placement routing, lost-blok containment,
submissions deferred behind a full channel).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import disk_storm
from repro.hw.disk import READ, WRITE
from repro.hw.platform import Machine
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC
from repro.usbs.manager import (AdmissionError, PINNED, STRIPED,
                                VolumeManager, placement_draw)
from repro.usbs.volume import DEGRADED, HEALTHY, RETIRED
from repro.usd.usd import BlokLostError

QOS = QoSSpec(period_ns=100 * MS, slice_ns=20 * MS, laxity_ns=5 * MS)
BIG = QoSSpec(period_ns=100 * MS, slice_ns=90 * MS, laxity_ns=5 * MS)


def make_manager(nvolumes=4, seed=1999, monitor=False, **kwargs):
    sim = Simulator()
    machine = Machine()
    manager = VolumeManager(sim, machine, nvolumes, seed=seed,
                            monitor=monitor, **kwargs)
    return sim, machine, manager


def swap_bytes(machine, bloks):
    return bloks * machine.page_size


class TestPlacement:
    def test_striped_shards_every_volume(self):
        _sim, machine, manager = make_manager()
        swap = manager.create_backing("a", swap_bytes(machine, 16), QOS)
        assert [slot.volume.index for slot in swap.slots] == [0, 1, 2, 3]
        assert [slot.shard.name for slot in swap.slots] == [
            "a@vol0", "a@vol1", "a@vol2", "a@vol3"]
        # 16 bloks over 4 volumes: 4 bloks per shard, none dropped.
        assert swap.nbloks == 16
        assert all(slot.shard.nbloks == 4 for slot in swap.slots)

    def test_striped_routing_math(self):
        _sim, machine, manager = make_manager()
        swap = manager.create_backing("a", swap_bytes(machine, 16), QOS)
        for blok in range(swap.nbloks):
            index, local = swap._locate(blok)
            assert index == blok % 4
            assert local == blok // 4
            assert swap.volume_of(blok) is swap.slots[index].volume

    def test_pinned_lands_on_the_drawn_volume(self):
        _sim, machine, manager = make_manager(placement=PINNED)
        swap = manager.create_backing("a", swap_bytes(machine, 8), QOS)
        assert len(swap.slots) == 1
        assert (swap.slots[0].volume.index
                == placement_draw(1999, "a", 4))

    def test_placement_is_seed_stable_across_managers(self):
        names = ["alpha", "beta", "gamma"]
        runs = []
        for _ in range(2):
            _sim, machine, manager = make_manager(placement=PINNED)
            runs.append([
                manager.create_backing(name, swap_bytes(machine, 8),
                                       QOS).slots[0].volume.index
                for name in names])
        assert runs[0] == runs[1]

    def test_per_backing_placement_override(self):
        _sim, machine, manager = make_manager()   # striped by default
        pinned = manager.create_backing("a", swap_bytes(machine, 8), QOS,
                                        placement=PINNED)
        striped = manager.create_backing("b", swap_bytes(machine, 8), QOS)
        assert len(pinned.slots) == 1
        assert len(striped.slots) == 4

    @given(seed=st.integers(0, 2 ** 31), name=st.text(min_size=1,
                                                      max_size=24),
           nchoices=st.integers(1, 16))
    @settings(deadline=None)
    def test_draw_stable_and_in_range(self, seed, name, nchoices):
        first = placement_draw(seed, name, nchoices)
        assert first == placement_draw(seed, name, nchoices)
        assert 0 <= first < nchoices


class TestAdmission:
    def test_refusal_rolls_back_admitted_shards(self):
        _sim, machine, manager = make_manager()
        # Fill one volume so a striped contract cannot be carried there.
        blocker_volume = manager.volumes[2]
        blocker_volume.sfs.create_swapfile("blocker",
                                           swap_bytes(machine, 4), BIG)
        before = [len(volume.usd.clients) for volume in manager.volumes]
        with pytest.raises(AdmissionError):
            manager.create_backing("a", swap_bytes(machine, 16), BIG)
        after = [len(volume.usd.clients) for volume in manager.volumes]
        assert after == before   # earlier shards departed again
        assert manager.backings == []

    def test_admitted_share_accounts_every_backing(self):
        _sim, machine, manager = make_manager(nvolumes=2)
        manager.create_backing("a", swap_bytes(machine, 8), QOS)
        manager.create_backing("b", swap_bytes(machine, 8), QOS)
        for volume in manager.volumes:
            assert volume.admitted_share == pytest.approx(0.4)
            assert volume.free_share == pytest.approx(0.6)


def run_traffic(sim, swap, bloks, kind=WRITE):
    """Synchronously push one transaction per blok through the swap."""
    failures = []

    def pump():
        for blok in bloks:
            try:
                yield (swap.write(blok) if kind == WRITE
                       else swap.read(blok))
            except Exception as exc:
                failures.append((blok, exc))

    done = sim.spawn(pump(), name="traffic")
    sim.run_until_triggered(done, limit=120 * SEC)
    return failures


class TestDegradedVolumePath:
    def test_degrade_drains_to_a_healthy_volume(self):
        sim, machine, manager = make_manager(nvolumes=2, placement=PINNED)
        swap = manager.create_backing("a", swap_bytes(machine, 8), QOS)
        victim = swap.slots[0].volume
        assert run_traffic(sim, swap, range(swap.nbloks)) == []
        manager.degrade(victim)
        deadline = sim.now + 120 * SEC
        while manager.drains_done < 1 and sim.now < deadline:
            sim.run(until=sim.now + 1 * SEC)
        assert manager.drains_done == 1
        assert swap.slots[0].volume is not victim
        assert victim.state == RETIRED
        assert not swap.draining
        assert manager.stranded == []
        # The drained copy serves reads from the new volume.
        assert swap.volume_of(0, READ) is swap.slots[0].volume
        assert run_traffic(sim, swap, range(swap.nbloks), kind=READ) == []

    def test_storm_during_drain_loses_only_victim_bloks(self):
        sim, machine, manager = make_manager(nvolumes=2, placement=PINNED)
        # The seeded draws put "a" on vol1 and "d" on vol0 — distinct
        # volumes, so "d" is a true bystander to vol1's failure.
        swap = manager.create_backing("a", swap_bytes(machine, 8), QOS)
        other = manager.create_backing("d", swap_bytes(machine, 8), QOS)
        victim = swap.slots[0].volume
        assert other.slots[0].volume is not victim
        assert run_traffic(sim, swap, range(swap.nbloks)) == []
        assert run_traffic(sim, other, range(other.nbloks)) == []
        # A permanent full-rate storm: every drain read fails its whole
        # retry ladder, so every blok of the victim backing is lost.
        victim.install_fault_plan(disk_storm(7, 1.0))
        manager.degrade(victim)
        deadline = sim.now + 300 * SEC
        while manager.drains_done < 1 and sim.now < deadline:
            sim.run(until=sim.now + 1 * SEC)
        assert manager.drains_done == 1
        assert len(swap.lost) == swap.nbloks
        assert other.lost == set()
        with pytest.raises(BlokLostError):
            sim.run_until_triggered(swap.read(0), limit=1 * SEC)
        # A fresh write resurrects the blok on the replacement shard.
        victim.install_fault_plan(None)
        assert run_traffic(sim, swap, [0]) == []
        assert run_traffic(sim, swap, [0], kind=READ) == []

    def test_stranded_when_no_volume_can_admit(self):
        sim, machine, manager = make_manager(nvolumes=2, placement=PINNED)
        swap = manager.create_backing("a", swap_bytes(machine, 8), BIG)
        victim = swap.slots[0].volume
        bystander = next(volume for volume in manager.volumes
                         if volume is not victim)
        # The only other volume cannot carry a second 90% guarantee.
        bystander.sfs.create_swapfile("blocker", swap_bytes(machine, 4),
                                      BIG)
        manager.degrade(victim)
        sim.run(until=sim.now + 1 * SEC)
        assert manager.stranded == [("a", 0)]
        assert victim.state == DEGRADED     # never retired: data still on it
        assert swap.slots[0].volume is victim

    def test_monitor_detects_a_storm(self):
        sim, machine, manager = make_manager(nvolumes=2, placement=PINNED,
                                             monitor=True)
        swap = manager.create_backing("a", swap_bytes(machine, 8), QOS)
        victim = swap.slots[0].volume
        assert run_traffic(sim, swap, range(swap.nbloks)) == []
        victim.install_fault_plan(disk_storm(7, 1.0))

        def hammer():
            blok = 0
            while victim.healthy:
                try:
                    yield swap.read(blok % swap.nbloks)
                except Exception:
                    pass
                blok += 1

        sim.spawn(hammer(), name="hammer")
        sim.run(until=sim.now + 30 * SEC)
        assert not victim.healthy
        assert manager.fault_exposure_by_volume()[victim.name] > 0
        bystander = next(volume for volume in manager.volumes
                         if volume is not victim)
        assert bystander.state == HEALTHY
        assert manager.fault_exposure_by_volume()[bystander.name] == 0


class TestDeferredSubmission:
    """More reads to one shard than its IO channel's depth: the extra
    reads wait for a free slot (``MultiVolumeSwap._submit_when_free``)
    instead of overfilling the channel."""

    READS = 5

    def flood(self):
        """A populated one-shard backing with READS reads issued at one
        instant on a depth-2 channel."""
        sim, machine, manager = make_manager(nvolumes=2, placement=PINNED)
        swap = manager.create_backing("a", swap_bytes(machine, 8), QOS,
                                      depth=2)
        assert run_traffic(sim, swap, range(swap.nbloks)) == []
        shard = swap.slots[0].shard
        submitted = shard.channel.submitted
        reads = [swap.read(blok) for blok in range(self.READS)]
        assert shard.channel.outstanding == shard.channel.depth == 2
        assert shard.channel.submitted - submitted == 2
        return sim, shard, reads

    def test_extra_reads_wait_for_slots_and_complete_in_order(self):
        sim, shard, reads = self.flood()
        done = []
        for blok, read in enumerate(reads):
            read.add_callback(lambda event, b=blok: done.append((b, sim.now)))
        sim.run_until_triggered(reads[0], limit=10 * SEC)
        # The deferred reads have not reached the disk yet.
        assert not any(read.triggered for read in reads[2:])
        sim.run_until_triggered(sim.all_of(reads), limit=10 * SEC)
        assert all(read.ok for read in reads)
        assert [blok for blok, _ in done] == list(range(self.READS))
        times = [when for _, when in done]
        assert times == sorted(set(times))
        assert shard.channel.outstanding == 0

    def test_departure_fails_waiting_reads(self):
        sim, shard, reads = self.flood()
        channel = shard.channel
        channel.usd_client.usd.depart(channel.usd_client, discard=True)
        sim.run(until=sim.now + 10 * SEC)
        # Every read resolves; the deferred ones fail at their submit
        # instead of wedging behind a slot the failed submits kept.
        assert all(read.triggered for read in reads)
        for read in reads[2:]:
            with pytest.raises(RuntimeError, match="has departed"):
                read.value
        assert channel.outstanding == 0
