"""Property-based tests (hypothesis) on core data structures and
scheduler invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw.cpu import CostMeter
from repro.hw.disk import Disk, DiskRequest, READ, WRITE
from repro.hw.pagetable import GuardedPageTable, LinearPageTable
from repro.hw.physmem import PhysicalMemory
from repro.hw.platform import ALPHA_EB164, Machine
from repro.mm.bloks import BlokMap
from repro.mm.framestack import FrameStack
from repro.mm.rights import Rights
from repro.sched.atropos import AtroposScheduler, QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC

MB = 1024 * 1024


class TestBlokMapProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 63)),
                    max_size=200))
    def test_matches_reference_set_semantics(self, ops):
        """BlokMap behaves like 'allocate the smallest free index'."""
        bloks = BlokMap(64, chunk_bits=16)
        reference_free = set(range(64))
        allocated = set()
        for is_alloc, arg in ops:
            if is_alloc:
                got = bloks.alloc()
                if reference_free:
                    expected = min(reference_free)
                    assert got == expected
                    reference_free.discard(expected)
                    allocated.add(expected)
                else:
                    assert got is None
            elif arg in allocated:
                bloks.free_blok(arg)
                allocated.discard(arg)
                reference_free.add(arg)
        assert bloks.allocated == len(allocated)
        for index in range(64):
            assert bloks.is_allocated(index) == (index in allocated)

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_capacity_respected(self, total, chunk_bits):
        bloks = BlokMap(total, chunk_bits=chunk_bits)
        got = [bloks.alloc() for _ in range(total + 5)]
        assert got[:total] == list(range(total))
        assert got[total:] == [None] * 5


class TestFrameStackProperties:
    @given(st.lists(st.integers(0, 30), unique=True, min_size=1),
           st.data())
    def test_operations_preserve_membership(self, pfns, data):
        stack = FrameStack()
        for pfn in pfns:
            stack.push(pfn)
        moves = data.draw(st.lists(
            st.tuples(st.sampled_from(["top", "bottom"]),
                      st.sampled_from(pfns)), max_size=20))
        for where, pfn in moves:
            if where == "top":
                stack.move_to_top(pfn)
            else:
                stack.move_to_bottom(pfn)
        assert sorted(stack.pfns_top_down()) == sorted(pfns)
        assert len(stack) == len(pfns)

    @given(st.lists(st.integers(0, 30), unique=True, min_size=2))
    def test_move_to_top_is_top(self, pfns):
        stack = FrameStack()
        for pfn in pfns:
            stack.push(pfn)
        stack.move_to_top(pfns[0])
        assert stack.top(1) == [pfns[0]]


class TestRightsProperties:
    rights_strategy = st.sets(st.sampled_from("rwxm")).map(
        lambda chars: Rights.parse("".join(chars)))

    @given(rights_strategy, rights_strategy)
    def test_algebra_consistent_with_sets(self, a, b):
        assert set(str(a | b).replace("-", "")) == (
            set(str(a).replace("-", "")) | set(str(b).replace("-", "")))
        assert set(str(a & b).replace("-", "")) == (
            set(str(a).replace("-", "")) & set(str(b).replace("-", "")))

    @given(rights_strategy)
    def test_parse_str_roundtrip(self, rights):
        assert Rights.parse(str(rights)) == rights

    @given(rights_strategy, rights_strategy)
    def test_union_permits_everything_either_permits(self, a, b):
        from repro.mm.rights import Right

        union = a | b
        for right in Right:
            assert union.permits(right) == (a.permits(right)
                                            or b.permits(right))


class TestPageTableProperties:
    @given(st.sets(st.integers(0, 5000), min_size=1, max_size=60),
           st.sampled_from(["linear", "guarded"]))
    @settings(deadline=None)
    def test_insert_lookup_remove_roundtrip(self, vpns, kind):
        machine = ALPHA_EB164
        meter = CostMeter()
        cls = {"linear": LinearPageTable, "guarded": GuardedPageTable}[kind]
        pagetable = cls(machine, meter)
        for sid, vpn in enumerate(sorted(vpns)):
            pagetable.ensure_range(vpn * 10_000, 1, sid=sid)
        for sid, vpn in enumerate(sorted(vpns)):
            pte = pagetable.lookup(vpn * 10_000)
            assert pte is not None and pte.sid == sid
        for vpn in sorted(vpns):
            pagetable.remove_range(vpn * 10_000, 1)
            assert pagetable.lookup(vpn * 10_000) is None
        assert pagetable.entry_count == 0


class TestPhysicalMemoryProperties:
    @given(st.lists(st.booleans(), max_size=150))
    def test_free_count_invariant(self, ops):
        machine = Machine(phys_mem_bytes=1 * MB)  # 128 frames
        mem = PhysicalMemory(machine)
        held = []
        for is_take in ops:
            if is_take:
                pfn = mem.take_any()
                if pfn is not None:
                    held.append(pfn)
            elif held:
                mem.release(held.pop(0))
            assert mem.free_frames == mem.total_frames - len(held)
            assert len(set(held)) == len(held)


class TestDiskProperties:
    @given(st.lists(st.tuples(st.sampled_from([READ, WRITE]),
                              st.integers(0, 200_000),
                              st.integers(1, 64)),
                    min_size=1, max_size=40))
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_service_times_positive_and_bounded(self, requests):
        sim = Simulator()
        disk = Disk(sim)
        for kind, lba_base, nblocks in requests:
            req = DiskRequest(kind=kind, lba=lba_base * 16, nblocks=nblocks)
            proc = sim.spawn(disk.transaction(req))
            sim.run()
            result = proc.value
            assert result.duration > 0
            # Worst case: full seek + full rotation + transfer + slack.
            geometry = disk.geometry
            bound = (geometry.seek_time_ns(0, geometry.cylinders)
                     + 2 * geometry.rev_time_ns
                     + geometry.transfer_time_ns(nblocks)
                     + geometry.command_overhead_ns)
            assert result.duration <= bound


class TestAtroposProperties:
    @given(st.lists(st.integers(1, 15), min_size=1, max_size=12),
           st.integers(10, 60))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_usage_never_exceeds_guarantee_plus_one_item(self, durations,
                                                         slice_ms):
        """Roll-over invariant: over any horizon, charged service is at
        most the guarantee plus one non-preemptible overrun."""
        sim = Simulator()
        sched = AtroposScheduler(sim)
        client = sched.admit("c", QoSSpec(period_ns=100 * MS,
                                          slice_ns=slice_ms * MS))

        def loop():
            while True:
                for duration in durations:
                    yield client.submit(None, ns=duration * MS)

        sim.spawn(loop())
        horizon = 2 * SEC
        sim.run(until=horizon)
        periods = horizon // (100 * MS)
        budget = periods * slice_ms * MS + max(durations) * MS
        assert client.served_ns <= budget

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_two_clients_progress_tracks_shares(self, share_a, share_b):
        sim = Simulator()
        sched = AtroposScheduler(sim)
        qos = lambda share: QoSSpec(period_ns=100 * MS,
                                    slice_ns=share * 10 * MS,
                                    laxity_ns=2 * MS)
        a = sched.admit("a", qos(share_a))
        b = sched.admit("b", qos(share_b))
        counts = {"a": 0, "b": 0}

        def loop(client, name):
            while True:
                yield client.submit(None, ns=1 * MS)
                counts[name] += 1

        sim.spawn(loop(a, "a"))
        sim.spawn(loop(b, "b"))
        sim.run(until=5 * SEC)
        expected = share_a / share_b
        actual = counts["a"] / max(counts["b"], 1)
        assert 0.7 * expected <= actual <= 1.3 * expected
