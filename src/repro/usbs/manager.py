"""The volume manager: placement, aggregate admission, re-placement.

This is the control plane of the multi-volume USBS. It owns N
:class:`~repro.usbs.volume.Volume` instances (each a disk + USD +
swap partition in its own driver domain) and hands out
:class:`~repro.usbs.multiswap.MultiVolumeSwap` backings:

* **Placement** is deterministic under the manager's seed. ``striped``
  spreads a backing over every healthy volume, admitting the client's
  full (p, s, x, l) guarantee on each — aggregate bandwidth then scales
  with the volume count while each volume's admission arithmetic stays
  the paper's. ``pinned`` puts the whole backing on one healthy volume
  chosen by a keyed BLAKE2b draw over the client's name, the same
  no-global-RNG discipline the fault plane uses.

* **Admission control** refuses a contract the aggregate guarantees
  cannot carry: every shard's guarantee must be admitted by its
  volume's Atropos instance, and a refusal on any volume rolls back the
  shards already admitted (streams departed; their extents — bump
  allocated — are written off, which a real SFS would reclaim).

* **The degraded-volume path**: a health monitor watches each volume's
  fault-injection exposure; a volume whose exposure climbs past the
  threshold within the watch window is marked failing and its extents
  are drained — smallest guarantee first — onto replacement shards on
  the healthy volumes with the most guaranteeable share left. Drain
  reads go through the client's *own* stream on the failing volume and
  drain writes through its replacement stream, so re-placement cost
  lands on the owning client, never on bystanders (self-paging applied
  to volume failure). A shard whose guarantee no healthy volume can
  admit is *stranded*: it stays on the degraded volume, degraded but
  live — admission control does not lie about capacity that is not
  there.
"""

import hashlib
import math

from repro.hw.disk import QUANTUM_VP3221
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.spans import NULL_TRACER
from repro.sim.units import MS
from repro.usbs.multiswap import MultiVolumeSwap
from repro.usbs.volume import DEGRADED, RETIRED, Volume
from repro.usd.sfs import ExtentError
from repro.usd.usd import TransactionFailed, BlokLostError

#: Placement policies.
STRIPED = "striped"
PINNED = "pinned"

_PLACEMENTS = (STRIPED, PINNED)

#: The health monitor: every ``POLL_NS`` it compares each volume's
#: fault exposure over the trailing ``WINDOW_NS``; a rise of
#: ``EXPOSURE_THRESHOLD`` marks the volume failing.
EXPOSURE_THRESHOLD = 15
POLL_NS = 100 * MS
WINDOW_NS = 500 * MS

#: Concurrent blok transfers per drained slot (see ``_drain``).
DRAIN_WIDTH = 8


class AdmissionError(ValueError):
    """The aggregate guarantees cannot carry this contract."""


def placement_draw(seed, name, nchoices):
    """Deterministic volume choice for pinned placement.

    A keyed BLAKE2b draw over ``(seed, name)`` reduced mod the healthy
    volume count — stable across processes, Python versions and
    construction order, like every other draw in the fault plane.
    """
    if nchoices <= 0:
        raise ValueError("no volumes to choose from")
    data = ("%d|usbs-pin|%s" % (seed, name)).encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") % nchoices


class VolumeManager:
    """Owns the volumes; places, admits, monitors and re-places."""

    def __init__(self, sim, machine, nvolumes, geometry=QUANTUM_VP3221,
                 placement=STRIPED, seed=0, metrics=None, spans=None,
                 trace=None, rollover=True, monitor=True):
        if nvolumes < 1:
            raise ValueError("need at least one volume")
        if placement not in _PLACEMENTS:
            raise ValueError("placement must be one of %s" % (_PLACEMENTS,))
        self.sim = sim
        self.machine = machine
        self.placement = placement
        self.seed = seed
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spans = spans if spans is not None else NULL_TRACER
        self.volumes = [Volume(sim, index, machine, geometry=geometry,
                               metrics=self.metrics, trace=trace,
                               rollover=rollover)
                        for index in range(nvolumes)]
        self.backings = []
        self.stranded = []     # (backing name, slot index) pairs
        self.drains_done = 0
        self._c_extents = self.metrics.counter(
            "usbs_extents_total",
            help="swap-file shards placed, by volume")
        self._c_refusals = self.metrics.counter(
            "usbs_admission_refusals_total",
            help="backing-store contracts refused by aggregate admission")
        self._c_degrades = self.metrics.counter(
            "usbs_degrades_total",
            help="volumes marked failing by the health monitor, by volume")
        self._c_migrated = self.metrics.counter(
            "usbs_bloks_migrated_total",
            help="bloks drained off failing volumes, by source volume")
        self._c_lost = self.metrics.counter(
            "usbs_bloks_lost_total",
            help="bloks unrecoverable during a drain, by source volume")
        self._c_stranded = self.metrics.counter(
            "usbs_shards_stranded_total",
            help="shards left on a degraded volume because no healthy "
                 "volume could admit their guarantee")
        if monitor:
            sim.spawn(self._monitor_loop(), name="usbs-health-monitor")

    # -- placement + admission ----------------------------------------------

    def healthy_volumes(self):
        """Volumes the placement policies may currently use."""
        return [volume for volume in self.volumes if volume.healthy]

    def _targets(self, name, placement):
        healthy = self.healthy_volumes()
        if not healthy:
            raise AdmissionError("no healthy volumes to place %r on" % name)
        if placement == PINNED:
            return [healthy[placement_draw(self.seed, name, len(healthy))]]
        return healthy

    def create_backing(self, name, nbytes, qos, placement=None, depth=2):
        """Place and admit one backing; returns a
        :class:`~repro.usbs.multiswap.MultiVolumeSwap`.

        ``nbytes`` of swap is split into equal per-volume shards
        (rounded up to whole bloks), each a real swap file with the full
        ``qos`` admitted on its volume. Raises :class:`AdmissionError`
        — after rolling back any shards already admitted — when any
        target volume refuses the guarantee or has no extent space.
        """
        placement = placement if placement is not None else self.placement
        if placement not in _PLACEMENTS:
            raise ValueError("placement must be one of %s" % (_PLACEMENTS,))
        targets = self._targets(name, placement)
        page_size = self.machine.page_size
        total_bloks = max(1, math.ceil(self.machine.align_up(nbytes)
                                       / page_size))
        per_shard_bytes = math.ceil(total_bloks / len(targets)) * page_size
        shards = []
        try:
            for volume in targets:
                shard = volume.sfs.create_swapfile(
                    "%s@%s" % (name, volume.name), per_shard_bytes, qos,
                    depth=depth)
                shards.append((volume, shard))
        except (ValueError, ExtentError) as exc:
            for volume, shard in shards:
                volume.usd.depart(shard.channel.usd_client, discard=True)
            self._c_refusals.inc()
            raise AdmissionError(
                "aggregate admission refused %r (%s over %d volume(s)): %s"
                % (name, qos, len(targets), exc)) from exc
        for volume, _shard in shards:
            self._c_extents.inc(volume=volume.name)
        swap = MultiVolumeSwap(self.sim, name, shards, metrics=self.metrics)
        self.backings.append(swap)
        return swap

    # -- health monitoring ---------------------------------------------------

    def _monitor_loop(self):
        """Watch each volume's fault exposure; degrade on a burst.

        Exposure deltas over a trailing window of ``WINDOW_NS`` are
        compared against ``EXPOSURE_THRESHOLD``; crossing it marks the
        volume failing and kicks off the drain. Pure function of
        simulated time and the (deterministic) injection counters, so
        detection time is seed-stable.
        """
        history = {volume.index: [] for volume in self.volumes}
        while True:
            yield self.sim.timeout(POLL_NS)
            now = self.sim.now
            for volume in self.volumes:
                if not volume.healthy:
                    continue
                samples = history[volume.index]
                samples.append((now, volume.fault_exposure()))
                while samples and samples[0][0] < now - WINDOW_NS:
                    samples.pop(0)
                if (len(samples) >= 2
                        and samples[-1][1] - samples[0][1]
                        >= EXPOSURE_THRESHOLD):
                    self.degrade(volume)

    # -- the degraded-volume path --------------------------------------------

    def degrade(self, volume):
        """Mark one volume failing and re-place its extents.

        Shards are drained smallest guarantee first (they are the
        easiest to re-home); each goes to the healthy volume with the
        most guaranteeable share left (ties broken by volume index —
        deterministic). A shard no volume can admit is stranded on the
        degraded volume and counted, not hidden.
        """
        if not volume.healthy:
            return
        volume.set_state(DEGRADED)
        self._c_degrades.inc(volume=volume.name)
        work = []
        for swap in self.backings:
            for index in swap.slots_on(volume):
                share = swap.slots[index].shard.channel.usd_client.qos.share
                work.append((share, swap.name, swap, index))
        work.sort(key=lambda item: (item[0], item[1], item[3]))
        for _share, _name, swap, index in work:
            self._replace_slot(swap, index, volume)
        if not any(slot.volume is volume
                   for swap in self.backings for slot in swap.slots) \
                and not work:
            volume.set_state(RETIRED)

    def _replace_slot(self, swap, index, failing):
        """Admit a replacement shard for one slot and spawn its drain."""
        old_slot = swap.slots[index]
        old_shard = old_slot.shard
        client = old_shard.channel.usd_client
        qos = client.qos
        depth = old_shard.channel.depth
        nbytes = old_shard.nbloks * self.machine.page_size
        candidates = sorted(self.healthy_volumes(),
                            key=lambda v: (-v.free_share, v.index))
        for volume in candidates:
            try:
                shard = volume.sfs.create_swapfile(
                    "%s@%s" % (swap.name, volume.name), nbytes, qos,
                    depth=depth)
            except (ValueError, ExtentError):
                continue
            self._c_extents.inc(volume=volume.name)
            swap.begin_drain(index, volume, shard)
            self.sim.spawn(
                self._drain(swap, index, failing),
                name="usbs-drain-%s-%d" % (swap.name, index))
            return True
        self.stranded.append((swap.name, index))
        self._c_stranded.inc()
        return False

    def _drain(self, swap, index, failing):
        """Copy one slot's bloks off a failing volume, then retire it.

        Reads go through the old shard (the owner's stream on the
        failing volume — retries and backoff charged to the owner);
        writes through the replacement shard's stream. Bloks the
        storming disk will not give back are marked lost; a blok the
        client rewrites mid-drain is skipped (the fresh copy
        supersedes).

        The copy is pipelined across ``DRAIN_WIDTH`` workers striding
        the blok range. One blok at a time would leave the owner's
        streams workless between bloks — an Atropos client whose
        laxity expires on an empty queue is idle-marked until its next
        periodic allocation, so a serial drain pays up to a full
        period per blok and crawls. Keeping several transfers in
        flight keeps both streams' queues non-empty, so the drain
        proceeds at the owner's contracted rate (still on the owner's
        own guarantees — wider, not cheaper).
        """
        old_shard = swap._draining[index].shard
        span = self.spans.start("usbs.drain", client=swap.name,
                                volume=failing.name)
        stats = {"migrated": 0, "lost": 0}
        width = max(1, min(DRAIN_WIDTH, old_shard.channel.depth - 1,
                           old_shard.nbloks))
        waits = []
        for offset in range(width):
            done = self.sim.event("usbs-drain-%s-%d-w%d"
                                  % (swap.name, index, offset))
            self.sim.spawn(
                self._drain_worker(swap, index, failing, old_shard,
                                   offset, width, stats, done),
                name="usbs-drain-%s-%d-w%d" % (swap.name, index, offset))
            waits.append(done)
        for done in waits:
            yield done
        migrated, lost = stats["migrated"], stats["lost"]
        old_slot = swap.finish_drain(index)
        client = old_slot.shard.channel.usd_client
        if client in old_slot.volume.usd.clients:
            old_slot.volume.usd.depart(client, discard=True)
        self.drains_done += 1
        span.end(migrated=migrated, lost=lost)
        if not any(slot.volume is failing
                   for s in self.backings
                   for slot in list(s.slots) + list(s._draining.values())):
            failing.set_state(RETIRED)

    def _drain_worker(self, swap, index, failing, old_shard, offset,
                      stride, stats, done):
        """One lane of a pipelined drain: bloks ``offset, offset +
        stride, ...`` of the old shard, read-old then write-new each.
        Always triggers ``done`` — the drain coordinator joins on it."""
        try:
            for local in range(offset, old_shard.nbloks, stride):
                if swap not in self.backings:
                    # The owner shut down mid-drain; its streams are
                    # departed and there is nothing left to rescue.
                    break
                if swap.is_migrated(index, local):
                    continue
                while not old_shard.channel.can_submit:
                    yield old_shard.channel.slot()
                read = old_shard.read(local)
                try:
                    yield read
                except (TransactionFailed, BlokLostError):
                    swap.mark_lost(index, local)
                    self._c_lost.inc(volume=failing.name)
                    stats["lost"] += 1
                    continue
                if swap.is_migrated(index, local):
                    continue   # rewritten while our read was in flight
                # A silently-corrupt payload must not migrate: the
                # owner's integrity wrapper (when present) checks the
                # rescued blok against its digest, and a mismatch is
                # declared lost here — the failing volume holds the
                # only copy, so there is nothing to repair from.
                verifier = getattr(swap, "verifier", None)
                if verifier is not None and not verifier.drain_check(
                        swap.global_blok(index, local), read._value):
                    swap.mark_lost(index, local)
                    self._c_lost.inc(volume=failing.name)
                    stats["lost"] += 1
                    continue
                new_shard = swap.slots[index].shard
                while not new_shard.channel.can_submit:
                    yield new_shard.channel.slot()
                try:
                    yield new_shard.write(local)
                except TransactionFailed:
                    swap.mark_lost(index, local)
                    self._c_lost.inc(volume=failing.name)
                    stats["lost"] += 1
                    continue
                swap.mark_migrated(index, local)
                self._c_migrated.inc(volume=failing.name)
                stats["migrated"] += 1
        finally:
            if not done.triggered:
                done.trigger(None)

    # -- accounting -----------------------------------------------------------

    def fault_exposure_by_volume(self):
        """{volume name: faults injected} — the containment evidence."""
        return {volume.name: volume.fault_exposure()
                for volume in self.volumes}

    def corruption_exposure_by_volume(self):
        """{volume name: silent corruptions injected} — the integrity
        plane's containment evidence."""
        return {volume.name: volume.corruption_exposure()
                for volume in self.volumes}

    def __repr__(self):
        return "<VolumeManager %d volume(s), %d backing(s), %s placement>" % (
            len(self.volumes), len(self.backings), self.placement)
