"""A swap file sharded across volumes, with live re-placement.

:class:`MultiVolumeSwap` presents the same surface a
:class:`~repro.usd.sfs.SwapFile` presents to the paged stretch drivers
— ``nbloks``, ``read(blok)``/``write(blok)`` returning completion
events, a ``channel`` with rbufs-style flow control, ``slot_for``/
``can_accept`` stream selection — but routes each blok to one of
several per-volume shards. Every shard is a real
:class:`~repro.usd.sfs.SwapFile`: its own extent on that volume's swap
partition, its own USD stream admitted under the client's (p, s, x, l)
guarantee on that volume's Atropos instance, its own IO channel and
spare-region remap table. The client therefore holds an *independent
guarantee on every volume it touches*, which is what makes aggregate
paging bandwidth scale with the volume count while each volume's QoS
arithmetic stays exactly the paper's.

Placement is a pure function of the blok number: blok ``b`` lives on
slot ``b % V`` at shard-local index ``b // V`` (round-robin striping;
pinned placement is the ``V == 1`` case). Sequential bloks — which is
what the paged driver's first-fit blok allocation produces for
sequential stretches — land on consecutive volumes, so a pipelined
reader keeps all spindles busy, and within one shard the same stream is
still LBA-sequential (stride one in shard space), preserving the disk
read-ahead behaviour the figures depend on.

**Re-placement** (the degraded-volume path): the manager calls
:meth:`begin_drain` to install a replacement shard for one slot. From
that instant new writes route to the replacement (a fresh write
supersedes the old copy — the data is in memory), while reads of
not-yet-migrated bloks follow the old shard, retries and all. The
manager's drain process copies the remaining bloks across and then
:meth:`finish_drain` retires the old shard. A blok whose only copy
could not be read off the failing volume is marked *lost*: subsequent
reads fail fast with :class:`~repro.usd.usd.BlokLostError` so the
paged driver can contain the damage to exactly the pages whose extents
sat on the failed volume.

The simulation models timing, placement and accounting — not data
content — so the drain copies every allocated blok rather than only
live ones; a real implementation would consult the client's blok map.
"""

from repro.hw.disk import READ, WRITE
from repro.obs.metrics import NULL_REGISTRY
from repro.usd.usd import BlokLostError


class _Slot:
    """One stripe position: the volume and shard currently serving it."""

    __slots__ = ("volume", "shard")

    def __init__(self, volume, shard):
        self.volume = volume
        self.shard = shard


class FanoutChannel:
    """Aggregate flow-control view over every active shard channel.

    Presents the two :class:`~repro.usd.iochannel.IOChannel` attributes
    the stream driver sizes its read-ahead by (``depth`` and
    ``outstanding``), summed across shards. Per-blok gating — the
    precise question "may I submit *this* blok" — lives on the swap
    itself (:meth:`MultiVolumeSwap.slot_for` /
    :meth:`MultiVolumeSwap.can_accept`), and the teardown inventory is
    :meth:`MultiVolumeSwap.attachments`.
    """

    def __init__(self, swap):
        self._swap = swap

    def _channels(self):
        return [slot.shard.channel for slot in self._swap.slots]

    @property
    def depth(self):
        """Total outstanding-transaction budget across shards."""
        return sum(ch.depth for ch in self._channels())

    @property
    def outstanding(self):
        """Transactions currently in flight across shards."""
        return sum(ch.outstanding for ch in self._channels())


class MultiVolumeSwap:
    """A striped, re-placeable swap backing for one paged driver."""

    def __init__(self, sim, name, shards, metrics=None):
        """``shards`` is a non-empty list of ``(volume, SwapFile)``
        pairs, one per stripe slot, all the same blok count."""
        if not shards:
            raise ValueError("a MultiVolumeSwap needs at least one shard")
        self.sim = sim
        self.name = name
        self.slots = [_Slot(volume, shard) for volume, shard in shards]
        self.per_shard = min(shard.nbloks for _volume, shard in shards)
        self.nbloks = self.per_shard * len(self.slots)
        self.channel = FanoutChannel(self)
        self._defer_name = "usbs.%s.deferred" % name
        self._defer_proc_name = "usbs-defer-%s" % name
        self.reads = 0
        self.writes = 0
        self._draining = {}    # slot index -> old _Slot (drain in progress)
        self._migrated = {}    # slot index -> set of local bloks moved
        self.lost = set()      # (slot index, local blok): data gone
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_routed = metrics.counter(
            "usbs_bloks_routed_total",
            help="blok transactions routed, by backing, volume and op")

    # -- routing ------------------------------------------------------------

    def _locate(self, blok):
        """Global blok -> (slot index, shard-local blok)."""
        if not 0 <= blok < self.nbloks:
            raise ValueError("blok %d outside backing %s (nbloks=%d)"
                             % (blok, self.name, self.nbloks))
        nslots = len(self.slots)
        return blok % nslots, blok // nslots

    def global_blok(self, index, local):
        """(slot index, shard-local blok) -> global blok: the inverse
        of :meth:`_locate`, for callers that work shard-locally (the
        drain) but must name bloks in the owner's space (the
        integrity verifier)."""
        return local * len(self.slots) + index

    def volume_of(self, blok, kind=READ):
        """The volume a ``kind`` access to ``blok`` would reach now."""
        index, local = self._locate(blok)
        if kind == READ:
            return self._read_source(index, local).volume
        return self.slots[index].volume

    def _read_source(self, index, local):
        """The slot a read must use: the old shard until migrated."""
        old = self._draining.get(index)
        if old is not None and local not in self._migrated.get(index, ()):
            return old
        return self.slots[index]

    # -- the SwapFile surface ----------------------------------------------

    def read(self, blok):
        """Page in one blok from whichever shard currently holds it.

        A blok recorded as *lost* (its volume failed before the drain
        could copy it) fails immediately with
        :class:`~repro.usd.usd.BlokLostError` — containment, exactly
        like a persistent read error on a single disk.
        """
        index, local = self._locate(blok)
        if (index, local) in self.lost:
            done = self.sim.event("usbs.%s.lost(%d)" % (self.name, blok))
            done.fail(BlokLostError(
                "blok %d of %s was lost when %s failed"
                % (blok, self.name, self._lost_on(index))))
            return done
        slot = self._read_source(index, local)
        self.reads += 1
        self._c_routed.inc(backing=self.name, volume=slot.volume.name,
                           op=READ)
        return self._dispatch(slot.shard, READ, local)

    def write(self, blok):
        """Page out one blok.

        During a drain, writes go straight to the replacement shard and
        mark the blok migrated (the in-memory copy supersedes whatever
        sat on the failing volume — including a blok previously marked
        lost, which this resurrects).
        """
        index, local = self._locate(blok)
        slot = self.slots[index]
        if index in self._draining:
            self._migrated.setdefault(index, set()).add(local)
        # A write lands fresh data on the active shard, so it always
        # resurrects a blok previously marked lost — during a drain or
        # any time after.
        self.lost.discard((index, local))
        self.writes += 1
        self._c_routed.inc(backing=self.name, volume=slot.volume.name,
                           op=WRITE)
        return self._dispatch(slot.shard, WRITE, local)

    def slot_for(self, blok, kind=READ):
        """Stream selection: the flow-control event for the shard a
        ``kind`` access to ``blok`` would use. The paged driver gates
        on this instead of a global channel, so a full pipe on one
        volume does not stall accesses bound for another."""
        index, local = self._locate(blok)
        slot = (self._read_source(index, local) if kind == READ
                else self.slots[index])
        return slot.shard.channel.slot()

    def can_accept(self, blok, kind=READ, reserve=1):
        """True when ``blok``'s shard can take another transaction while
        keeping ``reserve`` slots free for demand faults."""
        index, local = self._locate(blok)
        slot = (self._read_source(index, local) if kind == READ
                else self.slots[index])
        channel = slot.shard.channel
        return channel.outstanding < channel.depth - reserve

    def attachments(self):
        """Every USD stream this backing holds (active shards plus any
        old shards still draining) — the teardown inventory."""
        clients = [slot.shard.channel.usd_client for slot in self.slots]
        clients.extend(old.shard.channel.usd_client
                       for old in self._draining.values())
        return clients

    def lost_bloks(self):
        """Sorted ``[slot index, local blok]`` pairs for every blok
        recorded lost. ``self.lost`` is a set, so anything feeding a
        report must come through here — set iteration order is not part
        of the deterministic surface."""
        return [list(pair) for pair in sorted(self.lost)]

    @property
    def extents(self):
        """The active shards' extents (one per stripe slot)."""
        return [slot.shard.extent for slot in self.slots]

    # -- submission ---------------------------------------------------------

    def _dispatch(self, shard, kind, local):
        """Submit now if the shard channel has room, else defer.

        Deferral absorbs the race between the driver's ``slot_for``
        gate and a prefetcher grabbing the slot in between: submission
        order is preserved per shard by the spawned waiter queueing on
        the channel's slot events.
        """
        op = shard.read if kind == READ else shard.write
        if shard.channel.can_submit:
            return op(local)
        done = self.sim.event(self._defer_name)
        self.sim.spawn(self._submit_when_free(shard, kind, local, done),
                       name=self._defer_proc_name)
        return done

    def _submit_when_free(self, shard, kind, local, done):
        """Waiter process: submit once the shard channel frees a slot."""
        while not shard.channel.can_submit:
            yield shard.channel.slot()
        try:
            inner = (shard.read if kind == READ else shard.write)(local)
        except Exception as exc:   # e.g. the stream departed meanwhile
            if not done.triggered:
                done.fail(exc)
            return

        def chain(event):
            if done.triggered:
                return
            if event.ok:
                done.trigger(event._value)
            else:
                done.fail(event._value)

        inner.add_callback(chain)

    # -- drain bookkeeping (driven by the VolumeManager) ---------------------

    def slots_on(self, volume):
        """Indices of active slots currently served by ``volume``
        (slots already draining are skipped — one drain at a time)."""
        return [index for index, slot in enumerate(self.slots)
                if slot.volume is volume and index not in self._draining]

    def begin_drain(self, index, volume, shard):
        """Install a replacement shard for one slot and start routing
        new writes to it; reads follow the old shard until migrated."""
        if index in self._draining:
            raise RuntimeError("slot %d of %s is already draining"
                               % (index, self.name))
        self._draining[index] = self.slots[index]
        self._migrated[index] = set()
        self.slots[index] = _Slot(volume, shard)

    def is_migrated(self, index, local):
        """True once ``local`` of slot ``index`` lives on the new shard."""
        return local in self._migrated.get(index, ())

    def mark_migrated(self, index, local):
        """Record one blok as copied to the replacement shard."""
        self._migrated.setdefault(index, set()).add(local)

    def mark_lost(self, index, local):
        """Record one blok as unrecoverable (drain could not read it)."""
        self.lost.add((index, local))

    def finish_drain(self, index):
        """Retire the old shard for one slot; returns its old _Slot."""
        self._migrated.pop(index, None)
        return self._draining.pop(index)

    @property
    def draining(self):
        """True while any slot has a re-placement in progress."""
        return bool(self._draining)

    def _lost_on(self, index):
        old = self._draining.get(index)
        return (old.volume.name if old is not None
                else self.slots[index].volume.name)

    def __repr__(self):
        return "<MultiVolumeSwap %s bloks=%d over %s>" % (
            self.name, self.nbloks,
            "+".join(slot.volume.name for slot in self.slots))
