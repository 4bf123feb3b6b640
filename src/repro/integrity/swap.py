"""End-to-end checksummed swap: detect, quarantine, repair, declare.

:class:`ChecksummedSwap` wraps any swap backing presenting the
:class:`~repro.usd.sfs.SwapFile` surface (including
:class:`~repro.usbs.multiswap.MultiVolumeSwap`) and makes its reads
*trustworthy*: every swap-out records a BLAKE2b digest of the written
payload, every swap-in recomputes and compares. The transport layers
below — IO channels, USD retries, the disk itself — never see a
corruption (the transaction status is ``ok``; that is what *silent*
means), so this wrapper is the only line of defence, exactly the
end-to-end argument.

On a mismatch the blok is **quarantined** and one **repair re-read**
is issued through the owner's own stream — charged, like every other
cost in this system, to the suffering account (§4 accountability).
Routing follows the backing: a blok already migrated to a peer volume
by a drain is re-fetched from the replacement shard. A ``bit_flip``
re-draws at the later read time and usually comes back clean
(repaired); a torn or misdirected write is a property of the written
version and comes back corrupt again, so the blok is declared lost and
the read event fails with :class:`CorruptDataError` — the paged
driver's PR-2 containment path (retire the blok, kill only the
faulting thread) takes it from there. A later rewrite of the blok
lifts the quarantine: fresh data supersedes.
"""

from repro.hw.disk import READ
from repro.integrity.checksum import blok_payload, checksum, corrupt_payload
from repro.obs.metrics import NULL_REGISTRY

#: Read sources, for accounting: a demand page-in vs a scrub pass.
DEMAND = "demand"
SCRUB = "scrub"


class CorruptDataError(Exception):
    """A blok's payload failed verification and could not be repaired.

    Carries enough to account the loss: the blok, the corruption kind
    the disk model injected, and how it was found (demand or scrub).
    """

    def __init__(self, message, blok=None, kind=None, source=DEMAND):
        super().__init__(message)
        self.blok = blok
        self.kind = kind
        self.source = source


class ChecksummedSwap:
    """A verifying proxy around a swap backing.

    Presents the same surface as the wrapped backing (unknown
    attributes delegate to ``inner``), overriding ``read``/``write``
    with the verify/record paths. The paged drivers and teardown code
    need no changes beyond unwrapping ``inner`` where object identity
    matters.
    """

    def __init__(self, sim, inner, metrics=None, on_lost=None):
        self.sim = sim
        self.inner = inner
        self.name = inner.name
        self._write_name = "integrity.%s.write" % self.name
        self._read_name = "integrity.%s.read" % self.name
        #: Called as ``on_lost(swap, blok, kind, source)`` when a
        #: detected corruption proves unrepairable — the escalation
        #: ladder's feed (a repaired transient never escalates).
        self.on_lost = on_lost
        # A volume drain reads shards below this wrapper; registering
        # as the backing's verifier lets the drain check each rescued
        # blok against the owner's digests (see ``drain_check``).
        inner.verifier = self
        #: blok -> digest of the last successfully-written payload.
        self.checksums = {}
        #: blok -> write generation of the last successful write.
        self._written = {}
        self._next_gen = {}
        #: Bloks whose current on-disk version is known corrupt.
        self.quarantined = set()
        self.corruptions_detected = 0
        self.corruptions_repaired = 0
        self.corruptions_lost = 0
        self.repair_reads = 0
        #: Every corrupt payload this wrapper intercepted before it
        #: could reach a consumer: detections plus corrupt repair
        #: re-reads. ``corruptor.injected - sum(caught)`` is therefore
        #: the count of corruptions delivered *unverified* — the
        #: ``undetected_corruptions`` evidence.
        self.corruptions_caught = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_detected = metrics.counter(
            "integrity_corruptions_detected_total",
            help="checksum mismatches caught at swap-in, by backing, "
                 "kind and source")
        self._c_repaired = metrics.counter(
            "integrity_corruptions_repaired_total",
            help="detected corruptions healed by a repair re-read, by "
                 "backing and source")
        self._c_lost = metrics.counter(
            "integrity_corruptions_lost_total",
            help="detected corruptions declared unrepairable, by "
                 "backing and source")

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    # -- bookkeeping ---------------------------------------------------------

    def checksummed_bloks(self):
        """Sorted bloks holding a recorded digest — the scrub walk
        list (set/dict order never feeds the deterministic surface)."""
        return sorted(self.checksums)

    def quarantined_bloks(self):
        """Sorted bloks currently quarantined."""
        return sorted(self.quarantined)

    def _payload(self, blok, corrupt_kind):
        """The payload this read actually returned, per the content
        model: the written generation's true bytes, or the injected
        corruption's variant of them."""
        generation = self._written.get(blok, 0)
        if corrupt_kind is None:
            return blok_payload(self.name, blok, generation)
        return corrupt_payload(self.name, blok, generation, corrupt_kind)

    # -- the SwapFile surface ------------------------------------------------

    def write(self, blok):
        """Page out one blok, recording its digest on success.

        The digest is computed *before* the write (the data is in
        memory; that is when a real system would checksum it) and
        recorded only when the write completes — a failed write leaves
        the previous version, and its digest, in force.
        """
        generation = self._next_gen.get(blok, 0) + 1
        self._next_gen[blok] = generation
        digest = checksum(blok_payload(self.name, blok, generation))
        done = self.sim.event(self._write_name)
        inner = self.inner.write(blok)
        inner.add_callback(
            lambda ev, b=blok, g=generation, d=digest:
            self._write_complete(ev, done, b, g, d))
        return done

    def _write_complete(self, inner, done, blok, generation, digest):
        if not inner.ok:
            done.fail(inner._value)
            return
        self._written[blok] = generation
        self.checksums[blok] = digest
        self.quarantined.discard(blok)   # fresh data supersedes
        done.trigger(inner._value)

    def read(self, blok, source=DEMAND):
        """Page in one blok, verifying its payload against the stored
        digest; returns the completion SimEvent. A verification failure
        triggers quarantine + one repair re-read before the event
        settles; an unrepairable blok fails the event with
        :class:`CorruptDataError`."""
        done = self.sim.event(self._read_name)
        if blok in self.quarantined:
            # Already declared: fail fast, no disk time wasted. The
            # paged driver retires the blok exactly as for a lost one.
            done.fail(CorruptDataError(
                "blok %d of %s is quarantined (unrepaired corruption)"
                % (blok, self.name), blok=blok, source=source))
            return done
        inner = self.inner.read(blok)
        inner.add_callback(
            lambda ev, b=blok, s=source: self._verify(ev, done, b, s))
        return done

    def _verify(self, inner, done, blok, source):
        """Read-completion hook: compare digests, dispatch repair."""
        if not inner.ok:
            done.fail(inner._value)
            return
        result = inner._value
        corrupt_kind = getattr(result, "corrupt", None)
        stored = self.checksums.get(blok)
        if stored is None or checksum(self._payload(blok,
                                                    corrupt_kind)) == stored:
            done.trigger(result)
            return
        self.corruptions_detected += 1
        self.corruptions_caught += 1
        self._c_detected.inc(backing=self.name,
                             kind=corrupt_kind or "unknown", source=source)
        self.quarantined.add(blok)
        self.sim.spawn(self._repair(done, blok, corrupt_kind, source),
                       name="integrity-repair-%s-%d" % (self.name, blok))

    def _repair(self, done, blok, kind, source):
        """One repair re-read through the owner's own stream.

        Waits for channel room (never pre-empting demand I/O already
        queued), re-reads, re-verifies. Clean: quarantine lifted, the
        original read completes as if nothing happened — the corruption
        cost the owner one extra transaction on its own guarantee.
        Still corrupt (or the re-read itself fails): declared lost.
        """
        while not self.inner.can_accept(blok, READ, reserve=0):
            yield self.inner.slot_for(blok, READ)
        self.repair_reads += 1
        repair = self.inner.read(blok)
        try:
            yield repair
        except Exception:
            self._declare_lost(done, blok, kind, source)
            return
        result = repair._value
        corrupt_kind = getattr(result, "corrupt", None)
        if corrupt_kind is not None:
            self.corruptions_caught += 1
        if (corrupt_kind is None
                and checksum(self._payload(blok, None))
                == self.checksums.get(blok)):
            self.quarantined.discard(blok)
            self.corruptions_repaired += 1
            self._c_repaired.inc(backing=self.name, source=source)
            done.trigger(result)
            return
        self._declare_lost(done, blok, kind, source)

    def drain_check(self, blok, result):
        """Verify one blok on behalf of a volume drain.

        The drain copies shard-locally, *below* this wrapper, so
        without this hook a corrupt payload would migrate silently to
        the replacement shard. Returns True when the payload matches
        the recorded digest (or the blok was never written through
        this wrapper — a free blok carries no app-visible data, so a
        corruption surfacing there is intercepted by definition);
        False declares it: detected and lost in one step, because the
        failing volume is already draining — there is no healthier
        copy to repair from. The caller marks the blok lost, which
        routes every later read onto the PR-2 containment path.
        """
        corrupt_kind = getattr(result, "corrupt", None)
        stored = self.checksums.get(blok)
        if stored is None:
            if corrupt_kind is not None:
                self.corruptions_caught += 1
            return True
        if checksum(self._payload(blok, corrupt_kind)) == stored:
            return True
        self.corruptions_detected += 1
        self.corruptions_caught += 1
        self.corruptions_lost += 1
        self._c_detected.inc(backing=self.name,
                             kind=corrupt_kind or "unknown", source="drain")
        self._c_lost.inc(backing=self.name, source="drain")
        return False

    def _declare_lost(self, done, blok, kind, source):
        """The ladder's honest end: the data is gone; say so."""
        self.corruptions_lost += 1
        self._c_lost.inc(backing=self.name, source=source)
        if self.on_lost is not None:
            self.on_lost(self, blok, kind, source)
        if not done.triggered:
            done.fail(CorruptDataError(
                "blok %d of %s failed verification and could not be "
                "repaired (%s)" % (blok, self.name, kind or "unknown"),
                blok=blok, kind=kind, source=source))
