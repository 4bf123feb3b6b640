"""Background scrubbing and the corruption escalation ladder.

A :class:`Scrubber` walks one backing's checksummed bloks at a bounded
rate, re-reading each through the *owner's own* swap channel — so
scrub I/O is admitted under, and charged to, the owning domain's USD
guarantee (§4 accountability: the suffering account pays for its own
hygiene, bystanders pay nothing). Each blok read goes through the
:class:`~repro.integrity.swap.ChecksummedSwap` verify/repair path, so
a latent corruption is detected *before* a demand fault trips over it,
repaired if transient, and declared lost honestly if not.

The rate bound is twofold: a fixed ``interval_ns`` pause between blok
reads (the scrub never saturates even an idle stream), and a
``can_accept`` gate keeping one channel slot free so demand page-ins
always go first — the scrub uses only the slack of the owner's *own*
pipe.

:class:`VolumeEscalator` is the ladder's last rung: *unrepairable*
losses are attributed to the volume that served them, and a volume
accumulating ``threshold`` of them is handed to the VolumeManager's
degrade→drain→retire path (PR 5), which the supervision tree's
VolumeComponent observes (PR 7). A transient flip repaired by a
re-read indicts nobody; a disk that keeps returning persistently
corrupt versions is a failing disk, and the response is the same as
for one that errors loudly.
"""

from repro.hw.disk import READ
from repro.integrity.swap import SCRUB, CorruptDataError
from repro.obs.spans import NULL_TRACER
from repro.sim.units import MS


class Scrubber:
    """One backing's background integrity walker.

    ``swap`` is a :class:`~repro.integrity.swap.ChecksummedSwap`.
    Passes repeat forever (each one a ``scrub.pass`` span recording
    scanned/detected counts); bloks written since the last pass are
    picked up on the next.
    """

    def __init__(self, sim, swap, interval_ns=20 * MS, spans=None):
        self.sim = sim
        self.swap = swap
        self.interval_ns = interval_ns
        self.spans = spans if spans is not None else NULL_TRACER
        self.passes = 0
        self.scanned = 0
        self.detected = 0
        self.stopped = False
        self._process = None

    def start(self):
        """Spawn the scrub loop (idempotent)."""
        if self._process is None:
            self._process = self.sim.spawn(
                self._loop(), name="scrub-%s" % self.swap.name)
        return self._process

    def stop(self):
        """Retire the scrubber (owner shutdown): the loop exits at its
        next wakeup instead of scrubbing departed streams forever."""
        self.stopped = True

    def _loop(self):
        """Scrub passes back to back, separated by one interval."""
        while not self.stopped:
            yield self.sim.timeout(self.interval_ns)
            yield from self._pass()

    def _pass(self):
        """One bounded-rate walk over the checksummed bloks."""
        bloks = self.swap.checksummed_bloks()
        if not bloks:
            return
        span = self.spans.start("scrub.pass", client=self.swap.name)
        scanned = detected = 0
        before = self.swap.corruptions_detected
        for blok in bloks:
            if self.stopped:
                break
            if blok in self.swap.quarantined:
                continue   # already declared; nothing left to check
            while not self.swap.can_accept(blok, READ, reserve=1):
                if self.swap.can_accept(blok, READ, reserve=0):
                    # Free slots exist but they are the demand reserve:
                    # slot events would fire instantly (the channel is
                    # not full), so back off in time instead.
                    yield self.sim.timeout(self.interval_ns)
                else:
                    yield self.swap.slot_for(blok, READ)
            try:
                yield self.swap.read(blok, source=SCRUB)
            except CorruptDataError:
                pass   # detection + quarantine already accounted
            except Exception:
                pass   # transport failure: the demand path's problem
            scanned += 1
            yield self.sim.timeout(self.interval_ns)
        detected = self.swap.corruptions_detected - before
        self.passes += 1
        self.scanned += scanned
        self.detected += detected
        span.end(scanned=scanned, detected=detected)


class VolumeEscalator:
    """Losses-per-volume accounting feeding the PR-5 drain ladder.

    Install as a ChecksummedSwap's ``on_lost`` hook: only corruptions
    the repair re-read could *not* heal count (a repaired transient
    flip indicts the medium, not the device). Works only for backings
    that can name the volume serving a blok (the multi-volume store);
    single-disk backings stop at quarantine/retire — there is no spare
    spindle to escalate to.
    """

    def __init__(self, manager, threshold=4):
        self.manager = manager
        self.threshold = threshold
        #: volume index -> unrepairable losses served by that volume.
        self.losses = {}
        self.escalated = []

    def __call__(self, swap, blok, kind, source):
        """One declared loss: attribute it; degrade past the
        threshold."""
        volume_of = getattr(swap, "volume_of", None)
        if volume_of is None:
            return
        volume = volume_of(blok, READ)
        count = self.losses.get(volume.index, 0) + 1
        self.losses[volume.index] = count
        if count >= self.threshold and volume.healthy:
            self.escalated.append(volume.index)
            self.manager.degrade(volume)
