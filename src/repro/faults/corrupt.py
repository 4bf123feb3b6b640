"""Deterministic fault injection for *silent data corruption*.

The first three fault planes cover a disk that fails loudly
(:mod:`repro.faults.plan`), a domain that misbehaves
(:mod:`repro.faults.behavior`) and a component that dies
(:mod:`repro.faults.crash`). This module models the failure class that
none of those recovery paths can even see: a read that **succeeds**
with the wrong bytes. The transaction status stays ``ok``, no retry
ladder engages, no watchdog barks — the corrupt blok flows straight
into the owning domain's working set unless something end-to-end
checks it. That something is :mod:`repro.integrity`, and this plane
exists to prove it works.

Corruption kinds:

* ``bit_flip`` — a transient medium/transfer flip: the draw is keyed
  per (LBA, read time), so re-reading the same blok later gets a fresh
  draw. This is the repairable class — a detected flip is usually gone
  on the repair re-read.
* ``torn_write`` — a write that only partially committed: the draw is
  keyed per (LBA, write generation), so the corruption is a permanent
  property of *that written version* and every read of it returns the
  same torn payload. Rewriting the blok bumps the generation and
  re-draws.
* ``misdirected_write`` — the drive put the payload somewhere else, so
  this LBA holds stale/foreign bytes: keyed like ``torn_write`` (a
  property of the written version), distinct only in what the corrupt
  payload models.

Determinism follows the other planes exactly: every draw is a pure
function of ``(seed, kind, rule index, lba, time-or-generation)``
through keyed BLAKE2b, so a corruption storm reproduces byte-for-byte
given the same seed. The plan, installed as the disk's ``corruptor``,
is consulted on every *successful* read and notified of every
successful write (to advance write generations); it never changes a
transaction's status or timing — corruption is free, silent and
invisible to the storage plane's error machinery, which is the entire
point.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.plan import Plan, _check_rate_and_window, _draw, _in_window

# Corruption kinds.
BIT_FLIP = "bit_flip"
TORN_WRITE = "torn_write"
MISDIRECTED_WRITE = "misdirected_write"

CORRUPT_KINDS = (BIT_FLIP, TORN_WRITE, MISDIRECTED_WRITE)


@dataclass(frozen=True)
class CorruptRule:
    """One corruption rule, scoped by LBA range and time window.

    ``rate`` is the per-read (``bit_flip``) or per-written-version
    (``torn_write`` / ``misdirected_write``) probability, drawn once
    per transaction keyed off its first LBA — swap transactions are
    blok-aligned, so the first LBA identifies the blok. Explicit
    ``blocks`` corrupt unconditionally whenever a transaction covers
    them (and then the rate/range draw is skipped, mirroring
    ``bad_block``).
    """

    kind: str
    rate: float = 1.0
    lba_start: int = 0
    lba_end: Optional[int] = None      # None: to end of disk
    start_ns: int = 0
    end_ns: Optional[int] = None       # None: forever
    blocks: Tuple[int, ...] = ()       # explicit corrupt LBAs

    def __post_init__(self):
        if self.kind not in CORRUPT_KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % (CORRUPT_KINDS, self.kind))
        _check_rate_and_window(self)

    def applies(self, req, now):
        """Rule scope check: time window and LBA overlap."""
        if not _in_window(self, now):
            return False
        end = self.lba_end
        return req.end > self.lba_start and (end is None or req.lba < end)


@dataclass(frozen=True)
class CorruptDecision:
    """One silent corruption: which rule fired, what kind, where."""

    rule_index: int
    kind: str
    lba: int


class CorruptPlan(Plan):
    """The corruption plane, installed as the disk's ``corruptor``:
    first firing rule wins, with per-blok write generations.

    ``note_write`` must be called for every *successful* write so torn
    and misdirected corruption attaches to written versions — a client
    that rewrites a corrupt blok deterministically re-draws (the fresh
    version either takes cleanly or is corrupt anew).
    """

    METRIC = ("corruptions_injected_total",
              "silent corruptions injected on the read path, by kind "
              "and victim stream")

    def __init__(self, seed, rules=()):
        super().__init__(seed, rules)
        self._generation = {}   # blok-aligned LBA -> versions written

    def note_write(self, req, now):
        """Advance the written generation of the blok ``req`` covers."""
        self._generation[req.lba] = self._generation.get(req.lba, 0) + 1

    def _hit(self, rule, index, req, now, generation):
        """Whether one applicable rule corrupts this read."""
        if rule.blocks:
            return any(req.lba <= lba < req.end for lba in rule.blocks)
        if rule.rate <= 0.0:
            return False
        occasion = now if rule.kind == BIT_FLIP else generation
        return _draw(self.seed, rule.kind, index, req.lba,
                     occasion) < rule.rate

    def decide_read(self, req, now):
        """What a successful read of ``req`` actually returns: None for
        the true payload, or a :class:`CorruptDecision` naming the
        corruption silently riding along."""
        generation = self._generation.get(req.lba, 0)
        decision = None
        for index, rule in enumerate(self.rules):
            if not rule.applies(req, now):
                continue
            if not self._hit(rule, index, req, now, generation):
                continue
            self._observe(index)
            if decision is None:
                decision = CorruptDecision(rule_index=index, kind=rule.kind,
                                           lba=req.lba)
        if decision is not None:
            self._inject(kind=decision.kind, client=req.client or "?")
        return decision


def extent_corruption(seed, extent, kind=BIT_FLIP, rate=0.1):
    """A :class:`CorruptPlan` scoped to one extent — the storm shape
    the integrity experiment lands on one pager's swap extent, leaving
    every other LBA on the disk untouched."""
    return CorruptPlan(seed=seed, rules=(
        CorruptRule(kind=kind, rate=rate, lba_start=extent.start,
                    lba_end=extent.end),))

