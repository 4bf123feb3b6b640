"""Deterministic fault injection for the storage path.

The paper's containment argument (§4–§6, Figure 9) is only half-tested
by CPU/protection faults: the other half is the storage stack the USBS
exists to discipline. This module provides the *injection plane*: a
:class:`FaultPlan` of declarative :class:`FaultRule` entries that the
disk model consults on every transaction, and :class:`Plan`, the base
all four planes share. A plan is its plane's consultation point: it
holds the seed and rules, the fire evidence the mission audit reads
(``observed``), the count of faults it delivered (``injected``) and,
once :meth:`Plan.bind` is called at install time, the plane's metric
family. Because a plan carries that state, each install takes a fresh
one.

Determinism is the design constraint. Every probabilistic draw is a
pure function of ``(seed, rule, lba, op, simulated time)`` through a
keyed BLAKE2b hash — no global RNG state, no draw ordering effects — so
a run under a fault storm is byte-for-byte reproducible given the same
seed, and two components consulting the plan concurrently cannot
perturb each other's draws.

Fault kinds:

* ``transient`` — the transaction fails this time; a retry at a later
  simulated time gets a fresh draw (the USD's retry loop exploits
  exactly this).
* ``bad_block`` — a *persistent* medium error: the draw is keyed off
  the LBA alone (or the rule lists explicit bad LBAs), so every access
  to that block fails forever. Recovery must re-route (SFS spare-region
  remapping) or contain the loss (paged-driver page kill).
* ``latency`` — the transaction succeeds but takes ``extra_ns``
  longer (a drive-internal retry/thermal recalibration spike).
* ``stuck`` — the drive wedges for ``stuck_ns`` and then reports a
  timeout; the MMEntry watchdog exists for the faults this hangs.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY
from repro.sim.units import MS

# Fault kinds.
TRANSIENT = "transient"
BAD_BLOCK = "bad_block"
LATENCY = "latency"
STUCK = "stuck"

# Transaction statuses (shared vocabulary with repro.hw.disk).
STATUS_OK = "ok"
STATUS_IO_ERROR = "io_error"
STATUS_TIMEOUT = "timeout"

_KINDS = (TRANSIENT, BAD_BLOCK, LATENCY, STUCK)


def _draw(seed, *key):
    """A deterministic uniform draw in [0, 1) keyed by ``(seed, *key)``.

    Hash-based (BLAKE2b), so it is stable across processes and Python
    versions — unlike ``hash()`` — and independent of call order.
    """
    data = ("%d|" % seed + "|".join(str(part) for part in key)).encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def _check_rate_and_window(rule):
    """The validation every plane's rule shares: a per-draw ``rate`` in
    [0, 1] and a ``[start_ns, end_ns)`` window (``end_ns`` None: forever)."""
    if not 0.0 <= rule.rate <= 1.0:
        raise ValueError("rate must be in [0, 1], got %r" % rule.rate)
    if rule.start_ns < 0:
        raise ValueError("negative start_ns")
    if rule.end_ns is not None and rule.end_ns <= rule.start_ns:
        raise ValueError("end_ns must exceed start_ns")


def _in_window(rule, now):
    """Whether simulated time ``now`` falls in ``rule``'s window."""
    return rule.start_ns <= now and (rule.end_ns is None
                                     or now < rule.end_ns)


class Plan:
    """A seed plus an ordered tuple of rules, and what consulting them
    accumulates.

    ``observed`` counts, per rule index, the consultations on which the
    rule's own draw fired — even a rule outranked by another on the
    same consultation (draws are pure, so the extra evaluations cannot
    perturb a decision) — so the mission plane's injection audit can
    prove each declared rule was exercised. ``injected`` counts the
    faults actually delivered; :meth:`bind` exports them to the plane's
    metric family as well.
    """

    #: (family name, help) of the plane's injection counter.
    METRIC = ("", "")

    def __init__(self, seed, rules=()):
        self.seed = seed
        self.rules = tuple(rules)
        #: Fire evidence: {rule index: fires}.
        self.observed = {}
        self.injected = 0
        self._family = NULL_REGISTRY.counter(self.METRIC[0])

    def bind(self, metrics):
        """Count this plan's injections in ``metrics`` (called when the
        plan is installed); returns the plan."""
        name, help_text = self.METRIC
        self._family = metrics.counter(name, help=help_text)
        return self

    def _observe(self, index):
        """Record one firing of rule ``index``."""
        self.observed[index] = self.observed.get(index, 0) + 1

    def _inject(self, **labels):
        """Account one delivered fault under ``labels``."""
        self.injected += 1
        self._family.child(**labels).inc()


@dataclass(frozen=True)
class FaultRule:
    """One injection rule, scoped by LBA range, operation and time.

    ``rate`` is the per-draw probability. For ``transient``/``stuck``/
    ``latency`` the draw is keyed off (lba, op, now): retries at later
    times re-draw. For ``bad_block`` the draw is keyed off the LBA
    alone, so badness is a permanent property of the block; explicit
    ``blocks`` mark LBAs bad unconditionally.
    """

    kind: str
    rate: float = 1.0
    lba_start: int = 0
    lba_end: Optional[int] = None      # None: to end of disk
    op: Optional[str] = None           # "read" / "write" / None (both)
    start_ns: int = 0
    end_ns: Optional[int] = None       # None: forever
    extra_ns: int = 5 * MS             # latency-spike penalty
    stuck_ns: int = 100 * MS           # stuck-disk wedge duration
    blocks: Tuple[int, ...] = ()       # explicit bad LBAs (bad_block)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % (_KINDS, self.kind))
        _check_rate_and_window(self)

    def applies(self, req, now):
        """Rule scope check: operation, time window, LBA overlap."""
        if self.op is not None and req.kind != self.op:
            return False
        if not _in_window(self, now):
            return False
        end = self.lba_end
        return req.end > self.lba_start and (end is None or req.lba < end)


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one transaction.

    ``status`` is one of the STATUS_* constants; ``extra_ns`` is added
    to the transaction's service time (latency spikes, and the wedge
    duration of a stuck transaction); ``kind`` names the fault injected
    (None when the transaction is clean).
    """

    status: str = STATUS_OK
    extra_ns: int = 0
    kind: Optional[str] = None


CLEAN = FaultDecision()


class FaultPlan(Plan):
    """The storage plane, installed as the disk's ``injector``.

    Precedence when several rules hit the same transaction:
    ``bad_block`` > ``stuck`` > ``transient`` (an error outranks a
    wedge outranks a transient); ``latency`` composes additively with a
    clean result and is subsumed by any failure.
    """

    METRIC = ("faults_injected_total",
              "storage faults injected, by kind and victim stream")

    def _bad_block_hit(self, rule, index, req):
        for lba in rule.blocks:
            if req.lba <= lba < req.end:
                return True
        if rule.blocks or rule.rate <= 0.0:
            return False
        end = req.end if rule.lba_end is None else min(req.end, rule.lba_end)
        for lba in range(max(req.lba, rule.lba_start), end):
            if _draw(self.seed, "bad", index, lba) < rule.rate:
                return True
        return False

    def decide(self, req, now):
        """Evaluate every rule against one transaction; returns a
        :class:`FaultDecision` (CLEAN if nothing fires)."""
        fail_kind = None
        stuck_ns = 0
        latency_extra = 0
        for index, rule in enumerate(self.rules):
            if not rule.applies(req, now):
                continue
            if rule.kind == BAD_BLOCK:
                if self._bad_block_hit(rule, index, req):
                    self._observe(index)
                    fail_kind = BAD_BLOCK
            elif rule.kind == STUCK:
                if _draw(self.seed, STUCK, index, req.lba, req.kind,
                         now) < rule.rate:
                    self._observe(index)
                    if fail_kind in (None, TRANSIENT):
                        fail_kind = STUCK
                        stuck_ns = rule.stuck_ns
            elif rule.kind == TRANSIENT:
                if _draw(self.seed, TRANSIENT, index, req.lba, req.kind,
                         now) < rule.rate:
                    self._observe(index)
                    if fail_kind is None:
                        fail_kind = TRANSIENT
            else:  # LATENCY
                if _draw(self.seed, LATENCY, index, req.lba, req.kind,
                         now) < rule.rate:
                    self._observe(index)
                    latency_extra += rule.extra_ns
        if fail_kind in (BAD_BLOCK, TRANSIENT):
            decision = FaultDecision(status=STATUS_IO_ERROR, kind=fail_kind)
        elif fail_kind == STUCK:
            decision = FaultDecision(status=STATUS_TIMEOUT,
                                     extra_ns=stuck_ns, kind=STUCK)
        elif latency_extra:
            decision = FaultDecision(extra_ns=latency_extra, kind=LATENCY)
        else:
            return CLEAN
        self._inject(kind=decision.kind, client=req.client or "?")
        return decision


def disk_storm(seed, transient_rate):
    """A whole-disk transient storm: the 'this spindle is failing'
    plan the multi-volume health monitor reacts to. Every LBA on the
    disk it is attached to fails at ``transient_rate`` per attempt,
    from the moment the plan is installed."""
    return FaultPlan(seed=seed, rules=(
        FaultRule(kind=TRANSIENT, rate=transient_rate),))

