"""Deterministic fault injection for the storage path.

The paper's containment argument (§4–§6, Figure 9) is only half-tested
by CPU/protection faults: the other half is the storage stack the USBS
exists to discipline. This module provides the *injection plane*: a
:class:`FaultPlan` of declarative :class:`FaultRule` entries that the
disk model consults on every transaction.

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


class FireRecorder:
    """Set-like audit evidence with per-rule fire *counts*.

    The plans record which rule indices fired through
    ``observed.add(index)``; this recorder keeps both the set of
    indices that ever fired and how many times each did, so mission
    reports can show per-rule counts rather than a boolean. It
    iterates and compares like the plain ``set`` the plans were
    written against, so plans and tests need not care which they get.
    """

    def __init__(self):
        self.counts = {}

    def add(self, index):
        """Record one firing of rule ``index``."""
        self.counts[index] = self.counts.get(index, 0) + 1

    def __contains__(self, index):
        return index in self.counts

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        if isinstance(other, FireRecorder):
            return self.counts == other.counts
        return set(self.counts) == other

    def __repr__(self):
        return "<FireRecorder %r>" % (self.counts,)


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
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1], got %r" % self.rate)

    def applies(self, req, now):
        """Rule scope check: operation, time window, LBA overlap."""
        if self.op is not None and req.kind != self.op:
            return False
        if now < self.start_ns:
            return False
        if self.end_ns is not None and now >= self.end_ns:
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

    @property
    def clean(self):
        return self.status == STATUS_OK and self.extra_ns == 0


CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of rules.

    Precedence when several rules hit the same transaction:
    ``bad_block`` > ``stuck`` > ``transient`` (an error outranks a
    wedge outranks a transient); ``latency`` composes additively with a
    clean result and is subsumed by any failure.
    """

    seed: int
    rules: Tuple[FaultRule, ...] = ()

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

    def decide(self, req, now, observed=None):
        """Evaluate every rule against one transaction; returns a
        :class:`FaultDecision` (CLEAN if nothing fires).

        ``observed``, when given, is a set that collects the index of
        every rule whose own draw fired for this transaction — even
        rules outranked by precedence. Draws are pure functions of the
        key, so the extra evaluations cannot perturb the decision; the
        mission plane's injection audit uses this to prove each
        declared rule was exercised (not vacuous).
        """
        fail_kind = None
        stuck_ns = 0
        latency_extra = 0
        for index, rule in enumerate(self.rules):
            if not rule.applies(req, now):
                continue
            if rule.kind == BAD_BLOCK:
                hit = self._bad_block_hit(rule, index, req)
                if hit and observed is not None:
                    observed.add(index)
                if fail_kind != BAD_BLOCK and hit:
                    fail_kind = BAD_BLOCK
            elif rule.kind == STUCK:
                fired = _draw(self.seed, STUCK, index, req.lba, req.kind,
                              now) < rule.rate
                if fired and observed is not None:
                    observed.add(index)
                if fail_kind in (None, TRANSIENT) and fired:
                    fail_kind = STUCK
                    stuck_ns = rule.stuck_ns
            elif rule.kind == TRANSIENT:
                fired = _draw(self.seed, TRANSIENT, index, req.lba,
                              req.kind, now) < rule.rate
                if fired and observed is not None:
                    observed.add(index)
                if fail_kind is None and fired:
                    fail_kind = TRANSIENT
            else:  # LATENCY
                if _draw(self.seed, LATENCY, index, req.lba, req.kind,
                         now) < rule.rate:
                    if observed is not None:
                        observed.add(index)
                    latency_extra += rule.extra_ns
        if fail_kind in (BAD_BLOCK, TRANSIENT):
            return FaultDecision(status=STATUS_IO_ERROR, kind=fail_kind)
        if fail_kind == STUCK:
            return FaultDecision(status=STATUS_TIMEOUT, extra_ns=stuck_ns,
                                 kind=STUCK)
        if latency_extra:
            return FaultDecision(extra_ns=latency_extra, kind=LATENCY)
        return CLEAN


def disk_storm(seed, transient_rate, start_ns=0, end_ns=None):
    """A whole-disk transient storm: the 'this spindle is failing'
    plan the multi-volume health monitor reacts to. Every LBA on the
    disk it is attached to fails at ``transient_rate`` per attempt
    within the time window."""
    return FaultPlan(seed=seed, rules=(
        FaultRule(kind=TRANSIENT, rate=transient_rate,
                  start_ns=start_ns, end_ns=end_ns),))


#: FaultRule field names settable from declarative (mission) config.
RULE_CONFIG_KEYS = ("kind", "rate", "lba_start", "lba_end", "op",
                    "start_ns", "end_ns", "extra_ns", "stuck_ns", "blocks")


def rule_from_config(config):
    """Build a :class:`FaultRule` from a plain dict.

    The mission plane stores fault rules as data; this is the single
    conversion point, so a config key the dataclass does not know is a
    hard error rather than a silently-ignored knob.
    """
    unknown = sorted(set(config) - set(RULE_CONFIG_KEYS))
    if unknown:
        raise ValueError("unknown fault-rule config key(s): %s"
                         % ", ".join(unknown))
    config = dict(config)
    if "blocks" in config:
        config["blocks"] = tuple(config["blocks"])
    return FaultRule(**config)


def plan_from_config(seed, rule_configs):
    """Build a :class:`FaultPlan` from a seed plus a list of rule
    dicts (see :func:`rule_from_config`). Rule order is preserved —
    draws are keyed by rule index, so order is part of the seed."""
    return FaultPlan(seed=seed, rules=tuple(
        rule_from_config(config) for config in rule_configs))


class FaultInjector:
    """The plan bound to a metrics registry: the disk's consultation
    point, and the accounting of everything injected."""

    def __init__(self, plan, metrics=None):
        self.plan = plan
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._family = metrics.counter(
            "faults_injected_total",
            help="storage faults injected, by kind and victim stream")
        self.injected = 0
        #: Fire evidence per plan rule (set-like, with counts) — the
        #: mission plane's injection-audit evidence.
        self.observed = FireRecorder()

    def decide(self, req, now):
        decision = self.plan.decide(req, now, observed=self.observed)
        if not decision.clean:
            self.injected += 1
            self._family.child(kind=decision.kind,
                               client=req.client or "?").inc()
        return decision
