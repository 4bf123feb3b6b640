"""Deterministic fault injection for *domain behaviour*.

The storage fault plane (:mod:`repro.faults.plan`) models a disk that
misbehaves; this module models a **domain** that misbehaves — the other
half of the paper's isolation claim. §6.2's revocation protocol assumes
the victim cooperates ("if the application fails ... the domain is
killed"); related user-mode paging work identifies revocation under
pressure as exactly the point where such isolation claims break. These
rules make hostility injectable, scoped and reproducible:

* ``revoke_slow`` — the MMEntry services the revocation notification
  only after ``delay_ns`` of dithering. A mildly slow domain survives
  the allocator's multi-round escalation; one slower than
  ``revocation_timeout × max_revocation_rounds`` is killed.
* ``revoke_silent`` — the notification is dropped on the floor: the
  domain never replies. The allocator's escalation must kill it.
* ``revoke_partial`` — the domain arranges only ``fraction`` of the
  requested frames each round, then replies. Cooperative-but-weak: the
  allocator re-asks with a shrunken ``k`` and must *not* kill it.
* ``revoke_lie`` — the domain replies immediately without arranging
  anything. Zero-progress rounds are protocol violations; the
  allocator kills after ``max_revocation_rounds`` of them.
* ``alloc_thrash`` — every asynchronous frame request is inflated by
  ``thrash_factor`` (capped by the contract quota): a greedy domain
  generating allocation churn and memory pressure.

Determinism follows the storage plane's design exactly: every draw is a
pure function of ``(seed, rule, domain, now, sequence)`` through keyed
BLAKE2b — no RNG state, so a hostile-domain storm is reproducible
byte-for-byte given the same seed.

Injection points: the MMEntry revocation channel
(:meth:`repro.mm.mmentry.MMEntry._revocation_notification`) for the
``revoke_*`` kinds, and the frames-client request path
(:meth:`repro.mm.frames.FramesClient.request_frames`) for
``alloc_thrash``.
"""

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import Plan, _check_rate_and_window, _draw, _in_window
from repro.sim.units import MS

# Behaviour kinds.
REVOKE_SLOW = "revoke_slow"
REVOKE_SILENT = "revoke_silent"
REVOKE_PARTIAL = "revoke_partial"
REVOKE_LIE = "revoke_lie"
ALLOC_THRASH = "alloc_thrash"

REVOKE_KINDS = (REVOKE_SLOW, REVOKE_SILENT, REVOKE_PARTIAL, REVOKE_LIE)
BEHAVIOR_KINDS = REVOKE_KINDS + (ALLOC_THRASH,)


@dataclass(frozen=True)
class BehaviorRule:
    """One domain-behaviour rule, scoped by domain and time window.

    ``domain`` of ``None`` matches every domain (useful for chaos
    sweeps); ``rate`` is the per-consultation probability, drawn
    deterministically per (domain, consultation sequence, now).
    """

    kind: str
    domain: Optional[str] = None       # None: every domain
    rate: float = 1.0
    start_ns: int = 0
    end_ns: Optional[int] = None       # None: forever
    delay_ns: int = 150 * MS           # revoke_slow dither
    fraction: float = 0.5              # revoke_partial delivery ratio
    thrash_factor: int = 8             # alloc_thrash request inflation

    def __post_init__(self):
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % (BEHAVIOR_KINDS, self.kind))
        _check_rate_and_window(self)
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1], got %r"
                             % self.fraction)
        if self.delay_ns < 0:
            raise ValueError("negative delay_ns")
        if self.thrash_factor < 1:
            raise ValueError("thrash_factor must be >= 1")

    def applies(self, domain, now):
        """Rule scope check: domain and time window."""
        if self.domain is not None and domain != self.domain:
            return False
        return _in_window(self, now)


@dataclass(frozen=True)
class BehaviorDecision:
    """What the plan decided for one consultation (None means: behave)."""

    kind: str
    delay_ns: int = 0
    fraction: float = 1.0
    thrash_factor: int = 1


class BehaviorPlan(Plan):
    """The behaviour plane, installed as the frames allocator's
    ``behavior``: first firing rule wins, with consultation sequence
    numbers per (injection point, domain) so equal-rate draws at the
    same simulated time stay independent — and reproducible."""

    METRIC = ("behavior_faults_injected_total",
              "domain-behaviour faults injected, by kind and domain")

    def __init__(self, seed, rules=()):
        super().__init__(seed, rules)
        self._seq = {}      # (injection point kinds, domain) -> count

    def _decide(self, kinds, domain, now):
        """Consult the rules of ``kinds`` for one injection point."""
        key = (kinds, domain)
        seq = self._seq[key] = self._seq.get(key, 0) + 1
        decision = None
        for index, rule in enumerate(self.rules):
            if rule.kind not in kinds or not rule.applies(domain, now):
                continue
            if rule.rate < 1.0 and _draw(self.seed, rule.kind, index,
                                         domain, now, seq) >= rule.rate:
                continue
            self._observe(index)
            if decision is None:
                decision = BehaviorDecision(
                    kind=rule.kind, delay_ns=rule.delay_ns,
                    fraction=rule.fraction,
                    thrash_factor=rule.thrash_factor)
        if decision is not None:
            self._inject(kind=decision.kind, domain=domain)
        return decision

    def revocation_decision(self, domain, now):
        """How ``domain`` behaves towards this revocation notification
        (consulted by the MMEntry at the revocation channel)."""
        return self._decide(REVOKE_KINDS, domain, now)

    def alloc_count(self, domain, now, count, room):
        """Consulted by FramesClient.request_frames: possibly inflate
        ``count`` (never beyond ``room``, the contract's remaining
        quota)."""
        decision = self._decide((ALLOC_THRASH,), domain, now)
        if decision is None:
            return count
        return max(count, min(max(room, 0), count * decision.thrash_factor))
