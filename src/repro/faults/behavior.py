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
from typing import Optional, Tuple

from repro.faults.plan import FireRecorder, _draw
from repro.obs.metrics import NULL_REGISTRY
from repro.sim.units import MS

# Behaviour kinds.
REVOKE_SLOW = "revoke_slow"
REVOKE_SILENT = "revoke_silent"
REVOKE_PARTIAL = "revoke_partial"
REVOKE_LIE = "revoke_lie"
ALLOC_THRASH = "alloc_thrash"

REVOKE_KINDS = (REVOKE_SLOW, REVOKE_SILENT, REVOKE_PARTIAL, REVOKE_LIE)
BEHAVIOR_KINDS = REVOKE_KINDS + (ALLOC_THRASH,)

# Consultation scopes (which injection point is asking).
_SCOPE_REVOKE = "revoke"
_SCOPE_ALLOC = "alloc"


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
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1], got %r" % self.rate)
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
        if now < self.start_ns:
            return False
        return self.end_ns is None or now < self.end_ns


@dataclass(frozen=True)
class BehaviorDecision:
    """What the plan decided for one consultation (None means: behave)."""

    kind: str
    delay_ns: int = 0
    fraction: float = 1.0
    thrash_factor: int = 1


@dataclass(frozen=True)
class BehaviorPlan:
    """A seed plus an ordered tuple of rules; first firing rule wins."""

    seed: int
    rules: Tuple[BehaviorRule, ...] = ()

    def _decide(self, scope, domain, now, seq, observed=None):
        decision = None
        for index, rule in enumerate(self.rules):
            if scope == _SCOPE_REVOKE and rule.kind not in REVOKE_KINDS:
                continue
            if scope == _SCOPE_ALLOC and rule.kind != ALLOC_THRASH:
                continue
            if not rule.applies(domain, now):
                continue
            if rule.rate < 1.0 and _draw(self.seed, rule.kind, index,
                                         domain, now, seq) >= rule.rate:
                continue
            # First firing rule wins; later firings are still recorded
            # in ``observed`` (draws are pure, so the extra evaluation
            # cannot perturb anything) for the injection audit.
            if observed is not None:
                observed.add(index)
            if decision is None:
                decision = BehaviorDecision(
                    kind=rule.kind, delay_ns=rule.delay_ns,
                    fraction=rule.fraction,
                    thrash_factor=rule.thrash_factor)
                if observed is None:
                    return decision
        return decision

    def revocation_decision(self, domain, now, seq=0, observed=None):
        """How ``domain`` behaves towards this revocation notification."""
        return self._decide(_SCOPE_REVOKE, domain, now, seq,
                            observed=observed)

    def alloc_decision(self, domain, now, seq=0, observed=None):
        """Whether this frame request is inflated (alloc_thrash)."""
        return self._decide(_SCOPE_ALLOC, domain, now, seq,
                            observed=observed)


class BehaviorInjector:
    """The plan bound to a metrics registry, with per-domain
    consultation sequence numbers (so equal-rate draws at the same
    simulated time stay independent — and reproducible)."""

    def __init__(self, plan, metrics=None):
        self.plan = plan
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._family = metrics.counter(
            "behavior_faults_injected_total",
            help="domain-behaviour faults injected, by kind and domain")
        self.injected = 0
        #: Fire evidence per plan rule (set-like, with counts) — the
        #: mission plane's injection-audit evidence.
        self.observed = FireRecorder()
        self._seq = {}

    def _next_seq(self, scope, domain):
        key = (scope, domain)
        self._seq[key] = self._seq.get(key, 0) + 1
        return self._seq[key]

    def _account(self, decision, domain):
        if decision is not None:
            self.injected += 1
            self._family.child(kind=decision.kind, domain=domain).inc()
        return decision

    def revocation_decision(self, domain, now):
        """Consulted by the MMEntry at the revocation channel."""
        seq = self._next_seq(_SCOPE_REVOKE, domain)
        return self._account(
            self.plan.revocation_decision(domain, now, seq,
                                          observed=self.observed), domain)

    def alloc_count(self, domain, now, count, room):
        """Consulted by FramesClient.request_frames: possibly inflate
        ``count`` (never beyond ``room``, the contract's remaining
        quota)."""
        seq = self._next_seq(_SCOPE_ALLOC, domain)
        decision = self._account(
            self.plan.alloc_decision(domain, now, seq,
                                     observed=self.observed), domain)
        if decision is None:
            return count
        return max(count, min(max(room, 0), count * decision.thrash_factor))
