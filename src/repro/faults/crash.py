"""Deterministic fault injection for *component crashes*.

The storage plane (:mod:`repro.faults.plan`) models a disk that lies;
the behaviour plane (:mod:`repro.faults.behavior`) models a domain
that misbehaves. This module models the remaining failure class: a
component that simply **dies** mid-flight — a domain's paged driver,
the system USD driver domain, the MemoryBalancer observation loop, or
a USBS volume's driver. The paper's accountability argument (§4) only
survives such deaths if the cost of dying — and of coming back — is
confined to the dead component, which is exactly what the supervisor
(:mod:`repro.supervise`) enforces and the ``crash-recovery`` mission
family measures.

Crash rules are component/time-scoped and consulted from the
supervisor's heartbeat loop, so a crash always lands at a
deterministic simulated time. Determinism follows the other fault
planes exactly: every draw is a pure function of
``(seed, rule index, component, now, sequence)`` through keyed
BLAKE2b — no RNG state, so a crash storm reproduces byte-for-byte
given the same seed.

Component identifiers name supervised components, not domains:
``pager:<name>`` (a paging application's driver + main thread),
``balancer`` (the MemoryBalancer loop), ``usd`` (the system USD
driver domain), and ``volume:<index>`` (one USBS volume's driver).
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.plan import FireRecorder, _draw
from repro.obs.metrics import NULL_REGISTRY

CRASH = "crash"


@dataclass(frozen=True)
class CrashRule:
    """One crash rule, scoped by component and time window.

    ``component`` of ``None`` matches every supervised component
    (useful for chaos sweeps); ``rate`` is the per-heartbeat
    probability, drawn deterministically per (component, heartbeat
    sequence, now); ``max_crashes`` caps how many kills the rule may
    deliver in total (0 means unlimited) so a storm can be sized to
    exhaust a restart budget without killing forever.
    """

    component: Optional[str] = None    # None: every component
    rate: float = 1.0
    start_ns: int = 0
    end_ns: Optional[int] = None       # None: forever
    max_crashes: int = 1

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1], got %r" % self.rate)
        if self.start_ns < 0:
            raise ValueError("negative start_ns")
        if self.end_ns is not None and self.end_ns <= self.start_ns:
            raise ValueError("end_ns must exceed start_ns")
        if self.max_crashes < 0:
            raise ValueError("negative max_crashes")

    def applies(self, component, now):
        """Rule scope check: component and time window."""
        if self.component is not None and component != self.component:
            return False
        if now < self.start_ns:
            return False
        return self.end_ns is None or now < self.end_ns


@dataclass(frozen=True)
class CrashDecision:
    """One delivered kill: which rule fired, against which component."""

    rule_index: int
    component: str


@dataclass(frozen=True)
class CrashPlan:
    """A seed plus an ordered tuple of rules; first firing rule wins.

    ``fired`` maps rule index to kills already delivered by that rule —
    the injector owns it (the plan itself stays immutable/pure) and
    passes it in so ``max_crashes`` caps are enforced across calls.
    """

    seed: int
    rules: Tuple[CrashRule, ...] = ()

    def decide(self, component, now, seq=0, observed=None, fired=None):
        """Whether ``component`` dies at this heartbeat (None: lives)."""
        decision = None
        for index, rule in enumerate(self.rules):
            if not rule.applies(component, now):
                continue
            if fired is not None and rule.max_crashes:
                if fired.get(index, 0) >= rule.max_crashes:
                    continue
            if rule.rate < 1.0 and _draw(self.seed, CRASH, index,
                                         component, now, seq) >= rule.rate:
                continue
            # First firing rule wins; later firings are still recorded
            # in ``observed`` (draws are pure, so the extra evaluation
            # cannot perturb anything) for the injection audit.
            if observed is not None:
                observed.add(index)
            if decision is None:
                decision = CrashDecision(rule_index=index,
                                         component=component)
                if observed is None:
                    break
        if decision is not None and fired is not None:
            fired[decision.rule_index] = fired.get(decision.rule_index,
                                                   0) + 1
        return decision


class CrashInjector:
    """The plan bound to a metrics registry, with per-component
    heartbeat sequence numbers and per-rule kill caps."""

    def __init__(self, plan, metrics=None):
        self.plan = plan
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._family = metrics.counter(
            "crash_faults_injected_total",
            help="component crashes injected, by component")
        self.injected = 0
        #: Fire evidence per plan rule (set-like, with counts) — the
        #: mission plane's injection-audit evidence.
        self.observed = FireRecorder()
        #: rule index -> kills delivered (enforces ``max_crashes``).
        self.fired = {}
        self._seq = {}

    def decide(self, component, now):
        """Consulted once per supervisor heartbeat per component."""
        self._seq[component] = self._seq.get(component, 0) + 1
        decision = self.plan.decide(component, now,
                                    seq=self._seq[component],
                                    observed=self.observed,
                                    fired=self.fired)
        if decision is not None:
            self.injected += 1
            self._family.child(component=component).inc()
        return decision
