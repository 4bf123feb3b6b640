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

Crash rules are component/time-scoped and the plan is consulted from
the supervisor's heartbeat loop (it is the supervisor's ``injector``),
so a crash always lands at a deterministic simulated time. Determinism
follows the other fault planes exactly: every draw is a pure function
of ``(seed, rule index, component, now, sequence)`` through keyed
BLAKE2b — no RNG state, so a crash storm reproduces byte-for-byte
given the same seed.

Component identifiers name supervised components, not domains:
``pager:<name>`` (a paging application's driver + main thread),
``balancer`` (the MemoryBalancer loop), ``usd`` (the system USD
driver domain), and ``volume:<index>`` (one USBS volume's driver).
"""

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import Plan, _check_rate_and_window, _draw, _in_window

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
        _check_rate_and_window(self)
        if self.max_crashes < 0:
            raise ValueError("negative max_crashes")

    def applies(self, component, now):
        """Rule scope check: component and time window."""
        if self.component is not None and component != self.component:
            return False
        return _in_window(self, now)


@dataclass(frozen=True)
class CrashDecision:
    """One delivered kill: which rule fired, against which component."""

    rule_index: int
    component: str


class CrashPlan(Plan):
    """The crash plane: first firing rule wins, with per-component
    heartbeat sequence numbers and per-rule kill caps."""

    METRIC = ("crash_faults_injected_total",
              "component crashes injected, by component")

    def __init__(self, seed, rules=()):
        super().__init__(seed, rules)
        #: rule index -> kills delivered (enforces ``max_crashes``).
        self.fired = {}
        self._seq = {}          # component -> heartbeats consulted

    def decide(self, component, now):
        """Whether ``component`` dies at this heartbeat (None: lives).
        Consulted once per supervisor heartbeat per component."""
        seq = self._seq[component] = self._seq.get(component, 0) + 1
        decision = None
        for index, rule in enumerate(self.rules):
            if not rule.applies(component, now):
                continue
            if rule.max_crashes \
                    and self.fired.get(index, 0) >= rule.max_crashes:
                continue
            if rule.rate < 1.0 and _draw(self.seed, CRASH, index,
                                         component, now, seq) >= rule.rate:
                continue
            self._observe(index)
            if decision is None:
                decision = CrashDecision(rule_index=index,
                                         component=component)
        if decision is not None:
            index = decision.rule_index
            self.fired[index] = self.fired.get(index, 0) + 1
            self._inject(component=component)
        return decision
