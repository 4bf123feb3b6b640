"""The supervisor: heartbeat watchdogs, restart budgets, escalation.

One watch process per supervised component, ticking every
``heartbeat_ns``. Each tick, in order: (1) probe ``alive()`` — a
component that died on its own is handled exactly like an injected
crash; (2) consult the crash plan (:mod:`repro.faults.crash`), so
every injected kill lands at a deterministic heartbeat instant;
(3) if healthy, ``checkpoint()``. A dead component is restarted under
its :class:`~repro.supervise.policy.RestartPolicy` — backoff first,
then state reconstruction — unless the sliding-window budget is
exhausted, in which case the supervisor escalates: ``degrade()`` if
the component supports it (a volume drains onto its peers and retires
when empty), ``retire()`` otherwise. The ladder — restart, degrade,
retire — mirrors the revocation ladder of the memory plane: graduated
response, never collective punishment.

Everything observable is exported: ``supervisor_restarts_total`` /
``supervisor_escalations_total`` counters and the
``supervisor_recovery_ns`` histogram per component, a
``supervise.restart`` span per recovery, and per-component recovery
windows (crash time → restart time) that the mission plane's
``bystander_retention_during_crash`` invariant integrates bandwidth
over.
"""

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.spans import SpanTracer
from repro.sim.units import MS
from repro.supervise.policy import RestartPolicy

STATE_RUNNING = "running"
STATE_DEGRADED = "degraded"
STATE_RETIRED = "retired"


class SupervisionRecord:
    """Everything the supervisor knows about one component."""

    def __init__(self, component):
        self.component = component
        self.state = STATE_RUNNING
        self.restarts = 0
        self.escalations = 0
        self.crashes = []        # crash instants, ns
        self.restart_times = []  # restart-completed instants, ns
        self.windows = []        # (crash ns, recovered ns) per restart
        self.proc = None

    def summary(self):
        """The canonical per-component report payload."""
        return {
            "state": self.state,
            "restarts": self.restarts,
            "escalations": self.escalations,
            "crashes": list(self.crashes),
            "windows": [list(window) for window in self.windows],
        }


class Supervisor:
    """Watchdog-driven restart with budgeted escalation."""

    def __init__(self, sim, heartbeat_ns=100 * MS, policy=None,
                 injector=None, metrics=None, spans=None):
        self.sim = sim
        self.heartbeat_ns = heartbeat_ns
        self.policy = policy if policy is not None else RestartPolicy()
        self.injector = injector
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spans = spans if spans is not None else SpanTracer(sim)
        self.records = {}
        self._c_restarts = metrics.counter(
            "supervisor_restarts_total",
            help="component restarts performed, by component")
        self._c_escalations = metrics.counter(
            "supervisor_escalations_total",
            help="restart budgets exhausted, by component")
        self._h_recovery = metrics.histogram(
            "supervisor_recovery_ns",
            help="crash-to-restored recovery times, by component")

    def supervise(self, component):
        """Start heartbeating ``component`` under the supervisor's
        restart policy; returns its record."""
        record = SupervisionRecord(component)
        self.records[component.component_id] = record
        record.proc = self.sim.spawn(
            self._watch(record),
            name="supervise-%s" % component.component_id)
        return record

    def summary(self):
        """{component id: record summary} in supervision order."""
        return {cid: record.summary()
                for cid, record in self.records.items()}

    # -- the watch loop ----------------------------------------------------

    def _watch(self, record):
        sim = self.sim
        component = record.component
        cid = component.component_id
        while True:
            yield sim.timeout(self.heartbeat_ns)
            if record.state == STATE_DEGRADED:
                if component.status() == STATE_RETIRED:
                    record.state = STATE_RETIRED
                    return
                continue
            now = sim.now
            reason = None
            if not component.alive():
                reason = "died"
            elif self.injector is not None:
                decision = self.injector.decide(cid, now)
                if decision is not None:
                    reason = "crash:rule%d" % decision.rule_index
                    component.kill(reason)
                    # Kills land via a zero-delay interrupt; let it
                    # fire before acting on the corpse (degrade() must
                    # see the loop already down to re-arm it).
                    yield sim.timeout(0)
            if reason is None:
                component.checkpoint()
                continue
            record.crashes.append(now)
            if not self.policy.allows(record.restart_times, now):
                # Budget exhausted: degrade if the component can limp
                # (a volume evacuates through the drain machinery),
                # retire it outright otherwise. Either way the rest of
                # the system keeps running.
                record.escalations += 1
                self._c_escalations.child(component=cid).inc()
                span = self.spans.start("supervise.escalate",
                                        client=cid, reason=reason)
                if component.degrade():
                    record.state = STATE_DEGRADED
                    span.end(outcome=STATE_DEGRADED)
                    continue
                component.retire()
                record.state = STATE_RETIRED
                span.end(outcome=STATE_RETIRED)
                return
            span = self.spans.start("supervise.restart", client=cid,
                                    reason=reason)
            yield sim.timeout(self.policy.backoff(record.restart_times, now))
            component.restart()
            recovered = sim.now
            record.restarts += 1
            record.restart_times.append(recovered)
            record.windows.append((now, recovered))
            self._c_restarts.child(component=cid).inc()
            self._h_recovery.child(component=cid).observe(recovered - now)
            span.end(recovery_ns=recovered - now)
