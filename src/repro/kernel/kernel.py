"""Fault dispatch and the kernel facade.

§6.4: "On a memory fault, then, the kernel saves the current context in
the domain's activation context and sends an event to the faulting
domain. ... Once the fault has been resolved, the application can resume
execution from the saved activation context." The kernel's part of fault
handling is *complete once the dispatch has occurred* — there is no
kernel-resident pager, no blocking in the kernel, no safety net.

:class:`Kernel` bundles the machine-wide pieces (MMU, page table, cost
meter) and implements exactly that dispatch. It also owns domain
creation so that every domain gets a CPU account and a fault channel.
"""

from dataclasses import dataclass

from repro.hw.mmu import AccessKind, AccessResult, FaultCode
from repro.kernel.domain import Domain
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.spans import NULL_TRACER


@dataclass(frozen=True)
class FaultRecord:
    """The information made available to the faulting application
    ("faulting address, cause, etc." — §6.4)."""

    va: int
    kind: AccessKind
    code: FaultCode
    thread: object  # the faulting Thread (its saved context)
    time: int       # when the fault was taken

    def __str__(self):
        return "%s fault at %#x (%s)" % (self.code.value, self.va,
                                         self.kind.value)


class Kernel:
    """The minimal privileged core: translation consultation + dispatch."""

    def __init__(self, sim, machine, mmu, meter, cpu, metrics=None,
                 spans=None):
        self.sim = sim
        self.machine = machine
        self.mmu = mmu
        self.meter = meter
        self.cpu = cpu
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spans = spans if spans is not None else NULL_TRACER
        self._m_events_sent = self.metrics.counter(
            "kernel_events_sent_total",
            help="event-channel transmissions, by receiving domain")
        self._m_faults = self.metrics.counter(
            "kernel_faults_dispatched_total",
            help="memory faults dispatched to a domain's fault channel")
        self.domains = []

    def create_domain(self, name, protdom, cpu_qos=None):
        """Admit a new domain with its own CPU account."""
        account = self.cpu.register(name, qos=cpu_qos)
        domain = Domain(self.sim, self, name, protdom, account)
        self.domains.append(domain)
        return domain

    @property
    def faults_dispatched(self):
        """Faults dispatched so far, machine-wide: the sum of every
        domain's fault-channel sends (:meth:`dispatch_fault` is that
        channel's only sender, and no domain ever leaves ``domains``)."""
        return sum(domain.fault_channel.sent for domain in self.domains)

    def access(self, protdom, va, kind):
        """One memory access through the MMU (TLB handled inside)."""
        return self.mmu.access(protdom, va, kind)

    def dispatch_fault(self, domain, thread, result: AccessResult):
        """The whole kernel fault path: save context, send event.

        Charges the paper's measured components: PAL trap, full context
        save (~750 ns), event send (<50 ns). Activation cost is charged
        by the domain when it is next scheduled.
        """
        self.meter.charge("pal_trap")
        self.meter.charge("context_save")
        record = FaultRecord(va=result.va, kind=result.kind,
                             code=result.fault, thread=thread,
                             time=self.sim.now)
        domain.fault_channel.send(record)  # charges event_send
        return record
