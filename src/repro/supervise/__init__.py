"""The supervision-and-recovery plane.

The paper's accountability argument (§4) prices every memory operation
to the domain that caused it — but only for components that stay up.
This package closes the remaining gap: when a component *dies* (by
crash-fault injection via :mod:`repro.faults.crash`, or by any
unhandled failure a watchdog notices), a :class:`Supervisor` restarts
it under a budgeted :class:`RestartPolicy` and reconstructs its state,
escalating restart → degrade → retire exactly like the PR 3 revocation
ladder — and the whole time, bystander domains keep their contracted
QoS, which the ``crash-recovery`` mission family measures.

Components wrap the four things that can die mid-flight:

* :class:`PagerComponent` — a self-paging application (domain, frames
  contract, paged/stream driver, swap). Reconstruction is a full
  rebuild: re-admission of the Atropos/frames contracts and swap
  re-attach, with in-flight USD transactions aborted by the teardown
  (``depart(discard=True)``) and replayed by the fresh instance.
* :class:`SchedulerComponent` — one Atropos scheduling loop: the system
  USD's (``usd``) or one CPU core's (``cpu:<index>``). Contracts and
  queues survive the crash; the in-flight transaction or burst is
  requeued at the head of its owner's queue and replayed on restart.
* :class:`BalancerComponent` — the MemoryBalancer observation loop,
  warm-started from the last healthy heartbeat's snapshot.
* :class:`VolumeComponent` — one USBS volume's driver loop, a
  :class:`SchedulerComponent` whose escalation degrades the volume and
  re-places its shards through the PR 5 drain machinery, retiring it
  without taking the system down.
"""

from repro.supervise.components import (
    BalancerComponent,
    Component,
    PagerComponent,
    SchedulerComponent,
    VolumeComponent,
)
from repro.supervise.policy import RestartPolicy
from repro.supervise.supervisor import (
    STATE_DEGRADED,
    STATE_RETIRED,
    STATE_RUNNING,
    Supervisor,
)

__all__ = [
    "STATE_DEGRADED", "STATE_RETIRED", "STATE_RUNNING",
    "BalancerComponent", "Component", "PagerComponent", "RestartPolicy",
    "SchedulerComponent", "Supervisor", "VolumeComponent",
]
