"""A pure CPU-bound workload: progress proportional to CPU received.

The SMP experiments need a domain whose *only* resource is its CPU
contract — no paging, no disk — so that any change in its progress can
be attributed to the CPU plane alone. :class:`ComputeApplication` loops
1 ms compute bursts through the domain's CPU account and counts
64 KB of progress per completed burst; its ``bytes_processed``
plugs into the mission runner's bandwidth measurement exactly like the
paging and file-system workloads.

With ``extra=True`` in its QoS and an unbounded appetite, the same class
is the CPU hog of the Figure-7 analogue: it burns its guarantee plus
every spare cycle its core's slack scheduler will hand it, which is
precisely what crosstalk firewalling must contain. ``active=False``
parks the main thread forever — the hog-free baseline run of a
crosstalk mission, with topology and placement unchanged.
"""

from repro.kernel.threads import Compute, Wait
from repro.sim.units import MS

#: Compute burst length (one scheduler quantum).
CHUNK_NS = 1 * MS

#: Progress credited per completed burst.
CHUNK_BYTES = 64 * 1024


class ComputeApplication:
    """CPU-bound domain: loop :data:`CHUNK_NS` bursts, count progress.

    ``qos`` is the domain's CPU contract (placed onto a core by the SMP
    platform); a two-frame guarantee is the tiny memory contract the
    domain needs to exist at all. ``bytes_processed`` and
    ``chunks_completed`` grow monotonically while the domain runs.
    """

    def __init__(self, system, name, qos, active=True):
        self.system = system
        self.name = name
        self.qos = qos
        self.active = active
        self.bytes_processed = 0
        self.chunks_completed = 0
        self.app = system.new_app(name, guaranteed_frames=2, cpu_qos=qos)
        self.main_thread = self.app.spawn(self._main(),
                                          name="%s-main" % name)

    def _main(self):
        if not self.active:
            # Hog-free baseline: hold the contract, never compute.
            yield Wait(self.system.sim.event("%s.parked" % self.name))
            return
        while True:
            yield Compute(CHUNK_NS, label="chunk")
            self.bytes_processed += CHUNK_BYTES
            self.chunks_completed += 1
