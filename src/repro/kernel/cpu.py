"""CPU schedulers.

Domains consume CPU in non-preemptible *bursts* (activations, thread
steps, the experiments' per-page processing). Three models are provided:

* :class:`AtroposCpu` — the real thing: each domain holds a (p, s, x, l)
  CPU guarantee scheduled by :class:`~repro.sched.atropos.AtroposScheduler`.
  This is Nemesis's CPU scheduler family applied to compute bursts.
  Each of its ``cpus`` cores runs its own Atropos run queue (per-core
  slack and best-effort accounting, per-core ``sched_*`` metrics
  labelled ``cpu0..cpuN-1``), and each domain's contract is placed onto
  one core, for its lifetime, via :mod:`repro.place`. ``cpus=1`` is the
  paper's uniprocessor.
* :class:`FifoCpu` — a single CPU served in FIFO order: correct
  serialisation, no QoS. The paper's paging experiments are disk-bound,
  and this is the default for them (documented in DESIGN.md); the CPU
  QoS machinery is exercised by its own tests and example. It is a
  server of heap callbacks, not a simulator process, since every burst
  of every paper figure passes through it.
* :class:`UnlimitedCpu` — infinitely parallel CPU (each burst just takes
  its duration). Useful in unit tests isolating other components.

All expose ``register(name, qos=None) -> CpuAccount`` and accounts
expose ``consume(ns) -> SimEvent``. Domains call
``consume_or_run_ahead(ns)`` instead, which on a :class:`FifoCpu` may
complete the burst inline and return None (:class:`FifoAccount`); on
every other model it is ``consume``.
"""

from collections import deque
from heapq import heappush

from repro.obs.metrics import NULL_REGISTRY
from repro.place import PlacementError, PlacementPolicy
from repro.sched.atropos import AtroposScheduler, QoSSpec
from repro.sim.core import SimEvent
from repro.sim.units import MS


DEFAULT_QUANTUM = 1 * MS
"""Bursts longer than this are split so one domain's long computation
cannot monopolise the (non-preemptive) CPU model."""


class CpuAccount:
    """Per-domain handle onto a CPU scheduler, with usage statistics."""

    def __init__(self, cpu, name):
        self.cpu = cpu
        self.name = name
        self.consumed_ns = 0
        self.bursts = 0

    def consume(self, ns, label=""):
        """Acquire the CPU for ``ns`` of work; event triggers when done.

        Long requests are transparently split into quantum-sized chunks
        (pseudo-preemption): other domains' bursts interleave between
        the chunks, bounding the scheduling latency any single request
        can impose — this is what makes the simulator's non-preemptive
        work-item model a faithful stand-in for a preemptive CPU.
        """
        if ns < 0:
            raise ValueError("negative compute burst")
        self.bursts += 1
        self.consumed_ns += ns
        cpu = self.cpu
        quantum = cpu.quantum
        if quantum is None or ns <= quantum:
            return cpu._consume(self, ns, label)
        sim = cpu.sim
        done = sim.event("cpu.split-burst")

        def chunker():
            remaining = ns
            try:
                while remaining > 0:
                    chunk = min(quantum, remaining)
                    yield cpu._consume(self, chunk, label)
                    remaining -= chunk
            except Exception as exc:
                # The account departed (or its burst failed) between
                # chunks: propagate through the split burst's event
                # instead of crashing the chunker process.
                done.fail(exc)
                return
            done.trigger(None)

        sim.spawn(chunker(), name="%s-burst" % self.name)
        return done

    # Domains take their bursts through consume_or_run_ahead. Only a
    # FIFO CPU's account runs bursts ahead (FifoAccount); on every other
    # CPU model the name is consume itself, so it costs no extra call.
    consume_or_run_ahead = consume


class FifoAccount(CpuAccount):
    """A domain's handle onto a :class:`FifoCpu`, whose bursts can run
    ahead."""

    def consume_or_run_ahead(self, ns, label=""):
        """Run a burst ahead inline if the CPU can; else :meth:`consume`.

        A burst within the quantum that the CPU runs ahead
        (:meth:`FifoCpu._run_ahead`) is billed and completed before this
        returns: the clock is at its end, and the result is None. The
        caller must go on at once, as the burst's waiter would have at
        its end. Otherwise the result is the event :meth:`consume`
        returns.
        """
        cpu = self.cpu
        quantum = cpu.quantum
        if (ns > 0 and (quantum is None or ns <= quantum)
                and cpu._run_ahead(ns)):
            self.bursts += 1
            self.consumed_ns += ns
            return None
        return self.consume(ns, label)


class UnlimitedCpu:
    """No contention: every burst completes after its own duration."""

    quantum = None  # no splitting needed: bursts never queue

    def __init__(self, sim):
        self.sim = sim

    def register(self, name, qos=None):
        return CpuAccount(self, name)

    def _consume(self, account, ns, label):
        return self.sim.timeout(ns)


class FifoCpu:
    """One CPU, bursts served strictly in arrival order.

    A server of three heap callbacks, not a simulator process. A burst
    arriving at an idle CPU schedules :meth:`_start` at the current
    instant; each burst then takes :meth:`_elapsed` after its duration
    and :meth:`_complete` at that same instant, which triggers the
    burst's event and starts the next queued burst. A zero-length burst
    completes as soon as it is started. Like
    :class:`~repro.sim.core.Timeout`, the server pushes its entries onto
    the simulator's heap itself.

    A domain's burst that reaches an idle CPU with nothing else due
    before it ends runs ahead instead (:meth:`_run_ahead`): the clock
    moves to its end inline and the domain takes its next step in the
    same callback, so the four entries (start, elapsed, complete and
    the domain's turn) that would have popped back to back are never
    pushed. A burst that does not run ahead still skips its completion
    entry when nothing else is due at its end: :meth:`_elapsed` then
    completes it inline. docs/PERFORMANCE.md ("one FIFO burst") explains
    why each entry stays otherwise and why skipping them moves no
    result.
    """

    def __init__(self, sim, quantum=DEFAULT_QUANTUM):
        self.quantum = quantum
        self.sim = sim
        self._queue = deque()   # (ns, done); the head is being served
        self._busy = False

    def register(self, name, qos=None):
        return FifoAccount(self, name)

    def _consume(self, account, ns, label):
        sim = self.sim
        done = SimEvent(sim, "cpu.burst")
        self._queue.append((ns, done))
        if not self._busy:
            self._busy = True
            sim._seq += 1
            heappush(sim._heap, (sim._now, sim._seq, FifoCpu._start, self))
        return done

    def _run_ahead(self, ns):
        """Complete a burst of ``ns`` inline; True if it did.

        Only on an idle CPU, and only if the simulator moves the clock
        to the burst's end (:meth:`~repro.sim.core.Simulator._run_ahead`).
        """
        if self._busy:
            return False
        sim = self.sim
        return sim._run_ahead(sim._now + ns)

    def _start(self):
        # Serve the head; the CPU goes idle once the queue drains.
        queue = self._queue
        while queue:
            ns, done = queue[0]
            if ns:
                sim = self.sim
                sim._seq += 1
                heappush(sim._heap, (sim._now + ns, sim._seq,
                                     FifoCpu._elapsed, self))
                return
            queue.popleft()
            done.trigger(None)
        self._busy = False

    def _elapsed(self):
        # The burst completes after the entries already queued for this
        # instant, and inline when there are none.
        sim = self.sim
        if sim._run_ahead(sim._now):
            self._complete()
            return
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, FifoCpu._complete, self))

    def _complete(self):
        self._queue.popleft()[1].trigger(None)
        self._start()


DEFAULT_CPU_QOS = QoSSpec(period_ns=10 * MS, slice_ns=1 * MS, extra=True,
                          laxity_ns=0)
"""Default per-domain CPU guarantee: 10% of the CPU every 10 ms, with
slack eligibility (fine for the disk-bound experiments)."""


class AtroposCpu:
    """CPU time under Atropos guarantees: ``cpus`` cores, each running
    its own Atropos run queue.

    Each core is a full :class:`~repro.sched.atropos.AtroposScheduler`
    named ``cpu<i>``, so per-core slack/best-effort accounting and
    per-core ``sched_*`` metrics (labelled by core via the scheduler
    name) come from the one scheduling engine. ``cpus=1`` is the
    paper's uniprocessor; more cores are the multi-core plane. What
    this class adds to the run queues:

    * **admission control over placement** — a contract is admitted onto
      exactly one core chosen by :class:`repro.place.PlacementPolicy`
      (first-fit-decreasing by admitted share, BLAKE2b seed-stable
      tie-break). A contract no single core can carry is refused with
      :class:`repro.place.PlacementError` *before* any scheduler state
      is touched, even when aggregate spare capacity would cover it.
    * **departure** — :meth:`depart_account` releases a domain's core
      share (used by ``App.shutdown`` so re-admissions don't leak).

    Note the slack flag: CPU clients usually set ``x=True`` (the paper's
    disk clients set it False to make the figures legible, but CPU
    guarantees in Nemesis commonly allowed slack consumption).
    """

    quantum = DEFAULT_QUANTUM

    def __init__(self, sim, cpus=1, seed=1999, metrics=None):
        if cpus < 1:
            raise ValueError("need at least one cpu, got %d" % cpus)
        self.sim = sim
        self.cpus = cpus
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.scheds = [AtroposScheduler(sim, name="cpu%d" % index,
                                        metrics=metrics)
                       for index in range(cpus)]
        self.policy = PlacementPolicy(cpus, seed=seed)
        self.accounts = {}   # domain name -> CpuAccount
        self.core_map = {}   # domain name -> core index
        self.refusals = 0
        self._g_domains = self.metrics.gauge(
            "place_domains", help="domains placed, by core")
        self._c_refusals = self.metrics.counter(
            "place_admission_refusals_total",
            help="contracts refused because no single core fits")

    @property
    def sched(self):
        """The one run queue of a one-core CPU; AttributeError on more
        cores, so ``getattr(cpu, "sched", None)`` probes still work."""
        if self.cpus != 1:
            raise AttributeError("a %d-core CPU has one run queue per "
                                 "core: read scheds" % self.cpus)
        return self.scheds[0]

    # -- admission ---------------------------------------------------------

    def admitted_share(self, core=None):
        """Admitted share of one core, or the aggregate across all."""
        if core is not None:
            return self.scheds[core].admitted_share()
        return sum(sched.admitted_share() for sched in self.scheds)

    def register(self, name, qos=None):
        """Admit ``name``'s CPU contract onto one core (placed).

        Raises :class:`repro.place.PlacementError` — with no scheduler
        state created or mutated — when no single core can carry the
        contract. The chosen core is recorded in :attr:`core_map`.
        """
        qos = qos or DEFAULT_CPU_QOS
        if name in self.accounts:
            raise ValueError("duplicate CPU account %r" % name)
        loads = [sched.admitted_share() for sched in self.scheds]
        try:
            core = self.policy.choose(name, qos.share, loads)
        except PlacementError:
            self.refusals += 1
            self._c_refusals.inc()
            raise
        account = CpuAccount(self, name)
        account._client = self.scheds[core].admit(name, qos)
        self.accounts[name] = account
        self.core_map[name] = core
        self._g_domains.inc(cpu="cpu%d" % core)
        return account

    def core_of(self, name):
        """Core index carrying ``name``'s contract."""
        return self.core_map[name]

    def depart_account(self, account):
        """Release a domain's CPU contract (orderly or teardown); ends
        the client's refill loop and fails its queued bursts."""
        name = account.name
        if self.accounts.get(name) is not account:
            return
        core = self.core_map.pop(name)
        del self.accounts[name]
        self._g_domains.inc(-1, cpu="cpu%d" % core)
        client = account._client
        if not client.departed:
            client.scheduler.depart(client, discard=True)

    # -- serving -----------------------------------------------------------

    def _consume(self, account, ns, label):
        return account._client.submit(None, label, ns)
