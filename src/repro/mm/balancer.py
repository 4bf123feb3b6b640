"""A centralised global-memory balancer (the §8 open problem).

The paper's honest caveat about self-paging: "The strategy of
allocating resources directly to applications certainly gives them
more control, but means that optimisations for global benefit are not
directly enforced. Ongoing work is looking at both centralised and
devolved solutions to this issue."

This module is one such *centralised* solution, built entirely from
mechanisms the paper already defines — it needs no new kernel support:

* it observes each client's **fault pressure** (faults dispatched per
  sampling period, a quantity the kernel already counts);
* it hands **optimistic frames** from the free pool to the clients with
  the highest pressure (optimistic memory is revocable, so this is
  always safe);
* when the pool is dry, it **rebalances**: frames are revoked (via the
  standard transparent/intrusive protocol) from low-pressure clients
  holding optimistic memory and granted to high-pressure ones.

Guarantees are never touched: the balancer only ever moves memory that
the contracts declare revocable, so QoS firewalling is preserved — the
balancer optimises the slack, not the promises.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.mm.frames import FramesError
from repro.sim.units import MS, SEC

#: Faults/s below which a client is "content".
MIN_PRESSURE = 2.0
#: Rebalancing moves memory only when the needy client faults at least
#: this many times harder than the donor.
PRESSURE_RATIO = 4.0


@dataclass
class BalancerDecision:
    """One sampling period's observation and action."""

    time: int
    pressures: Dict[str, float]       # client name -> faults/s
    granted: Dict[str, int]           # frames granted this period
    rebalanced: int                   # frames moved between clients


class MemoryBalancer:
    """Periodically redistribute optimistic memory by fault pressure."""

    def __init__(self, system, period=500 * MS, grant_batch=8,
                 headroom_frames=None, warm_start=None):
        """Args:
            system: the NemesisSystem to balance.
            period: sampling interval.
            grant_batch: frames granted to the neediest client per round.
            headroom_frames: free frames always left untouched (default:
                the allocator's system reserve).
            warm_start: a {client name: cumulative fault count} snapshot
                (see :meth:`snapshot`) seeding the pressure baseline, so
                a balancer restarted by the supervisor resumes with the
                dead instance's last observation instead of mistaking
                every client's lifetime fault total for fresh pressure.
        """
        self.system = system
        self.period = period
        self.grant_batch = grant_batch
        self.headroom = (system.frames_allocator.system_reserve
                         if headroom_frames is None else headroom_frames)
        self.decisions: List[BalancerDecision] = []
        self._last_faults = dict(warm_start) if warm_start else {}
        self.errors = 0
        self.orphan_grants = 0
        self._c_errors = system.metrics.counter(
            "balancer_errors_total",
            help="faults the memory balancer absorbed and survived, "
                 "by kind")
        self._proc = system.sim.spawn(self._run(), name="memory-balancer")

    # -- observation -----------------------------------------------------

    def snapshot(self):
        """The warm-start checkpoint: last observed fault counts."""
        return dict(self._last_faults)

    def _clients(self):
        return [c for c in self.system.frames_allocator.clients
                if c.active and c.domain is not None
                and not c.domain.dead]

    def _pressures(self):
        """Faults/s per client since the last sample."""
        out = {}
        seconds = self.period / SEC
        for client in self._clients():
            count = client.domain.fault_channel.sent
            name = client.domain.name
            previous = self._last_faults.get(name, count)
            self._last_faults[name] = count
            out[name] = (count - previous) / seconds
        return out

    # -- policy --------------------------------------------------------------

    def _neediest(self, pressures):
        best, best_pressure = None, MIN_PRESSURE
        for client in self._clients():
            pressure = pressures.get(client.domain.name, 0.0)
            if (pressure > best_pressure
                    and client.allocated < client.quota):
                best, best_pressure = client, pressure
        return best

    def _donor(self, pressures, exclude):
        """A content client with optimistic memory to spare."""
        best = None
        for client in self._clients():
            if client is exclude or client.optimistic <= 0:
                continue
            pressure = pressures.get(client.domain.name, 0.0)
            if pressure > MIN_PRESSURE:
                continue
            if best is None or client.optimistic > best.optimistic:
                best = client
        return best

    def _run(self):
        sim = self.system.sim
        while True:
            yield sim.timeout(self.period)
            pressures = self._pressures()
            granted = {}
            rebalanced = 0
            # The balancer must outlive anything a round can throw at
            # it: a client killed mid-transfer, a contract that shrank
            # between observation and action, an allocator refusing a
            # departed client. Absorb, count, keep balancing.
            try:
                rebalanced = yield from self._balance_once(
                    pressures, granted)
            except FramesError:
                self.errors += 1
                self._c_errors.child(kind="frames_error").inc()
            self.decisions.append(BalancerDecision(
                time=sim.now, pressures=pressures, granted=granted,
                rebalanced=rebalanced))

    def _balance_once(self, pressures, granted):
        """One balancing round; fills ``granted``, returns frames moved."""
        physmem = self.system.physmem
        needy = self._neediest(pressures)
        if needy is None:
            return 0
        # 1. Free memory first: always safe to hand out.
        spare = physmem.free_in_region("main") - self.headroom
        take = min(self.grant_batch, max(spare, 0),
                   needy.quota - needy.allocated)
        if take > 0:
            pfns = needy.allocator._alloc_sync(needy, take, None)
            if pfns:
                self._notify_granted(needy, pfns)
                granted[needy.domain.name] = len(pfns)
            return 0
        # 2. Rebalance from a decisively more content client.
        donor = self._donor(pressures, needy)
        if donor is None:
            return 0
        donor_pressure = pressures.get(donor.domain.name, 0.0)
        needy_pressure = pressures.get(needy.domain.name, 0.0)
        if needy_pressure < PRESSURE_RATIO * max(donor_pressure,
                                                  MIN_PRESSURE):
            return 0
        want = min(self.grant_batch, donor.optimistic,
                   needy.quota - needy.allocated)
        if want <= 0:
            return 0
        transfer = self.system.frames_allocator.transfer(
            donor, needy, want)
        pfns = yield transfer
        if not pfns:
            return 0
        if not needy.active:
            # The beneficiary was killed (or departed) while the
            # transfer was in flight; its frames were already
            # reclaimed with the rest of its holdings.
            self.errors += 1
            self._c_errors.child(kind="beneficiary_gone").inc()
            return 0
        self._notify_granted(needy, pfns)
        return len(pfns)

    def _notify_granted(self, client, pfns):
        """Hand the new frames to the client's paged driver pool.

        Centralised-but-polite: the frames land in the driver's free
        pool exactly as if the application had requested them. A client
        with no driver to adopt them (the app was torn down, or never
        had one) must not leak the frames into limbo: they go straight
        back to the allocator and the event is counted.
        """
        for app in getattr(self.system, "apps", []):
            if app.domain is client.domain and app.drivers:
                app.drivers[0].adopt_frames(pfns)
                return
        self.orphan_grants += 1
        self._c_errors.child(kind="orphan_grant").inc()
        for pfn in pfns:
            try:
                client.free(pfn)
            except FramesError:
                # Already reclaimed (client killed between grant and
                # notify); nothing left to return.
                break
