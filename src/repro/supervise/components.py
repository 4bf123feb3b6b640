"""Supervised components: what dies, and how it comes back.

Each class wraps one crashable unit behind the small interface the
:class:`~repro.supervise.supervisor.Supervisor` heartbeats against:
``alive()`` (the watchdog probe), ``kill(reason)`` (crash-fault
delivery), ``restart()`` (state reconstruction), ``checkpoint()``
(called on every healthy heartbeat, so reconstruction has something
recent to start from), and the escalation pair ``degrade()`` /
``retire()``. Component identifiers are the crash plane's addressing
scheme: ``pager:<name>``, ``balancer``, ``usd``, ``volume:<index>``,
``cpu:<index>`` (one per CPU core's run queue).
"""

from repro.usbs.volume import DEGRADED as VOLUME_DEGRADED
from repro.usbs.volume import HEALTHY as VOLUME_HEALTHY
from repro.usbs.volume import RETIRED as VOLUME_RETIRED


class Component:
    """Base supervised component; subclasses fill in the lifecycle."""

    def __init__(self, component_id):
        self.component_id = component_id

    def alive(self):
        """Watchdog probe: is the component still making progress?"""
        raise NotImplementedError

    def kill(self, reason):
        """Deliver a crash (fault injection or escalated teardown)."""
        raise NotImplementedError

    def restart(self):
        """Reconstruct state and resume; only called while down."""
        raise NotImplementedError

    def checkpoint(self):
        """Record whatever a future restart would warm-start from."""

    def status(self):
        """An externally-driven state ("retired"/"degraded"), or None
        when the supervisor's own record is authoritative."""
        return None

    def degrade(self):
        """Escalation step one: enter reduced service. Returns True if
        the component supports degradation (else the supervisor goes
        straight to :meth:`retire`)."""
        return False

    def retire(self):
        """Escalation step two: permanently stop the component."""


class PagerComponent(Component):
    """A self-paging application (domain + contracts + driver + swap).

    ``build`` is a zero-argument closure rebuilding the whole
    application — the same constructor call the mission runner used,
    so a restart re-admits the frames and Atropos contracts through
    ordinary admission control and re-attaches swap from scratch.
    ``kill`` is the App teardown: the domain dies, frames depart,
    stretches are destroyed and every swap stream departs with
    ``discard=True``, which *aborts* in-flight USD transactions (their
    completion events fail); the rebuilt instance *replays* the work by
    repopulating its stretch. Progress is carried across restarts so
    bandwidth accounting stays monotone.
    """

    def __init__(self, name, build, on_restart=None, initial=None):
        super().__init__("pager:%s" % name)
        self.name = name
        self.build = build
        self.on_restart = on_restart
        self.pager = initial if initial is not None else build()
        self.carried_bytes = 0
        self._down = False

    def alive(self):
        """Down flag clear, domain alive, main loop still running."""
        return (not self._down
                and not self.pager.app.domain.dead
                and not self.pager.main_thread.done.triggered)

    def progress(self):
        """Bytes processed across every incarnation (monotone)."""
        return self.carried_bytes + self.pager.bytes_processed

    def _teardown(self):
        self.carried_bytes += self.pager.bytes_processed
        if self.pager.app in self.pager.system.apps:
            self.pager.app.shutdown()
        self._down = True

    def kill(self, reason):
        """Crash the application: full App teardown (see class doc)."""
        self._teardown()

    def restart(self):
        """Rebuild the application through ordinary admission control."""
        if not self._down:
            # Died on its own (watchdog-detected): release the old
            # incarnation's contracts before re-admitting.
            self._teardown()
        self.pager = self.build()
        self._down = False
        if self.on_restart is not None:
            self.on_restart(self.pager)

    def retire(self):
        """Tear the application down for good (no replacement)."""
        if not self._down:
            self._teardown()


class BalancerComponent(Component):
    """The MemoryBalancer observation loop.

    ``make`` is a one-argument closure building a fresh balancer from a
    warm-start snapshot; every healthy heartbeat checkpoints the live
    balancer's last fault observations, so the replacement resumes
    pressure deltas where the dead instance left off instead of
    mistaking lifetime fault totals for a pressure spike. Retiring it
    takes no step of its own: the supervisor escalates only after the
    loop was killed or died, so nothing rebalances again and the
    allocations stay as they were.
    """

    def __init__(self, balancer, make):
        super().__init__("balancer")
        self.balancer = balancer
        self.make = make
        self._snapshot = balancer.snapshot()

    def alive(self):
        """The observation loop process is still scheduled."""
        return self.balancer._proc.alive

    def checkpoint(self):
        """Snapshot fault counters for the next warm start."""
        self._snapshot = self.balancer.snapshot()

    def kill(self, reason):
        """Interrupt the observation loop mid-sleep."""
        self.balancer._proc.interrupt(reason)

    def restart(self):
        """Build a fresh balancer warm-started from the checkpoint."""
        self.balancer = self.make(dict(self._snapshot))


class SchedulerComponent(Component):
    """One Atropos scheduling loop: the system disk's USD (``usd``), one
    USBS volume's driver (``volume:<index>``) or one CPU core's run
    queue (``cpu:<index>``).

    The crash kills only the loop: clients, queues, allocations and the
    per-client refill processes all survive, and the in-flight
    transaction or burst is requeued at the head of its owner's queue
    (:meth:`~repro.sched.atropos.AtroposScheduler.crash`). Restart
    respawns the loop, which replays that item first — the
    abort-and-replay half of state reconstruction, charged to the same
    client that submitted it.
    """

    def __init__(self, sched, component_id):
        super().__init__(component_id)
        self.sched = sched

    def alive(self):
        """The scheduling loop is serving work."""
        return self.sched.running

    def kill(self, reason):
        """Crash the loop; the in-flight item is requeued."""
        self.sched.crash()

    def restart(self):
        """Respawn the loop; it replays the requeued item."""
        self.sched.restart()


class VolumeComponent(SchedulerComponent):
    """One USBS volume's driver loop, with drain-backed escalation.

    Restart is the driver-domain replay (same as the system USD).
    Escalation *degrades* the volume instead of retiring it outright:
    the scheduling loop is restarted once more uncounted — a drain
    reads every not-yet-migrated blok through the owner's stream on the
    failing volume, so the limp-along loop is what makes evacuation
    possible — then the PR 5 machinery re-places every shard onto
    healthy volumes and retires the volume when the last drain
    completes. ``status()`` reports that asynchronous retirement.
    """

    def __init__(self, manager, volume):
        super().__init__(volume.usd.sched, "volume:%d" % volume.index)
        self.manager = manager
        self.volume = volume

    def degrade(self):
        """Limp-along restart + evacuate every shard (PR 5 drains)."""
        if not self.sched.running:
            self.sched.restart()
        if self.volume.state == VOLUME_HEALTHY:
            self.manager.degrade(self.volume)
        return True

    def status(self):
        """Report the drain machinery's asynchronous retirement."""
        if self.volume.state == VOLUME_RETIRED:
            return "retired"
        if self.volume.state == VOLUME_DEGRADED:
            return "degraded"
        return None
