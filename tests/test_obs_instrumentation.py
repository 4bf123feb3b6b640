"""End-to-end instrumentation tests: the accountability invariant.

A two-domain paging workload — one domain pages hard, the other is
admitted with identical contracts but never touches memory — must show
every fault, USD transaction and frame grant attributed to the active
domain and *zero* attributed to the idle one (Hand, OSDI '99 §3, §5:
no QoS crosstalk). A system built with ``metrics=False`` must record,
and allocate, no metric at all."""

import gc

import pytest

from repro.hw.mmu import AccessKind, FaultCode
from repro.kernel.threads import Compute, Touch
from repro.mm.rights import Rights
from repro.mm.sdriver import FaultOutcome
from repro.obs import metrics as metrics_mod
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC, US
from repro.system import NemesisSystem

MB = 1024 * 1024
QOS = QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS)


@pytest.fixture(scope="module")
def paged_pair():
    """One active paging domain + one idle domain, run for 5 s."""
    system = NemesisSystem()
    active = system.new_app("active", guaranteed_frames=4)
    stretch = active.new_stretch(48 * system.machine.page_size)
    active.bind(stretch, active.paged_driver(frames=2, swap_bytes=2 * MB,
                                             qos=QOS))
    idle = system.new_app("idle", guaranteed_frames=4)
    idle_stretch = idle.new_stretch(48 * system.machine.page_size)
    idle.bind(idle_stretch, idle.paged_driver(frames=2, swap_bytes=2 * MB,
                                              qos=QOS))
    baseline = system.metrics.snapshot()

    def body():
        while True:
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)

    active.spawn(body())
    system.run_for(5 * SEC)
    return system, baseline, system.metrics.snapshot()


class TestAccountabilityInvariant:
    def test_active_domain_faults_counted(self, paged_pair):
        _system, _before, snap = paged_pair
        fast = snap.get("mm_faults_resolved_total", domain="active",
                        path="fast")
        slow = snap.get("mm_faults_resolved_total", domain="active",
                        path="slow")
        assert fast + slow > 0
        # A 2-frame pool against 48 pages: almost everything needs IO.
        assert slow > fast

    def test_idle_domain_has_zero_faults(self, paged_pair):
        _system, _before, snap = paged_pair
        for path in ("fast", "slow"):
            assert snap.get("mm_faults_resolved_total", domain="idle",
                            path=path) == 0
        assert snap.get("kernel_faults_dispatched_total", domain="idle") == 0
        assert snap.get("mm_fault_failures_total", domain="idle") == 0

    def test_usd_transactions_attributed_per_stream(self, paged_pair):
        _system, _before, snap = paged_pair
        assert snap.get("usd_transactions_total", client="active-paged") > 0
        assert snap.get("usd_transactions_total", client="idle-paged") == 0
        assert snap.get("usd_blocks_total", client="idle-paged") == 0
        assert snap.get("sched_served_ns_total", sched="usd",
                        client="idle-paged") == 0

    def test_no_unattributed_fault_series(self, paged_pair):
        """Every fault series carries a domain label — nothing is
        accounted to an anonymous principal."""
        _system, _before, snap = paged_pair
        for labels in snap.labels("mm_faults_resolved_total"):
            assert labels["domain"] in ("active", "idle")
        for labels in snap.labels("usd_transactions_total"):
            assert labels["client"] in ("active-paged", "idle-paged")

    def test_dispatched_matches_resolutions(self, paged_pair):
        """Kernel dispatches == MMEntry outcomes (resolved + failed),
        modulo faults still in flight at the end of the run."""
        _system, _before, snap = paged_pair
        dispatched = snap.get("kernel_faults_dispatched_total",
                              domain="active")
        resolved = (snap.get("mm_faults_resolved_total", domain="active",
                             path="fast")
                    + snap.get("mm_faults_resolved_total", domain="active",
                               path="slow")
                    + snap.get("mm_fault_failures_total", domain="active"))
        assert resolved <= dispatched <= resolved + 1
        assert snap.get("mm_fault_failures_total", domain="active") == 0

    def test_diff_isolates_the_workload_cost(self, paged_pair):
        """snapshot/diff asserts the workload's *own* cost: the delta
        since admission shows activity for 'active' and zero for
        'idle'."""
        _system, before, snap = paged_pair
        delta = snap.diff(before)
        assert delta.get("usd_transactions_total", client="active-paged") > 0
        assert delta.get("usd_transactions_total", client="idle-paged") == 0
        fast = delta.get("mm_faults_resolved_total", domain="active",
                         path="fast")
        slow = delta.get("mm_faults_resolved_total", domain="active",
                         path="slow")
        assert fast + slow > 0
        # Both pools were filled before the baseline snapshot, so the
        # steady-state delta shows no further frame traffic at all.
        assert delta.get("frames_grants_total", domain="active") == 0
        assert delta.get("frames_grants_total", domain="idle") == 0

    def test_frame_gauges_track_pool_sizes(self, paged_pair):
        _system, _before, snap = paged_pair
        assert snap.get("frames_allocated", domain="active") == 2
        assert snap.get("frames_stack_depth", domain="active") == 2
        assert snap.get("frames_allocated", domain="idle") == 2

    def test_fault_latency_histogram_populated(self, paged_pair):
        _system, _before, snap = paged_pair
        cell = snap.get("mm_fault_latency_ns", domain="active")
        assert cell["count"] > 0
        assert cell["sum"] > 0
        assert snap.get("mm_fault_latency_ns", domain="idle")["count"] == 0

    def test_sim_core_metrics_populated(self, paged_pair):
        _system, _before, snap = paged_pair
        assert snap.get("sim_events_dispatched_total") > 0
        assert snap.get("sim_processes_spawned_total") > 0
        assert snap.get("sim_process_wait_ns")["count"] > 0

    def test_slow_fault_spans_attributed_to_active_only(self, paged_pair):
        system, _before, _snap = paged_pair
        spans = system.span_trace.filter(kind="span")
        assert spans, "slow faults must produce spans"
        assert {event.client for event in spans} == {"active"}
        assert {event.info["name"] for event in spans} == {"fault.slow"}
        # Span durations equal the trace-recorded durations and feed the
        # span_ns histogram under the same (name, client) labels.
        cell = system.metrics.snapshot().get("span_ns", name="fault.slow",
                                             client="active")
        assert cell["count"] == len(spans)
        assert cell["sum"] == sum(event.duration for event in spans)


class TestRevocationMetrics:
    def test_transparent_revocation_counted_per_victim(self):
        """Contention forces revocation of the hog's optimistic frames;
        the metrics name the victim."""
        from repro.hw.platform import Machine

        system = NemesisSystem(machine=Machine(name="small",
                                               phys_mem_bytes=16 * MB),
                               system_reserve_frames=4)
        total = system.physmem.region("main").frames
        hog = system.new_app("hog", guaranteed_frames=4,
                             extra_frames=total)
        # Best-effort optimistic allocation drains the whole free pool;
        # the frames stay unused, i.e. transparently revocable.
        hog.frames.alloc_now(total)
        victim_grants = system.metrics.snapshot().get("frames_grants_total",
                                                      domain="hog")
        assert victim_grants > 0
        newcomer = system.new_app("newcomer", guaranteed_frames=8)
        newcomer.frames.alloc_now(8)
        snap = system.metrics.snapshot()
        assert snap.get("frames_revoked_total", domain="hog",
                        kind="transparent") > 0
        assert snap.get("frames_revoked_total", domain="newcomer",
                        kind="transparent") == 0
        assert snap.get("frames_grants_total", domain="newcomer") == 8
        assert snap.get("frames_allocated", domain="hog") == \
            hog.frames.allocated


class TestSchedQueueDepth:
    def test_queue_depth_is_each_clients_queue_at_snapshot(self):
        """``sched_queue_depth`` is read from the client's queue when the
        registry is snapshotted: queued, served, replayed and discarded
        items all show."""
        system = NemesisSystem(cpu="atropos")
        sched = system.cpu.sched
        registry = system.metrics
        account = system.cpu.register(
            "busy", qos=QoSSpec(period_ns=10 * MS, slice_ns=5 * MS))
        client = account._client

        def depth():
            return registry.snapshot().get(
                "sched_queue_depth", sched=sched.name, client="busy")

        for _ in range(3):
            account.consume(100 * US)
        assert depth() == 3
        system.run_for(150 * US)
        assert depth() == len(client.queue) == 1
        sched.crash()
        system.run_for(1 * US)
        assert depth() == len(client.queue) == 2
        system.cpu.depart_account(account)
        assert depth() == 0


class TestDisabledSystemMetrics:
    def test_system_runs_unmetered(self):
        system = NemesisSystem(metrics=False)
        app = system.new_app("a", guaranteed_frames=4)
        stretch = app.new_stretch(8 * system.machine.page_size)
        app.bind(stretch, app.paged_driver(frames=2, swap_bytes=1 * MB,
                                           qos=QOS))

        def body():
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)

        thread = app.spawn(body())
        system.sim.run_until_triggered(thread.done, limit=60 * SEC)
        assert app.mmentry.fast_resolved + app.mmentry.slow_resolved > 0
        assert system.metrics.snapshot().names() == []


def _fault_roundtrip(metrics):
    """Protection-fault round trips: kernel dispatch, activation, a
    custom handler's fix-up and the thread's retry."""
    system = NemesisSystem(cpu="unlimited", usd_trace=False, metrics=metrics)
    app = system.new_app("faulter", guaranteed_frames=12)
    stretch = app.new_stretch(4 * system.machine.page_size)
    driver = app.physical_driver(frames=4)
    driver.zero_on_map = False
    app.bind(stretch, driver)
    sid, protdom = stretch.sid, app.domain.protdom

    def handler(fault):
        protdom.set_rights(sid, Rights.parse("rwm"), hot=True)
        return FaultOutcome.SUCCESS

    app.mmentry.set_fault_handler(FaultCode.PROTECTION, handler)

    def body():
        yield Touch(stretch.base, AccessKind.READ)
        for _ in range(5):
            protdom.set_rights(sid, Rights.parse("m"), hot=True)
            yield Compute(0)
            yield Touch(stretch.base, AccessKind.READ)

    thread = app.spawn(body())
    system.sim.run_until_triggered(thread.done, limit=10 * SEC)
    return system


def _atropos_paging(metrics):
    """A paged driver on the Atropos CPU: the CPU, USD and disk
    scheduling loops all run."""
    system = NemesisSystem(cpu="atropos", metrics=metrics)
    app = system.new_app("pager", guaranteed_frames=4, cpu_qos=QoSSpec(
        period_ns=10 * MS, slice_ns=5 * MS))
    stretch = app.new_stretch(8 * system.machine.page_size)
    app.bind(stretch, app.paged_driver(frames=2, swap_bytes=1 * MB,
                                       qos=QOS))

    def body():
        for va in stretch.pages():
            yield Touch(va, AccessKind.WRITE)
            yield Compute(50 * US)

    thread = app.spawn(body())
    system.sim.run_until_triggered(thread.done, limit=60 * SEC)
    return system


def _live_metric_objects():
    """Live metric families, bound instruments and cells after a full
    collection."""
    classes = (metrics_mod._Family, metrics_mod._BoundCounter,
               metrics_mod._BoundGauge, metrics_mod._HistogramCell)
    gc.collect()
    return sum(isinstance(obj, classes) for obj in gc.get_objects())


WORKLOADS = pytest.mark.parametrize(
    "workload", [_fault_roundtrip, _atropos_paging],
    ids=["fault_roundtrip", "atropos_paging"])


class TestMetricsOffAllocatesNothing:
    """With ``metrics=False`` every instrument resolves to the shared
    null singletons, so a run allocates no metric object at all. Each
    system is held alive while counting: a dropped system would free
    its metric objects before the count and the check could not fail."""

    @WORKLOADS
    def test_metrics_off(self, workload):
        # One throwaway run primes module state first.
        workload(metrics=False)
        before = _live_metric_objects()
        system = workload(metrics=False)
        assert _live_metric_objects() == before
        assert system.sim.events_dispatched > 0

    @WORKLOADS
    def test_metrics_on(self, workload):
        """Control: the same run with metrics on raises the count."""
        before = _live_metric_objects()
        system = workload(metrics=True)
        assert _live_metric_objects() > before
        assert system.metrics.snapshot().names()



_STREAM = {"sched": "usd", "client": "tiny-a-paged"}
_DOMAIN = {"domain": "tiny-a"}

#: The restarted pager's series at the end of the crash run below, as
#: the parent commit's shared cells counted them (one cell per label
#: set, accumulating across incarnations). Both incarnations charge
#: the stream's retries and lax time and the domain's faults, events
#: and activations, so a reader that drops or double-counts one fails.
RESTART_SERIES = (
    ("sched_served_ns_total", _STREAM, 26488828),
    ("sched_lax_ns_total", _STREAM, 1618693),
    ("sched_slack_ns_total", _STREAM, 0),
    ("sched_retries_total", _STREAM, 5),
    ("sched_retry_ns_total", _STREAM, 61474399),
    ("sched_queue_depth", _STREAM, 1),
    ("usd_transactions_total", {"client": "tiny-a-paged"}, 6),
    ("usd_blocks_total", {"client": "tiny-a-paged"}, 96),
    ("usd_retries_total", {"client": "tiny-a-paged"}, 5),
    ("usd_txn_failures_total", {"client": "tiny-a-paged"}, 2),
    ("mm_faults_resolved_total", dict(_DOMAIN, path="fast"), 16),
    ("mm_faults_resolved_total", dict(_DOMAIN, path="slow"), 2),
    ("mm_fault_failures_total", _DOMAIN, 0),
    ("mm_revocations_handled_total", _DOMAIN, 0),
    ("mm_watchdog_kills_total", _DOMAIN, 0),
    ("mm_work_queue_depth", _DOMAIN, 0),
    ("frames_allocated", _DOMAIN, 8),
    ("frames_stack_depth", _DOMAIN, 8),
    ("sdriver_io_failures_total", {"driver": "tiny-a-paged"}, 0),
    ("sfs_remaps_total", {"swapfile": "tiny-a-paged"}, 2),
    ("kernel_events_sent_total", _DOMAIN, 20),
    ("kernel_faults_dispatched_total", _DOMAIN, 20),
    ("kernel_activations_total", _DOMAIN, 20),
    ("sim_events_dispatched_total", {}, 742),
    ("sim_processes_spawned_total", {}, 15),
)


class TestRestartReadsEveryIncarnation:
    """A supervised pager restart re-admits the domain and its USD
    stream under their old names; every series read from an owner's
    count must cover both incarnations, each exactly once."""

    @pytest.fixture(scope="class")
    def crash_run(self):
        """The crash run of the sub-second crash mission, with a
        transient storm and bad blocks on its disk."""
        from repro.missions import MissionRunner, validate_mission
        from tests.test_missions_crash import raw_crash_mission

        mission = raw_crash_mission()
        mission["runs"][1]["faults"] = [
            {"kind": "transient", "rate": 0.4},
            {"kind": "bad_block", "rate": 0.05}]
        systems = []
        build = MissionRunner._build_system

        def capture(runner, topology):
            systems.append(build(runner, topology))
            return systems[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MissionRunner, "_build_system", capture)
            report = MissionRunner(validate_mission(mission)).run()
        supervision = report["runs"]["crash"]["supervision"]
        assert supervision["pager:tiny-a"]["restarts"] == 1
        return systems[1]

    def test_both_incarnations_are_counted(self, crash_run):
        domains = [d for d in crash_run.kernel.domains if d.name == "tiny-a"]
        streams = [c for c in crash_run.usd.sched.clients
                   if c.name == "tiny-a-paged"]
        assert [d.dead for d in domains] == [True, False]
        assert [c.departed for c in streams] == [True, False]
        assert all(d.activations for d in domains)
        assert all(c.retries for c in streams)

    def test_every_read_series_matches_the_shared_cell(self, crash_run):
        snap = crash_run.metrics.snapshot()
        got = tuple((name, labels, snap.get(name, **labels))
                    for name, labels, _value in RESTART_SERIES)
        assert got == RESTART_SERIES
