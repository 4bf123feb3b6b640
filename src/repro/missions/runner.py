"""The headless mission runner.

:class:`MissionRunner` executes a *normalised* mission (see
:mod:`repro.missions.validate`) deterministically through
:class:`~repro.system.NemesisSystem` and emits a schema-versioned
PASS/FAIL report:

* each ``[[runs]]`` entry builds one fresh system (topology overrides
  merged), constructs the workload domains whose ``runs`` include it
  in declared order, installs the fault/behaviour plans, spawns the
  scenario drivers whose ``runs`` include it, then runs the phase
  timeline (optional populate, settle, one measurement window,
  optional drain wait) and collects a full result payload;
* every ``[[expect]]`` invariant is evaluated against the payloads
  into a per-invariant verdict;
* the **injection audit** checks that every declared fault,
  corruption, crash and behaviour rule was actually observed firing
  (via the plans' ``observed`` evidence — draws are pure, so
  observation is free); a mission whose storm never happened FAILS as
  *vacuous* rather than passing by accident;
* with ``[determinism] repeat`` set, that run is executed a second
  time and the two payloads compared byte-for-byte as canonical JSON.

Construction order (system -> domains in declared order -> plans ->
drivers -> settle -> snapshot -> measure) is part of every report:
reordering it moves the numbers the golden reports pin.

Reports contain no wall-clock values: the same mission always yields
the same bytes (the golden-report tests pin one per corpus family).
"""

import json
import time
from hashlib import blake2b

from repro.apps.compute_app import ComputeApplication
from repro.apps.fsclient import FileSystemClient
from repro.apps.pager_app import PagingApplication
from repro.faults import (BehaviorPlan, BehaviorRule, CorruptPlan,
                          CorruptRule, CrashPlan, CrashRule, FaultPlan,
                          FaultRule)
from repro.hw.mmu import AccessKind
from repro.hw.platform import Machine
from repro.kernel.threads import Touch, Wait
from repro.missions.checks import CHECKS
from repro.missions.schema import REPORT_SCHEMA_VERSION, in_run
from repro.mm.balancer import MemoryBalancer
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.supervise import (BalancerComponent, PagerComponent,
                             RestartPolicy, SchedulerComponent, Supervisor,
                             VolumeComponent)
from repro.system import NemesisSystem

KB = 1024
MB = 1024 * 1024


class MissionRunError(RuntimeError):
    """A mission failed to *execute* (as opposed to failing a verdict):
    populate limit tripped, conflicting fault plans, and the like."""


class MissionHung(MissionRunError):
    """A run blew its wall-clock deadline (``runs.deadline_s``); the
    runner turns this into a canonical FAIL report, reason ``hung``."""

    def __init__(self, run_name, deadline_s):
        self.run_name = run_name
        self.deadline_s = deadline_s
        super().__init__("run %r exceeded its %.0f s wall-clock deadline"
                         % (run_name, deadline_s))


# ---------------------------------------------------------------------------
# Scenario thread bodies (the drivers' moving parts)
# ---------------------------------------------------------------------------


def _hostile_main(system, stretch, name):
    """Map every grabbed frame (so transparent revocation finds nothing
    unused), then sit silently forever."""
    for va in stretch.pages():
        yield Touch(va, AccessKind.WRITE)
    yield Wait(system.sim.event("%s.idle" % name))   # never triggered


def _sampler(system, clients, min_alloc):
    """Record the minimum frames each sampled client ever held, every
    25 ms."""
    while True:
        yield system.sim.timeout(25 * MS)
        for name, client in clients.items():
            min_alloc[name] = min(min_alloc[name], client.allocated)


def _claim(system, client, driver, results):
    """The pressure trigger: a frames request at ``at_sec`` — under
    overcommit it must succeed via the revocation escalation."""
    yield system.sim.timeout(int(driver["at_sec"] * SEC))
    granted = yield client.request_frames(driver["frames"])
    results["claims"].append(len(granted))


def _waves(system, donors, claim_client, driver, results):
    """Alternating donor->claimant transfers: each forces intrusive
    revocation of dirty optimistic frames (clean-before-release)."""
    yield system.sim.timeout(int(driver["start_sec"] * SEC))
    for _ in range(driver["per_donor"]):
        for donor in donors:
            pfns = yield system.frames_allocator.transfer(
                donor.app.frames, claim_client, driver["frames"])
            results["transfers"].append(len(pfns))
            for pfn in pfns:     # churn: the claimant only needed proof
                claim_client.free(pfn)
            yield system.sim.timeout(int(driver["period_sec"] * SEC))


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _qos(domain):
    return QoSSpec(period_ns=domain["period_ms"] * MS,
                   slice_ns=int(round(domain["slice_ms"] * MS)),
                   extra=False, laxity_ns=domain["laxity_ms"] * MS)


def _trace_digest(trace):
    """Stable digest of the frames-allocator event trace."""
    digest = blake2b(digest_size=16)
    for event in trace.events:
        digest.update(repr((event.time, event.kind, event.client,
                            event.duration,
                            sorted(event.info.items()))).encode())
    return digest.hexdigest()


def _counter_total(system, name):
    return sum(system.metrics.counter(name).series().values())


def _swap_clients(driver):
    """The USD client(s) behind a driver's swap (1 for SFS, N for a
    multi-volume backing; none for swapless regimes like seg)."""
    swap = getattr(driver, "swap", None)
    return [] if swap is None else list(swap.attachments())


def canonical(value):
    """Deep-copy ``value`` with every dict's keys sorted (and tuples
    listified), so ``json.dumps`` without ``sort_keys`` already emits
    canonical bytes. The key-order test pins this property."""
    if isinstance(value, dict):
        return {key: canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def report_json(report):
    """The canonical report serialisation (what golden tests compare)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def hung_report(mission, run_name, deadline_s):
    """The canonical FAIL report of a mission that blew a wall-clock
    budget: ``error.reason`` is ``hung``, ``error.run`` names the run
    that wedged (None when unknown), and no partial payload is kept (a
    half-executed run is not comparable across machines)."""
    return canonical({
        "schema": REPORT_SCHEMA_VERSION,
        "mission": dict(mission["mission"]),
        "runs": {},
        "invariants": [],
        "audit": {"passed": False, "fired": {}, "vacuous": []},
        "error": {"reason": "hung", "run": run_name,
                  "deadline_s": deadline_s},
        "reproducible": None,
        "passed": False,
    })


def _disk_rule_kwargs(rule, extent=None, now=0):
    """Mission fault or corruption rule -> the keyword arguments of a
    :class:`~repro.faults.FaultRule` (or a
    :class:`~repro.faults.CorruptRule`).

    ``extent`` scopes the rule to one swap extent's LBA range (or, for
    explicit ``blocks``, its first LBAs); ``now`` anchors
    ``during='measure'`` windows. Corruption rules have no latency
    knob: they only ever affect what a read *returns*, never whether
    or when it completes.
    """
    config = {"kind": rule["kind"], "rate": rule["rate"]}
    if extent is not None:
        if rule["blocks"]:
            config["blocks"] = tuple(extent.start + index
                                     for index in range(rule["blocks"]))
        else:
            config["lba_start"] = extent.start
            config["lba_end"] = extent.end
    if rule["during"] == "measure":
        config["start_ns"] = now
        if rule["duration_sec"] != -1.0:
            config["end_ns"] = now + int(rule["duration_sec"] * SEC)
    elif rule["start_sec"]:
        config["start_ns"] = int(rule["start_sec"] * SEC)
    if rule["kind"] == "latency":
        config["extra_ns"] = rule["extra_ms"] * MS
    return config


def _rule_label(rule):
    """How the injection audit names one mission rule: its kind (crash
    rules have none) on its scope, domain or component."""
    target = (rule.get("scope") or rule.get("domain")
              or rule.get("component") or "<any>")
    kind = rule.get("kind")
    return "%s on %s" % (kind, target) if kind else "on %s" % target


def _behavior_rule(rule):
    """Mission behaviour rule -> :class:`~repro.faults.BehaviorRule`."""
    return BehaviorRule(kind=rule["kind"], domain=rule["domain"] or None)


def _crash_rule(rule):
    """Mission crash rule -> :class:`~repro.faults.CrashRule`."""
    config = {"max_crashes": rule["max_crashes"]}
    if rule["component"]:
        config["component"] = rule["component"]
    if rule["start_sec"]:
        config["start_ns"] = int(rule["start_sec"] * SEC)
    if rule["end_sec"] != -1.0:
        config["end_ns"] = int(rule["end_sec"] * SEC)
    return CrashRule(**config)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class MissionRunner:
    """Execute one normalised mission; see the module docstring."""

    def __init__(self, mission, clock=None):
        self.mission = mission
        #: Wall-clock source for the ``runs.deadline_s`` hang guard —
        #: injectable so tests can hang a mission without waiting.
        self._clock = clock if clock is not None else time.monotonic
        self._started = 0.0
        self._deadline_s = None
        self._run_name = None
        #: The workload domains the current run builds, declared order.
        self._domains = []

    # -- wall-clock deadline ---------------------------------------------------

    def _check_deadline(self):
        if self._deadline_s is not None \
                and self._clock() - self._started > self._deadline_s:
            raise MissionHung(self._run_name, self._deadline_s)

    def _advance(self, system, duration_ns):
        """``system.run_for`` in 1 s simulated chunks with the run's
        wall-clock deadline checked between chunks (chunked calls are
        behaviourally identical to one call; the sim is cooperative,
        so between-chunk is the only place a hang can be caught)."""
        remaining = int(duration_ns)
        while remaining > 0:
            self._check_deadline()
            step = min(remaining, SEC)
            system.run_for(step)
            remaining -= step
        self._check_deadline()

    # -- system + workload construction --------------------------------------

    def _build_system(self, topology):
        kwargs = {"revocation_timeout": topology["revocation_timeout_ms"] * MS}
        if topology["machine_mb"]:
            kwargs["machine"] = Machine(
                name="pressure-rig",
                phys_mem_bytes=topology["machine_mb"] * MB)
        if topology["volumes"]:
            kwargs["volumes"] = topology["volumes"]
            kwargs["volume_placement"] = topology["volume_placement"]
            kwargs["volume_seed"] = self.mission["mission"]["seed"]
        if topology["cpus"]:
            # The Atropos CPU: per-core run queues with seed-stable
            # domain placement (see repro.place).
            kwargs["cpus"] = topology["cpus"]
            kwargs["place_seed"] = self.mission["mission"]["seed"]
        integrity = self.mission["integrity"]
        if integrity["enabled"]:
            kwargs["integrity"] = True
            kwargs["scrub_interval"] = integrity["scrub_interval_ms"] * MS
            kwargs["integrity_threshold"] = integrity["detect_threshold"]
        behaviors = self.mission["behaviors"]
        if behaviors:
            kwargs["behavior_plan"] = BehaviorPlan(
                seed=self.mission["mission"]["seed"],
                rules=tuple(_behavior_rule(rule) for rule in behaviors))
        return NemesisSystem(**kwargs)

    def _build_domains(self, system, grabbed, run_name):
        """Construct every workload domain the run builds, in declared
        order; returns {name: handle} (PagingApplication /
        FileSystemClient / ComputeApplication / App). ``run_name`` gates
        compute domains' ``active_runs`` (a named-out hog idles but
        keeps its CPU contract — placement unchanged, appetite zero)."""
        handles = {}
        for domain in self._domains:
            kind, name = domain["kind"], domain["name"]
            if kind == "fsclient":
                handles[name] = FileSystemClient(system, name, _qos(domain))
            elif kind == "pager":
                handles[name] = self._build_pager(system, domain)
            elif kind == "compute":
                active = (not domain["active_runs"]
                          or run_name in domain["active_runs"])
                handles[name] = ComputeApplication(
                    system, name,
                    QoSSpec(period_ns=domain["period_ms"] * MS,
                            slice_ns=int(round(domain["slice_ms"] * MS)),
                            extra=domain["extra"], laxity_ns=0),
                    active=active)
            elif kind == "claimant":
                handles[name] = system.new_app(
                    name, guaranteed_frames=domain["guaranteed_frames"],
                    extra_frames=domain["extra_frames"])
            else:   # hostile_hog — map every remaining free frame
                app = system.new_app(
                    name, guaranteed_frames=8,
                    extra_frames=system.machine.total_frames)
                hog = app.physical_driver()
                hog.provide_frames(system.machine.total_frames)
                grabbed[name] = hog.free_frames
                stretch = app.new_stretch(
                    grabbed[name] * system.machine.page_size)
                app.bind(stretch, hog)
                app.spawn(_hostile_main(system, stretch, name),
                          name="%s-main" % name)
                handles[name] = app
        return handles

    def _build_pager(self, system, domain):
        """One pager domain's application — also the supervisor's
        rebuild recipe, so a restarted pager re-admits through the
        exact constructor call the original used."""
        return PagingApplication(
            system, domain["name"], _qos(domain), mode=domain["mode"],
            stretch_bytes=domain["stretch_kb"] * KB,
            driver_frames=domain["driver_frames"],
            swap_bytes=domain["swap_kb"] * KB,
            guaranteed_frames=(domain["guaranteed_frames"] or None),
            extra_frames=domain["extra_frames"],
            driver_kind=domain["driver_kind"],
            store=(None if domain["store"] == "sfs" else "usbs"),
            prefetch_depth=domain["prefetch_depth"],
            stretches=domain.get("stretches", ()))

    def _pagers(self, handles):
        """Pager handles, in declared order (``handles`` tracks the
        live incarnation after a supervised restart, so call sites
        re-read this rather than caching)."""
        return [(d["name"], handles[d["name"]])
                for d in self._domains
                if d["kind"] == "pager"]

    def _measured(self, handles, components=None):
        """(name, bytes-progress callable) for bandwidth domains. A
        supervised pager is measured through its component, whose
        progress carries across restarts (stays monotone)."""
        components = components or {}
        out = []
        for domain in self._domains:
            name = domain["name"]
            if domain["kind"] == "fsclient":
                handle = handles[name]
                out.append((name, lambda h=handle: h.bytes_read))
            elif domain["kind"] == "pager":
                component = components.get("pager:%s" % name)
                if component is not None:
                    out.append((name, component.progress))
                else:
                    handle = handles[name]
                    out.append((name, lambda h=handle: h.bytes_processed))
            elif domain["kind"] == "compute":
                handle = handles[name]
                out.append((name, lambda h=handle: h.bytes_processed))
        return out

    # -- fault-plan installation ---------------------------------------------

    def _split_rules(self, faults):
        """Fault rules split by phase: (start-phase, measure-phase),
        each a list of (mission rule index, rule)."""
        start, measure = [], []
        for index, rule in enumerate(faults):
            (measure if rule["during"] == "measure" else start).append(
                (index, rule))
        return start, measure

    def _resolve_target(self, rule, system, handles):
        """(target key, extent) for one rule — 'disk' or a volume.

        The target key is ``"disk"`` or ``("vol", index)``; ``extent``
        is set for extent scopes (the victim's swap extent on the
        system disk) and None otherwise.
        """
        scope = rule["scope"]
        if scope == "disk":
            return "disk", None
        prefix, _, victim = scope.partition(":")
        driver = handles[victim].driver
        if prefix == "extent":
            return "disk", driver.swap.extent
        volume = driver.swap.slots[0].volume
        return ("vol", volume.index), None

    def _install_plans(self, system, handles, plane, rules, installed,
                       fault_volumes):
        """Group ``rules`` (already phase-filtered) of one ``plane``
        (``faults`` or ``corruptions``) by resolved target, build one
        plan per target and install it: a fault plan as the disk's
        injector, a :class:`~repro.faults.CorruptPlan` as its
        ``corruptor`` (independent of its loud fault plan).
        ``installed`` maps target key -> (plan, [mission rule
        indices]) for the audit; volume scopes register in
        ``fault_volumes`` so the drain-family invariants can name the
        storm volume."""
        seed = self.mission["mission"]["seed"]
        now = system.sim.now
        rule_cls, plan_cls = ((FaultRule, FaultPlan) if plane == "faults"
                              else (CorruptRule, CorruptPlan))
        grouped = {}    # target key -> ([rules], [mission indices])
        for index, rule in rules:
            target, extent = self._resolve_target(rule, system, handles)
            if plane == "corruptions" and target != "disk" \
                    and extent is None:
                # A volume-scoped corruption rule lands on the
                # victim's own shard extent, not the whole volume: a
                # volume is shared, and whole-volume draws would
                # corrupt every tenant's shard — the bystander claims
                # could never hold. (Loud faults stay whole-volume:
                # they model the *device* failing, corruption models
                # *data* rotting.)
                victim = rule["scope"].partition(":")[2]
                swap = handles[victim].driver.swap
                for slot_index, slot in enumerate(swap.slots):
                    if slot.volume.index == target[1]:
                        extent = swap.extents[slot_index]
                        break
            plan_rules, indices = grouped.setdefault(target, ([], []))
            plan_rules.append(rule_cls(**_disk_rule_kwargs(
                rule, extent=extent, now=now)))
            indices.append(index)
            if target != "disk":
                volume = system.usbs.volumes[target[1]]
                fault_volumes[rule["scope"]] = volume.name
        for target in grouped:
            if target in installed:
                raise MissionRunError(
                    "%s rules for %r span both phases; one plan per "
                    "disk (split the scopes or align 'during')"
                    % (plane[:-1], target))
        for target, (plan_rules, indices) in grouped.items():
            plan = plan_cls(seed=seed, rules=tuple(plan_rules))
            owner = (system if target == "disk"
                     else system.usbs.volumes[target[1]])
            if plane == "faults":
                owner.install_fault_plan(plan)
            else:
                owner.install_corruption_plan(plan)
            installed[target] = (plan, indices)

    # -- supervision ----------------------------------------------------------

    def _supervised_components(self, system, run, handles, balancer):
        """Every supervised component of this run, keyed by component
        id, in deterministic registration order: pagers (declared
        order), the balancer, the system USD, then each volume."""
        components = {}
        for domain in self._domains:
            if domain["kind"] != "pager":
                continue
            name = domain["name"]

            def rebuild(d=domain, s=system):
                return self._build_pager(s, d)

            def adopt(pager, n=name, h=handles):
                h[n] = pager

            components["pager:%s" % name] = PagerComponent(
                name, rebuild, on_restart=adopt, initial=handles[name])
        if balancer is not None:
            def remake(snapshot, s=system):
                return MemoryBalancer(s, warm_start=snapshot)

            components["balancer"] = BalancerComponent(balancer, remake)
        components["usd"] = SchedulerComponent(system.usd.sched, "usd")
        if system.usbs is not None:
            for volume in system.usbs.volumes:
                components["volume:%d" % volume.index] = VolumeComponent(
                    system.usbs, volume)
        scheds = getattr(system.cpu, "scheds", None)
        if scheds is not None:
            # The Atropos CPU: each core's run queue is a supervised
            # scheduling loop (cpu:<index>).
            for index, sched in enumerate(scheds):
                component_id = "cpu:%d" % index
                components[component_id] = SchedulerComponent(
                    sched, component_id)
        return components

    def _start_supervision(self, system, run, handles, balancer):
        """Build the crash plan, the supervisor and the progress
        sampler; returns (supervisor, crash plan, components, samples)."""
        mission = self.mission
        supervision = mission["supervision"]
        crash_plan = CrashPlan(
            seed=mission["mission"]["seed"],
            rules=tuple(_crash_rule(rule) for rule in run["crashes"])
        ).bind(system.metrics)
        policy = RestartPolicy(
            backoff_ns=supervision["backoff_ms"] * MS,
            max_backoff_ns=supervision["max_backoff_ms"] * MS)
        supervisor = Supervisor(
            system.sim, heartbeat_ns=supervision["heartbeat_ms"] * MS,
            policy=policy, injector=crash_plan, metrics=system.metrics,
            spans=system.spans)
        components = self._supervised_components(system, run, handles,
                                                 balancer)
        for component in components.values():
            supervisor.supervise(component)
        samples = []
        system.sim.spawn(
            self._progress_sampler(system,
                                   self._measured(handles, components),
                                   supervision["sample_ms"] * MS, samples),
            name="progress-sampler")
        return supervisor, crash_plan, components, samples

    def _progress_sampler(self, system, measured, period, samples):
        """Record ``[sim ns, {domain: progress bytes}]`` every
        ``period`` — the series the bystander-retention invariant
        integrates over recovery windows."""
        while True:
            samples.append([system.sim.now,
                            {name: int(progress())
                             for name, progress in measured}])
            yield system.sim.timeout(period)

    # -- one run -------------------------------------------------------------

    def _execute_run(self, run):
        """Build + run one ``[[runs]]`` entry; returns (payload, fired)
        where ``fired`` maps each plane ("faults", "behaviors", plus
        "corruptions" in runs that declare some and "crashes" in
        supervised runs) to the set of mission rule indices observed
        firing, and "counts" to {plane: {str(mission index): fires}}."""
        mission = self.mission
        phases = mission["phases"]
        self._run_name = run["name"]
        self._domains = [domain for domain in mission["workload"]["domains"]
                         if in_run(domain, run["name"])]
        self._deadline_s = run["deadline_s"]
        self._started = self._clock()
        system = self._build_system(run["topology"])
        grabbed = {}
        handles = self._build_domains(system, grabbed, run["name"])
        pagers = self._pagers(handles)
        balancer = (MemoryBalancer(system)
                    if run["topology"]["balancer"] else None)
        supervisor = None
        crash_plan = None
        components = {}
        samples = []
        if mission["supervision"]["enabled"]:
            supervisor, crash_plan, components, samples = \
                self._start_supervision(system, run, handles, balancer)
        # plane -> {target key: (plan, mission indices)}
        installed = {"faults": {}, "corruptions": {}}
        fault_volumes = {}  # scope string -> volume name
        phased = {plane: self._split_rules(run[plane])
                  for plane in installed}
        for plane, (start_rules, _) in phased.items():
            if start_rules:
                self._install_plans(system, handles, plane, start_rules,
                                    installed[plane], fault_volumes)
        # Scenario drivers (declared order; deterministic spawn order).
        results = {"claims": [], "transfers": []}
        min_alloc = {}
        for driver in mission["drivers"]:
            if not in_run(driver, run["name"]):
                continue
            if driver["kind"] == "sample_min_alloc":
                clients = {name: handles[name].app.frames
                           for name in driver["domains"]}
                for name, client in clients.items():
                    min_alloc[name] = client.allocated
                system.sim.spawn(_sampler(system, clients, min_alloc),
                                 name="sampler")
            elif driver["kind"] == "claim":
                system.sim.spawn(
                    _claim(system, handles[driver["client"]].frames,
                           driver, results), name="claim")
            else:   # waves
                donors = [handles[name] for name in driver["donors"]]
                system.sim.spawn(
                    _waves(system, donors,
                           handles[driver["claimant"]].frames,
                           driver, results), name="waves")
        initial_volumes = self._domain_volumes(pagers)
        # Phase timeline: populate -> settle -> measure -> drain wait.
        # (Pager handles are re-read from ``handles`` after every
        # advance — a supervised restart swaps in a new incarnation.)
        populate_sec = 0.0
        if phases["populate"]:
            while not all(p.populated.triggered
                          for _, p in self._pagers(handles)):
                if populate_sec >= phases["populate_limit_sec"]:
                    raise MissionRunError(
                        "run %r failed to populate within %.0f s "
                        "(populated: %s)"
                        % (run["name"], phases["populate_limit_sec"],
                           {name: p.populated.triggered
                            for name, p in self._pagers(handles)}))
                self._advance(system, 1 * SEC)
                populate_sec += 1.0
        self._advance(system, int(phases["settle_sec"] * SEC))
        for plane, (_, measure_rules) in phased.items():
            if measure_rules:
                self._install_plans(system, handles, plane, measure_rules,
                                    installed[plane], fault_volumes)
        measured = self._measured(handles, components)
        start_bytes = {name: progress() for name, progress in measured}
        charged0 = {}
        for name, pager in self._pagers(handles):
            for client in _swap_clients(pager.driver):
                charged0[(name, client.usd.name)] = (client.served_ns
                                                     + client.lax_ns)
        self._advance(system, int(phases["measure_sec"] * SEC))
        window_ns = phases["measure_sec"] * SEC
        mbits = {name: (progress() - start_bytes[name]) * 8 / 1e6
                 / phases["measure_sec"] for name, progress in measured}
        volume_shares = []
        for name, pager in self._pagers(handles):
            for client in _swap_clients(pager.driver):
                key = (name, client.usd.name)
                if key not in charged0:
                    # Attached mid-window (a drain re-placed the
                    # shard, or a restart re-attached swap); no
                    # full-window share exists for it.
                    continue
                charged = (client.served_ns + client.lax_ns
                           - charged0[key]) / window_ns
                contract = client.qos.slice_ns / client.qos.period_ns
                volume_shares.append({
                    "app": name,
                    "volume": client.usd.name,
                    "charged": round(charged, 4),
                    "contract": round(contract, 4),
                    "relative_error": round(abs(charged / contract - 1), 4),
                })
        # Drains only happen under a volume storm — a fault storm on a
        # volume, or a crash storm escalating one — so the wait is
        # scoped to runs that declared one (a clean run would just
        # burn drain_limit_sec of simulated time waiting for nothing).
        crash_volumes = any(rule["component"].startswith("volume:")
                            for rule in run["crashes"])
        drain_wait_sec = 0.0
        if phases["wait_drains"] and system.usbs is not None \
                and (fault_volumes or crash_volumes):
            while (system.usbs.drains_done < phases["wait_drains"]
                   and drain_wait_sec < phases["drain_limit_sec"]):
                self._advance(system, 1 * SEC)
                drain_wait_sec += 1.0
        # Let in-flight repair re-reads settle before the integrity
        # ledger is read: a detection at the very end of the window
        # has spawned its repair but not resolved it, and the
        # detected == repaired + lost identity should hold in the
        # report. Bandwidth was already sampled above, so this burns
        # only simulated time (bounded: repairs are one transaction).
        quiesce_sec = 0.0
        while (quiesce_sec < 1.0
               and any(s.corruptions_detected > s.corruptions_repaired
                       + s.corruptions_lost
                       for s in system.integrity_swaps)):
            self._advance(system, int(0.05 * SEC))
            quiesce_sec += 0.05
        payload = self._collect(system, run, handles,
                                self._pagers(handles), mbits,
                                volume_shares, min_alloc, results,
                                grabbed, initial_volumes, fault_volumes,
                                populate_sec, drain_wait_sec)
        if supervisor is not None:
            payload["supervision"] = supervisor.summary()
            payload["progress_samples"] = samples
        if mission["integrity"]["enabled"] or run["corruptions"]:
            payload["integrity"] = self._integrity_payload(system)
        planes = [(plane, plan, indices)
                  for plane, targets in installed.items()
                  for plan, indices in targets.values()]
        for plane, plan in (("behaviors", system.frames_allocator.behavior),
                            ("crashes", crash_plan)):
            if plan is not None:
                planes.append((plane, plan, range(len(plan.rules))))
        fired = {"faults": set(), "behaviors": set(),
                 "counts": {"faults": {}, "behaviors": {},
                            "corruptions": {}, "crashes": {}}}
        if crash_plan is not None:
            fired["crashes"] = set()
        for plane, plan, indices in planes:
            seen = fired.setdefault(plane, set())
            counts = fired["counts"][plane]
            for i, count in plan.observed.items():
                seen.add(indices[i])
                key = str(indices[i])
                counts[key] = counts.get(key, 0) + count
        return payload, fired

    def _integrity_payload(self, system):
        """The integrity plane's evidence for one run.

        ``undetected`` is the load-bearing number: corruptions the
        disks injected minus corrupt payloads the wrappers intercepted
        (detections + corrupt repair re-reads) — anything left reached
        a consumer unverified. With integrity off it equals the
        injected count: that is the measured cost of not checking.
        """
        backings = {}
        caught = detected = repaired = lost = repair_reads = 0
        for swap in system.integrity_swaps:
            backings[swap.name] = {
                "detected": swap.corruptions_detected,
                "repaired": swap.corruptions_repaired,
                "lost": swap.corruptions_lost,
                "repair_reads": swap.repair_reads,
                "quarantined": swap.quarantined_bloks(),
            }
            caught += swap.corruptions_caught
            detected += swap.corruptions_detected
            repaired += swap.corruptions_repaired
            lost += swap.corruptions_lost
            repair_reads += swap.repair_reads
        corruptor = system.disk.corruptor
        injected = corruptor.injected if corruptor is not None else 0
        if system.usbs is not None:
            injected += sum(
                system.usbs.corruption_exposure_by_volume().values())
        scrub = {name: {"passes": scrubber.passes,
                        "scanned": scrubber.scanned,
                        "detected": scrubber.detected}
                 for name, scrubber in sorted(system.scrubbers.items())}
        escalated = (list(system._escalator.escalated)
                     if system._escalator is not None else [])
        return {
            "backings": backings,
            "detected": detected,
            "repaired": repaired,
            "lost": lost,
            "repair_reads": repair_reads,
            "injected": injected,
            "undetected": max(0, injected - caught),
            "scrub": scrub,
            "escalated_volumes": escalated,
        }

    def _domain_volumes(self, pagers):
        """{pager name: [volume names of its shards]} (USBS only)."""
        out = {}
        for name, pager in pagers:
            slots = getattr(getattr(pager.driver, "swap", None),
                            "slots", None)
            if slots is not None:
                out[name] = [slot.volume.name for slot in slots]
        return out

    def _collect(self, system, run, handles, pagers, mbits, volume_shares,
                 min_alloc, results, grabbed, initial_volumes,
                 fault_volumes, populate_sec, drain_wait_sec):
        """Everything any invariant might ask about, one dict."""
        mission = self.mission
        kills_family = system.metrics.counter("frames_kills_total")
        kills = {}
        for domain in self._domains:
            count = kills_family.get(domain=domain["name"])
            if count:
                kills[domain["name"]] = count
        domains = {}
        for name, pager in pagers:
            clients = _swap_clients(pager.driver)
            swap = getattr(pager.driver, "swap", None)
            lost = getattr(swap, "lost_bloks", None)
            domains[name] = {
                "usd_retries": sum(c.retries for c in clients),
                "usd_failures": sum(c.failures for c in clients),
                "sfs_remaps": getattr(swap, "remaps", 0),
                "pages_lost": getattr(pager.driver, "pages_lost", 0),
                "pageouts": getattr(pager.driver, "pageouts", 0),
                "watchdog_kills": pager.app.mmentry.watchdog_kills,
                "lost_bloks": lost() if lost is not None else [],
                "alive": not pager.main_thread.done.triggered,
            }
        stats = {
            "faults_injected": (system.disk.injector.injected
                                if system.disk.injector else 0),
            "behavior_faults": _counter_total(
                system, "behavior_faults_injected_total"),
            "revocation_rounds": _counter_total(
                system, "frames_revocation_rounds_total"),
            "revocation_cleans": _counter_total(
                system, "frames_revocation_cleans_total"),
        }
        volumes = {}
        if system.usbs is not None:
            manager = system.usbs
            volumes = {
                "exposure": manager.fault_exposure_by_volume(),
                "states": {volume.name: volume.state
                           for volume in manager.volumes},
                "drains_done": manager.drains_done,
                "stranded": sorted(list(pair)
                                   for pair in manager.stranded),
                "initial": initial_volumes,
                "final": self._domain_volumes(pagers),
                "fault_volumes": fault_volumes,
            }
        payload = {
            "mbit": mbits,
            "aggregate_mbit": round(sum(mbits.values()), 2),
            "min_allocated": min_alloc,
            "kills": kills,
            "claim_granted": (results["claims"][0]
                              if results["claims"] else None),
            "transfers": results["transfers"],
            "hostile_grabbed": grabbed,
            "domains": domains,
            "stats": stats,
            "volumes": volumes,
            "volume_shares": volume_shares,
            "populate_sec": populate_sec,
            "drain_wait_sec": drain_wait_sec,
            "trace_digest": _trace_digest(system.frames_trace),
        }
        core_map = getattr(system.cpu, "core_map", None)
        if core_map is not None:
            # Atropos-CPU runs only (keeps FIFO-CPU reports byte-stable):
            # where every domain's contract landed, and each core's
            # admitted share. Part of the payload, so the determinism
            # repeat leg byte-compares placement too.
            payload["core_of"] = {name: core_map[name]
                                  for name in sorted(core_map)}
            payload["cpu_shares"] = {
                "cpu%d" % index: round(sched.admitted_share(), 4)
                for index, sched in enumerate(system.cpu.scheds)}
        return payload

    # -- invariants -----------------------------------------------------------

    def _evaluate(self, check, payloads):
        """One [[expect]] entry -> verdict dict (check + observed +
        passed), evaluated by its :data:`~repro.missions.checks.CHECKS`
        entry."""
        targets = check.get("runs") or [run["name"]
                                        for run in self.mission["runs"]]
        passed, observed = CHECKS[check["check"]].evaluate(check, payloads,
                                                           targets)
        out = dict(check)
        out["passed"] = bool(passed)
        out["observed"] = observed
        return out

    # -- audit ----------------------------------------------------------------

    def _audit(self, fired_by_run):
        """Every declared rule observed firing, or the mission is
        vacuous. Fault/corruption/crash rules must fire in the run
        declaring them; behaviour rules (installed on every run) must
        fire in each. ``counts`` carries per-rule fire counts for all four
        planes (string-keyed by mission rule index, for canonical
        JSON) — the sweep aggregates them across the corpus."""
        mission = self.mission
        vacuous = []
        fired_out = {}
        for run in mission["runs"]:
            fired = fired_by_run[run["name"]]
            fired_out[run["name"]] = {
                plane: value if plane == "counts" else sorted(value)
                for plane, value in fired.items()}
            for plane, rules in (("faults", run["faults"]),
                                 ("corruptions", run["corruptions"]),
                                 ("behaviors", mission["behaviors"]),
                                 ("crashes", run["crashes"])):
                for index, rule in enumerate(rules):
                    if index not in fired.get(plane, ()):
                        vacuous.append("%s: %s[%d] (%s) never fired"
                                       % (run["name"], plane, index,
                                          _rule_label(rule)))
        return {"passed": not vacuous, "fired": fired_out,
                "vacuous": vacuous}

    # -- entry point -----------------------------------------------------------

    def run(self):
        """Execute the mission; returns the canonical report dict.

        A run that blows its ``deadline_s`` wall-clock budget yields a
        canonical FAIL report with ``error.reason = "hung"`` instead of
        hanging the harness (no partial payloads: a half-executed run
        is not comparable across machines)."""
        try:
            return self._run_all()
        except MissionHung as exc:
            return hung_report(self.mission, exc.run_name, exc.deadline_s)

    def _run_all(self):
        mission = self.mission
        payloads = {}
        fired_by_run = {}
        for run in mission["runs"]:
            payload, fired = self._execute_run(run)
            payloads[run["name"]] = payload
            fired_by_run[run["name"]] = fired
        invariants = [self._evaluate(check, payloads)
                      for check in mission["expect"]]
        audit = self._audit(fired_by_run)
        reproducible = None
        repeat = mission["determinism"]["repeat"]
        if repeat:
            for run in mission["runs"]:
                if run["name"] == repeat:
                    again, _ = self._execute_run(run)
                    reproducible = (
                        json.dumps(payloads[repeat], sort_keys=True)
                        == json.dumps(again, sort_keys=True))
        passed = (all(entry["passed"] for entry in invariants)
                  and audit["passed"]
                  and reproducible is not False)
        report = {
            "schema": REPORT_SCHEMA_VERSION,
            "mission": dict(mission["mission"]),
            "runs": payloads,
            "invariants": invariants,
            "audit": audit,
            "reproducible": reproducible,
            "passed": passed,
        }
        return canonical(report)


def run_mission(mission):
    """Module-level convenience: validate nothing, just run."""
    return MissionRunner(mission).run()
