"""The headless mission runner.

:class:`MissionRunner` executes a *normalised* mission (see
:mod:`repro.missions.validate`) deterministically through
:class:`~repro.system.NemesisSystem` and emits a schema-versioned
PASS/FAIL report:

* each ``[[runs]]`` entry builds one fresh system (topology overrides
  merged), constructs the workload domains in declared order, installs
  the fault/behaviour plans, spawns the scenario drivers, then runs
  the phase timeline (optional populate, settle, one measurement
  window, optional drain wait) and collects a full result payload;
* every ``[[expect]]`` invariant is evaluated against the payloads
  into a per-invariant verdict;
* the **injection audit** checks that every declared fault/behaviour
  rule with ``must_fire`` was actually observed firing (via the
  injectors' ``observed`` sets — draws are pure, so observation is
  free); a mission whose storm never happened FAILS as *vacuous*
  rather than passing by accident;
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
from repro.faults import (CrashInjector, behavior_plan_from_config,
                          corrupt_plan_from_config, crash_plan_from_config,
                          plan_from_config)
from repro.hw.mmu import AccessKind
from repro.hw.platform import Machine
from repro.kernel.threads import Touch, Wait
from repro.missions.schema import REPORT_SCHEMA_VERSION
from repro.mm.balancer import MemoryBalancer
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.supervise import (BalancerComponent, CoreComponent,
                             DriverDomainComponent, PagerComponent,
                             RestartPolicy, Supervisor, VolumeComponent)
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


def _sampler(system, clients, min_alloc, period):
    """Record the minimum frames each sampled client ever held."""
    while True:
        yield system.sim.timeout(period)
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
    if swap is None:
        return []
    attachments = getattr(swap, "attachments", None)
    if attachments is not None:
        return list(attachments())
    return [swap.channel.usd_client]


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


def _fault_rule_config(rule, extent=None, now=0):
    """Mission fault rule -> :func:`repro.faults.rule_from_config` dict.

    ``extent`` scopes the rule to one swap extent's LBA range (or, for
    explicit ``blocks``, its first LBAs); ``now`` anchors
    ``during='measure'`` windows.
    """
    config = {"kind": rule["kind"], "rate": rule["rate"]}
    if rule["op"]:
        config["op"] = rule["op"]
    if extent is not None:
        if rule["blocks"]:
            config["blocks"] = tuple(extent.start + index
                                     for index in range(rule["blocks"]))
        else:
            config["lba_start"] = extent.start
            config["lba_end"] = extent.end
    else:
        if rule["lba_start"]:
            config["lba_start"] = rule["lba_start"]
        if rule["lba_end"] != -1:
            config["lba_end"] = rule["lba_end"]
    if rule["during"] == "measure":
        config["start_ns"] = now
        if rule["duration_sec"] != -1.0:
            config["end_ns"] = now + int(rule["duration_sec"] * SEC)
    else:
        if rule["start_sec"]:
            config["start_ns"] = int(rule["start_sec"] * SEC)
        if rule["end_sec"] != -1.0:
            config["end_ns"] = int(rule["end_sec"] * SEC)
    if rule["kind"] == "latency":
        config["extra_ns"] = rule["extra_ms"] * MS
    if rule["kind"] == "stuck":
        config["stuck_ns"] = rule["stuck_ms"] * MS
    return config


def _corruption_rule_config(rule, extent=None, now=0):
    """Mission corruption rule -> corrupt_rule_from_config dict.

    Same scoping/anchoring conventions as :func:`_fault_rule_config`;
    corruption rules have no op/latency knobs (they only ever affect
    what a read *returns*, never whether or when it completes).
    """
    config = {"kind": rule["kind"], "rate": rule["rate"]}
    if extent is not None:
        if rule["blocks"]:
            config["blocks"] = tuple(extent.start + index
                                     for index in range(rule["blocks"]))
        else:
            config["lba_start"] = extent.start
            config["lba_end"] = extent.end
    else:
        if rule["lba_start"]:
            config["lba_start"] = rule["lba_start"]
        if rule["lba_end"] != -1:
            config["lba_end"] = rule["lba_end"]
    if rule["during"] == "measure":
        config["start_ns"] = now
        if rule["duration_sec"] != -1.0:
            config["end_ns"] = now + int(rule["duration_sec"] * SEC)
    else:
        if rule["start_sec"]:
            config["start_ns"] = int(rule["start_sec"] * SEC)
        if rule["end_sec"] != -1.0:
            config["end_ns"] = int(rule["end_sec"] * SEC)
    return config


def _behavior_rule_config(rule):
    """Mission behaviour rule -> behavior_rule_from_config dict."""
    config = {"kind": rule["kind"], "rate": rule["rate"]}
    if rule["domain"]:
        config["domain"] = rule["domain"]
    if rule["start_sec"]:
        config["start_ns"] = int(rule["start_sec"] * SEC)
    if rule["end_sec"] != -1.0:
        config["end_ns"] = int(rule["end_sec"] * SEC)
    if rule["kind"] == "revoke_slow":
        config["delay_ns"] = rule["delay_ms"] * MS
    if rule["kind"] == "revoke_partial":
        config["fraction"] = rule["fraction"]
    if rule["kind"] == "alloc_thrash":
        config["thrash_factor"] = rule["thrash_factor"]
    return config


def _crash_rule_config(rule):
    """Mission crash rule -> crash_rule_from_config dict."""
    config = {"rate": rule["rate"], "max_crashes": rule["max_crashes"]}
    if rule["component"]:
        config["component"] = rule["component"]
    if rule["start_sec"]:
        config["start_ns"] = int(rule["start_sec"] * SEC)
    if rule["end_sec"] != -1.0:
        config["end_ns"] = int(rule["end_sec"] * SEC)
    return config


def _merge_windows(windows):
    """Overlapping/adjacent (start, end) spans merged, sorted."""
    merged = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _interp_progress(samples, name, t):
    """Piecewise-linear progress of ``name`` at simulated time ``t``
    from ``[ns, {name: bytes}]`` samples (clamped to the sampled
    range)."""
    if not samples:
        return 0.0
    if t <= samples[0][0]:
        return float(samples[0][1].get(name, 0))
    if t >= samples[-1][0]:
        return float(samples[-1][1].get(name, 0))
    lo, hi = 0, len(samples) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if samples[mid][0] <= t:
            lo = mid
        else:
            hi = mid
    t0, v0 = samples[lo][0], samples[lo][1].get(name, 0)
    t1, v1 = samples[hi][0], samples[hi][1].get(name, 0)
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _progress_delta(samples, name, start, end):
    """Bytes of progress ``name`` made across one (start, end) span."""
    return (_interp_progress(samples, name, end)
            - _interp_progress(samples, name, start))


def _retention(check, payloads):
    """Each of the check's ``domains``: its bandwidth in ``run`` as a
    fraction of its bandwidth in ``baseline`` (0.0 if it had none)."""
    base = payloads[check["baseline"]]["mbit"]
    cur = payloads[check["run"]]["mbit"]
    return {name: (cur[name] / base[name] if base[name] else 0.0)
            for name in check["domains"]}


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
        kwargs = {
            "backing": topology["backing"],
            "revocation_timeout": topology["revocation_timeout_ms"] * MS,
            "max_revocation_rounds": topology["max_revocation_rounds"],
        }
        if topology["machine_mb"]:
            kwargs["machine"] = Machine(
                name="pressure-rig",
                phys_mem_bytes=topology["machine_mb"] * MB)
        if topology["volumes"]:
            kwargs["volumes"] = topology["volumes"]
            kwargs["volume_placement"] = topology["volume_placement"]
            kwargs["volume_seed"] = (topology["volume_seed"]
                                     or self.mission["mission"]["seed"])
        if topology["cpus"]:
            # The SMP platform: per-core Atropos run queues with
            # seed-stable domain placement (see repro.place).
            kwargs["cpus"] = topology["cpus"]
            kwargs["placement"] = topology["placement"]
            kwargs["place_seed"] = self.mission["mission"]["seed"]
        integrity = self.mission["integrity"]
        if integrity["enabled"]:
            kwargs["integrity"] = True
            kwargs["integrity_scrub"] = integrity["scrub"]
            kwargs["scrub_interval"] = integrity["scrub_interval_ms"] * MS
            kwargs["integrity_threshold"] = integrity["detect_threshold"]
        behaviors = self.mission["behaviors"]
        if behaviors:
            kwargs["behavior_plan"] = behavior_plan_from_config(
                self.mission["mission"]["seed"],
                [_behavior_rule_config(rule) for rule in behaviors])
        return NemesisSystem(**kwargs)

    def _build_domains(self, system, grabbed, run_name):
        """Construct every workload domain, in declared order; returns
        {name: handle} (PagingApplication / FileSystemClient /
        ComputeApplication / App). ``run_name`` gates compute domains'
        ``active_runs`` (a named-out hog idles but keeps its CPU
        contract — placement unchanged, appetite zero)."""
        handles = {}
        for domain in self.mission["workload"]["domains"]:
            kind, name = domain["kind"], domain["name"]
            if kind == "fsclient":
                handles[name] = FileSystemClient(
                    system, name, _qos(domain), depth=domain["depth"],
                    extent_blocks=domain["extent_blocks"])
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
                    chunk_ns=int(round(domain["chunk_ms"] * MS)),
                    chunk_bytes=domain["chunk_kb"] * KB,
                    guaranteed_frames=domain["guaranteed_frames"],
                    active=active)
            elif kind == "claimant":
                handles[name] = system.new_app(
                    name, guaranteed_frames=domain["guaranteed_frames"],
                    extra_frames=domain["extra_frames"])
            else:   # hostile_hog — map every remaining free frame
                extra = domain["extra_frames"]
                if extra == -1:
                    extra = system.machine.total_frames
                app = system.new_app(
                    name, guaranteed_frames=domain["guaranteed_frames"],
                    extra_frames=extra)
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
        pagers = []
        for spec in domain.get("stretches", ()):
            # Normalised stretch spec -> PagingApplication pager spec:
            # sentinel values ("" name, -1 priority, 0 swap_kb) mean
            # "use the application default".
            pager = {"kind": spec["driver"], "pages": spec["pages"],
                     "frames": spec["frames"]}
            if spec["name"]:
                pager["name"] = spec["name"]
            if spec["priority"] != -1:
                pager["priority"] = spec["priority"]
            if spec["swap_kb"]:
                pager["swap_kb"] = spec["swap_kb"]
            pagers.append(pager)
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
            pagers=pagers or None)

    def _pagers(self, handles):
        """Pager handles, in declared order (``handles`` tracks the
        live incarnation after a supervised restart, so call sites
        re-read this rather than caching)."""
        return [(d["name"], handles[d["name"]])
                for d in self.mission["workload"]["domains"]
                if d["kind"] == "pager"]

    def _measured(self, handles, components=None):
        """(name, bytes-progress callable) for bandwidth domains. A
        supervised pager is measured through its component, whose
        progress carries across restarts (stays monotone)."""
        components = components or {}
        out = []
        for domain in self.mission["workload"]["domains"]:
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

    def _install_plans(self, system, handles, rules, installed,
                       fault_volumes):
        """Group ``rules`` (already phase-filtered) by resolved target,
        build one plan per target and install it. ``installed`` maps
        target key -> (injector, [mission rule indices]) for the audit.
        """
        seed = self.mission["mission"]["seed"]
        now = system.sim.now
        grouped = {}    # target key -> ([configs], [mission indices])
        for index, rule in rules:
            target, extent = self._resolve_target(rule, system, handles)
            configs, indices = grouped.setdefault(target, ([], []))
            configs.append(_fault_rule_config(rule, extent=extent, now=now))
            indices.append(index)
            if target != "disk":
                volume = system.usbs.volumes[target[1]]
                fault_volumes[rule["scope"]] = volume.name
        for target in grouped:
            if target in installed:
                raise MissionRunError(
                    "fault rules for %r span both phases; one plan per "
                    "disk (split the scopes or align 'during')"
                    % (target,))
        for target, (configs, indices) in grouped.items():
            plan = plan_from_config(seed, configs)
            if target == "disk":
                injector = system.install_fault_plan(plan)
            else:
                injector = system.usbs.install_fault_plan(target[1], plan)
            installed[target] = (injector, indices)

    def _install_corruptions(self, system, handles, rules, installed,
                             fault_volumes):
        """Like :meth:`_install_plans`, for the silent-corruption
        plane: one :class:`~repro.faults.CorruptPlan` per resolved
        disk, installed as that disk's ``corruptor`` (independent of
        its loud fault plan). Volume scopes also register in
        ``fault_volumes`` so the drain-family invariants can name the
        storm volume."""
        seed = self.mission["mission"]["seed"]
        now = system.sim.now
        grouped = {}    # target key -> ([configs], [mission indices])
        for index, rule in rules:
            target, extent = self._resolve_target(rule, system, handles)
            if target != "disk" and extent is None:
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
            configs, indices = grouped.setdefault(target, ([], []))
            configs.append(_corruption_rule_config(rule, extent=extent,
                                                   now=now))
            indices.append(index)
            if target != "disk":
                volume = system.usbs.volumes[target[1]]
                fault_volumes[rule["scope"]] = volume.name
        for target in grouped:
            if target in installed:
                raise MissionRunError(
                    "corruption rules for %r span both phases; one plan "
                    "per disk (split the scopes or align 'during')"
                    % (target,))
        for target, (configs, indices) in grouped.items():
            plan = corrupt_plan_from_config(seed, configs)
            if target == "disk":
                injector = system.install_corruption_plan(plan)
            else:
                injector = system.usbs.install_corruption_plan(target[1],
                                                               plan)
            installed[target] = (injector, indices)

    # -- supervision ----------------------------------------------------------

    def _supervised_components(self, system, run, handles, balancer):
        """Every supervised component of this run, keyed by component
        id, in deterministic registration order: pagers (declared
        order), the balancer, the system USD, then each volume."""
        components = {}
        for domain in self.mission["workload"]["domains"]:
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
        if run["topology"]["backing"] == "usd":
            components["usd"] = DriverDomainComponent(system.usd)
        if system.usbs is not None:
            for volume in system.usbs.volumes:
                components["volume:%d" % volume.index] = VolumeComponent(
                    system.usbs, volume)
        scheds = getattr(system.cpu, "scheds", None)
        if scheds is not None:
            # The SMP platform: each core's run queue is a supervised
            # driver-domain component (cpu:<index>).
            for index, sched in enumerate(scheds):
                components["cpu:%d" % index] = CoreComponent(sched, index)
        return components

    def _start_supervision(self, system, run, handles, balancer):
        """Build the crash injector, the supervisor and the progress
        sampler; returns (supervisor, injector, components, samples)."""
        mission = self.mission
        supervision = mission["supervision"]
        injector = CrashInjector(
            crash_plan_from_config(
                mission["mission"]["seed"],
                [_crash_rule_config(rule) for rule in run["crashes"]]),
            metrics=system.metrics)
        policy = RestartPolicy(
            backoff_ns=supervision["backoff_ms"] * MS,
            backoff_factor=supervision["backoff_factor"],
            max_backoff_ns=supervision["max_backoff_ms"] * MS,
            max_restarts=supervision["max_restarts"],
            window_ns=int(supervision["window_s"] * SEC))
        supervisor = Supervisor(
            system.sim, heartbeat_ns=supervision["heartbeat_ms"] * MS,
            policy=policy, injector=injector, metrics=system.metrics,
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
        return supervisor, injector, components, samples

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
        where ``fired`` is {"faults": set, "behaviors": set[, "crashes":
        set]} of mission rule indices observed firing."""
        mission = self.mission
        phases = mission["phases"]
        self._run_name = run["name"]
        self._deadline_s = run["deadline_s"]
        self._started = self._clock()
        system = self._build_system(run["topology"])
        grabbed = {}
        handles = self._build_domains(system, grabbed, run["name"])
        pagers = self._pagers(handles)
        balancer = (MemoryBalancer(system)
                    if run["topology"]["balancer"] else None)
        supervisor = None
        crash_injector = None
        components = {}
        samples = []
        if mission["supervision"]["enabled"]:
            supervisor, crash_injector, components, samples = \
                self._start_supervision(system, run, handles, balancer)
        installed = {}      # target key -> (injector, mission indices)
        corrupt_installed = {}   # ditto, for the corruption plane
        fault_volumes = {}  # scope string -> volume name
        start_rules, measure_rules = self._split_rules(run["faults"])
        if start_rules:
            self._install_plans(system, handles, start_rules, installed,
                                fault_volumes)
        corrupt_start, corrupt_measure = self._split_rules(
            run["corruptions"])
        if corrupt_start:
            self._install_corruptions(system, handles, corrupt_start,
                                      corrupt_installed, fault_volumes)
        # Scenario drivers (declared order; deterministic spawn order).
        results = {"claims": [], "transfers": []}
        min_alloc = {}
        for driver in mission["drivers"]:
            if driver["kind"] == "sample_min_alloc":
                clients = {name: handles[name].app.frames
                           for name in driver["domains"]}
                for name, client in clients.items():
                    min_alloc[name] = client.allocated
                system.sim.spawn(
                    _sampler(system, clients, min_alloc,
                             driver["period_ms"] * MS), name="sampler")
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
        if measure_rules:
            self._install_plans(system, handles, measure_rules, installed,
                                fault_volumes)
        if corrupt_measure:
            self._install_corruptions(system, handles, corrupt_measure,
                                      corrupt_installed, fault_volumes)
        measured = self._measured(handles, components)
        start_bytes = {name: progress() for name, progress in measured}
        charged0 = {}
        for name, pager in self._pagers(handles):
            for client in _swap_clients(pager.driver):
                if hasattr(client, "usd"):
                    charged0[(name, client.usd.name)] = (client.served_ns
                                                         + client.lax_ns)
        self._advance(system, int(phases["measure_sec"] * SEC))
        window_ns = phases["measure_sec"] * SEC
        mbits = {name: (progress() - start_bytes[name]) * 8 / 1e6
                 / phases["measure_sec"] for name, progress in measured}
        volume_shares = []
        for name, pager in self._pagers(handles):
            for client in _swap_clients(pager.driver):
                key = (name, getattr(client, "usd", None)
                       and client.usd.name)
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
        fired = {"faults": set(), "behaviors": set(),
                 "counts": {"faults": {}, "behaviors": {},
                            "corruptions": {}, "crashes": {}}}
        counts = fired["counts"]
        for injector, indices in installed.values():
            if injector is None:
                continue
            fired["faults"].update(indices[i] for i in injector.observed)
            for i, count in injector.observed.counts.items():
                key = str(indices[i])
                counts["faults"][key] = (counts["faults"].get(key, 0)
                                         + count)
        if run["corruptions"]:
            fired["corruptions"] = set()
            for injector, indices in corrupt_installed.values():
                if injector is None:
                    continue
                fired["corruptions"].update(indices[i]
                                            for i in injector.observed)
                for i, count in injector.observed.counts.items():
                    key = str(indices[i])
                    counts["corruptions"][key] = (
                        counts["corruptions"].get(key, 0) + count)
        if system.behavior_injector is not None:
            observed = system.behavior_injector.observed
            fired["behaviors"].update(observed)
            counts["behaviors"] = {str(i): count
                                   for i, count in observed.counts.items()}
        if crash_injector is not None:
            fired["crashes"] = set(crash_injector.observed)
            counts["crashes"] = {
                str(i): count
                for i, count in crash_injector.observed.counts.items()}
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
        injected = (system.corruption_injector.injected
                    if system.corruption_injector is not None else 0)
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
        for domain in mission["workload"]["domains"]:
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
            "faults_injected": (system.fault_injector.injected
                                if system.fault_injector else 0),
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
            # SMP runs only (keeps classic-topology reports byte-stable):
            # where every domain's contract landed, and each core's
            # admitted share. Part of the payload, so the determinism
            # repeat leg byte-compares placement too.
            payload["core_of"] = {name: core_map[name]
                                  for name in sorted(core_map)}
            payload["cpu_shares"] = {
                "cpu%d" % index: round(sched.admitted_share(), 4)
                for index, sched in enumerate(system.cpu.scheds)}
            payload["migrations"] = system.cpu.migrations
        return payload

    # -- invariants -----------------------------------------------------------

    def _evaluate(self, check, payloads):
        """One [[expect]] entry -> verdict dict (check + observed +
        passed)."""
        kind = check["check"]
        all_runs = [run["name"] for run in self.mission["runs"]]
        targets = check.get("runs") or all_runs

        def verdict(passed, observed):
            out = dict(check)
            out["passed"] = bool(passed)
            out["observed"] = observed
            return out

        if kind in ("bandwidth_retention", "scrub_overhead"):
            # scrub_overhead declares only a floor; bandwidth_retention
            # either a floor or a tolerance around 1.0.
            retention = _retention(check, payloads)
            if check["floor"] >= 0.0:
                passed = all(value >= check["floor"]
                             for value in retention.values())
            else:
                passed = all(abs(value - 1.0) <= check["tolerance"]
                             for value in retention.values())
            return verdict(passed, {"retention": {
                name: round(value, 4)
                for name, value in retention.items()}})
        if kind == "progress":
            mbit = payloads[check["run"]]["mbit"]
            observed = {name: round(mbit[name], 4)
                        for name in check["domains"]}
            floor = check["min_mbit"]
            passed = all(value > 0.0 and value >= floor
                         for value in observed.values())
            return verdict(passed, {"mbit": observed})
        if kind == "kill_set":
            observed = {name: payloads[name]["kills"] for name in targets}
            passed = all(payloads[name]["kills"] == check["exactly"]
                         for name in targets)
            return verdict(passed, {"kills": observed})
        if kind == "claim_granted":
            observed = {name: payloads[name]["claim_granted"]
                        for name in targets}
            passed = all(value == check["frames"]
                         for value in observed.values())
            return verdict(passed, {"granted": observed})
        if kind == "min_frames":
            observed = {name: {d: payloads[name]["min_allocated"][d]
                               for d in check["domains"]}
                        for name in targets}
            passed = all(value >= check["floor"]
                         for per_run in observed.values()
                         for value in per_run.values())
            return verdict(passed, {"min_allocated": observed})
        if kind == "pages_lost":
            domains = payloads[check["run"]]["domains"]
            observed = {d: domains[d]["pages_lost"]
                        for d in check["domains"]}
            passed = all(value <= check["max"]
                         for value in observed.values())
            return verdict(passed, {"pages_lost": observed})
        if kind == "scaling":
            base = payloads[check["baseline"]]["aggregate_mbit"]
            cur = payloads[check["run"]]["aggregate_mbit"]
            scaling = cur / base if base else 0.0
            return verdict(scaling >= check["min"],
                           {"scaling": round(scaling, 2),
                            "aggregate": {check["baseline"]: base,
                                          check["run"]: cur}})
        if kind == "share_error":
            shares = payloads[check["run"]]["volume_shares"]
            worst = max((row["relative_error"] for row in shares),
                        default=0.0)
            return verdict(worst <= check["max"],
                           {"worst_share_error": worst})
        if kind == "crosstalk_contained":
            # The Figure-7 argument across cores: every bystander sits
            # on a different core from the hog AND kept >= floor of its
            # hog-free baseline bandwidth.
            core_of = payloads[check["run"]].get("core_of", {})
            hog_core = core_of.get(check["hog"])
            separated = hog_core is not None and all(
                core_of.get(name) is not None
                and core_of[name] != hog_core
                for name in check["domains"])
            retention = _retention(check, payloads)
            passed = separated and all(value >= check["floor"]
                                       for value in retention.values())
            return verdict(passed, {
                "hog_core": hog_core,
                "cores": {name: core_of.get(name)
                          for name in sorted(check["domains"])},
                "retention": {name: round(value, 4)
                              for name, value in retention.items()}})
        if kind == "recovered":
            record = payloads[check["run"]]["supervision"].get(
                check["component"])
            if record is None:
                return verdict(False, {"error": "component was never "
                                                "supervised"})
            worst_ns = max((end - start
                            for start, end in record["windows"]),
                           default=0)
            passed = (record["restarts"] >= check["min_restarts"]
                      and record["state"] == "running"
                      and worst_ns <= check["max_recovery_ms"] * MS)
            return verdict(passed, {
                "restarts": record["restarts"],
                "state": record["state"],
                "worst_recovery_ms": round(worst_ns / MS, 3)})
        if kind == "restart_budget":
            record = payloads[check["run"]]["supervision"].get(
                check["component"])
            if record is None:
                return verdict(False, {"error": "component was never "
                                                "supervised"})
            passed = (record["restarts"] <= check["max"]
                      and record["state"] == check["final"])
            return verdict(passed, {
                "restarts": record["restarts"],
                "escalations": record["escalations"],
                "state": record["state"]})
        if kind == "bystander_retention_during_crash":
            payload = payloads[check["run"]]
            baseline = payloads[check["baseline"]]
            supervision = payload["supervision"]
            components = check["components"] or sorted(supervision)
            windows = []
            for cid in components:
                record = supervision.get(cid)
                if record is not None:
                    windows.extend((start, end)
                                   for start, end in record["windows"])
            merged = _merge_windows(windows)
            retention = {}
            for name in check["domains"]:
                crashed = sum(
                    _progress_delta(payload["progress_samples"], name,
                                    start, end)
                    for start, end in merged)
                clean = sum(
                    _progress_delta(baseline["progress_samples"], name,
                                    start, end)
                    for start, end in merged)
                # A bystander whose baseline made no progress in the
                # windows had nothing to lose during them.
                retention[name] = crashed / clean if clean else 1.0
            # No recovery windows -> trivially true; the injection
            # audit is what catches a storm that never happened.
            passed = all(value >= check["floor"]
                         for value in retention.values())
            return verdict(passed, {
                "windows": [list(window) for window in merged],
                "retention": {name: round(value, 4)
                              for name, value in retention.items()}})
        if kind == "undetected_corruptions":
            observed = {}
            for name in targets:
                integrity = payloads[name].get("integrity")
                observed[name] = (integrity["undetected"]
                                  if integrity else 0)
            passed = all(value <= check["max"]
                         for value in observed.values())
            return verdict(passed, {"undetected": observed})
        if kind == "repaired":
            integrity = payloads[check["run"]]["integrity"]
            detected = integrity["detected"]
            repaired = integrity["repaired"]
            lost = integrity["lost"]
            passed = (detected >= check["min_detected"]
                      and repaired >= check["min_repaired"]
                      and detected == repaired + lost
                      and (check["max_lost"] == -1
                           or lost <= check["max_lost"]))
            return verdict(passed, {"detected": detected,
                                    "repaired": repaired, "lost": lost,
                                    "accounted": detected
                                    == repaired + lost})
        # The USBS containment family: all need the run's storm volume.
        payload = payloads[check["run"]]
        volumes = payload["volumes"]
        scope = "volume_of:%s" % check["victim_of"]
        storm_volume = volumes.get("fault_volumes", {}).get(scope)
        if kind == "exposure_contained":
            exposure = volumes["exposure"]
            leaked = {name: count for name, count in exposure.items()
                      if name != storm_volume and count}
            return verdict(storm_volume is not None and not leaked,
                           {"storm_volume": storm_volume,
                            "exposure": exposure})
        if kind == "drained":
            final = volumes["final"].get(check["victim_of"], [])
            passed = (storm_volume is not None
                      and volumes["drains_done"] >= check["min_drains"]
                      and not volumes["stranded"]
                      and volumes["states"].get(storm_volume) != "healthy"
                      and bool(final) and storm_volume not in final)
            return verdict(passed, {
                "storm_volume": storm_volume,
                "state": volumes["states"].get(storm_volume),
                "drains_done": volumes["drains_done"],
                "stranded": volumes["stranded"],
                "relocated_to": final})
        if kind == "losses_contained":
            observed = {name: len(data["lost_bloks"])
                        for name, data in payload["domains"].items()
                        if name != check["victim_of"]
                        and data["lost_bloks"]}
            return verdict(not observed, {"lost_elsewhere": observed})
        raise AssertionError("unknown check %r" % kind)   # pragma: no cover

    # -- audit ----------------------------------------------------------------

    def _audit(self, fired_by_run):
        """Every must_fire rule observed firing, or the mission is
        vacuous. Fault/corruption rules must fire in the run declaring
        them; behaviour rules (installed on every run) must fire in
        each. ``counts`` carries per-rule fire counts for all four
        planes (string-keyed by mission rule index, for canonical
        JSON) — the sweep aggregates them across the corpus."""
        mission = self.mission
        vacuous = []
        fired_out = {}
        for run in mission["runs"]:
            fired = fired_by_run[run["name"]]
            fired_out[run["name"]] = {
                "faults": sorted(fired["faults"]),
                "behaviors": sorted(fired["behaviors"]),
                "counts": fired["counts"],
            }
            if "corruptions" in fired:
                fired_out[run["name"]]["corruptions"] = sorted(
                    fired["corruptions"])
            if "crashes" in fired:
                fired_out[run["name"]]["crashes"] = sorted(
                    fired["crashes"])
            for index, rule in enumerate(run["faults"]):
                if rule["must_fire"] and index not in fired["faults"]:
                    vacuous.append(
                        "%s: faults[%d] (%s on %s) never fired"
                        % (run["name"], index, rule["kind"],
                           rule["scope"]))
            for index, rule in enumerate(run["corruptions"]):
                if rule["must_fire"] \
                        and index not in fired.get("corruptions", ()):
                    vacuous.append(
                        "%s: corruptions[%d] (%s on %s) never fired"
                        % (run["name"], index, rule["kind"],
                           rule["scope"]))
            for index, rule in enumerate(mission["behaviors"]):
                if rule["must_fire"] and index not in fired["behaviors"]:
                    vacuous.append(
                        "%s: behaviors[%d] (%s on %s) never fired"
                        % (run["name"], index, rule["kind"],
                           rule["domain"] or "<any>"))
            for index, rule in enumerate(run["crashes"]):
                if rule["must_fire"] \
                        and index not in fired.get("crashes", ()):
                    vacuous.append(
                        "%s: crashes[%d] (on %s) never fired"
                        % (run["name"], index,
                           rule["component"] or "<any>"))
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
            return canonical({
                "schema": REPORT_SCHEMA_VERSION,
                "mission": dict(self.mission["mission"]),
                "runs": {},
                "invariants": [],
                "audit": {"passed": False, "fired": {}, "vacuous": []},
                "error": {"reason": "hung", "run": exc.run_name,
                          "deadline_s": exc.deadline_s},
                "reproducible": None,
                "passed": False,
            })

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
