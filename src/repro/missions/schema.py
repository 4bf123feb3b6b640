"""The declarative mission format: every section, field and bound.

A *mission* is plain data — topology + workload + fault/behaviour plan
+ expected invariants — stored as a TOML file under ``missions/`` (or
built as a dict by the ``smp`` and ``regimes`` experiments in
:mod:`repro.exp`).
This module is the single source of truth for what a mission may say:
the validator (:mod:`repro.missions.validate`) walks these specs to
normalise raw input, the serialiser emits them back to TOML, and the
property tests generate random missions from them.

Design rules:

* every field has a type, bounds and (unless required) a default — a
  normalised mission carries **every** field explicitly, so two
  missions are comparable with ``==`` and serialisation is total;
* sentinel conventions: ``-1.0``/``-1`` mean "unset/forever" for
  optional numeric windows, ``""`` means "unset" for optional strings,
  ``0`` means "use the platform/mission default" where noted;
* enum-like strings are closed sets (``choices``) so a typo is a
  validation error with a field path, never a silently-dead knob.

The format is versioned: bump :data:`MISSION_SCHEMA_VERSION` on any
incompatible layout change (reports carry their own
:data:`REPORT_SCHEMA_VERSION`).
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Bump on incompatible changes to the mission file layout.
MISSION_SCHEMA_VERSION = 1

#: Bump on incompatible changes to the runner's report layout.
REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Field:
    """One field spec: name, type kind, default and bounds.

    ``kind`` is one of ``int``, ``float``, ``bool``, ``str``,
    ``str_list`` (list of strings) or ``int_table`` (string -> int
    mapping). ``default=None`` marks the field required.
    """

    name: str
    kind: str
    default: object = None
    choices: Optional[Tuple] = None
    min: Optional[float] = None
    max: Optional[float] = None

    @property
    def required(self):
        """Whether the field must be present in raw input."""
        return self.default is None


def _f(name, kind, default=None, choices=None, min=None, max=None):
    """Shorthand constructor used by the section tables below."""
    return Field(name=name, kind=kind, default=default, choices=choices,
                 min=min, max=max)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

#: ``[mission]`` — identity. ``smoke`` marks membership in the quick
#: subset (``repro.exp sweep --smoke``).
MISSION_FIELDS = (
    _f("name", "str"),
    _f("family", "str",
       choices=("chaos", "pressure", "scale", "matrix",
                "crash-recovery", "corruption", "smp", "regimes")),
    _f("description", "str", default=""),
    _f("seed", "int", min=0),
    _f("smoke", "bool", default=False),
)

#: ``[topology]`` — how the machine is built. ``machine_mb=0`` keeps
#: the paper's EB164 platform; ``volume_seed=0`` reuses the mission
#: seed. ``cpus=0`` keeps the classic single-CPU scheduling model;
#: ``cpus >= 1`` builds the SMP platform (one Atropos run queue per
#: core) with domain contracts placed by ``placement`` (see
#: :mod:`repro.place`), seeded by the mission seed. Defaults mirror
#: :class:`repro.system.NemesisSystem`.
TOPOLOGY_FIELDS = (
    _f("machine_mb", "int", default=0, min=0, max=4096),
    _f("backing", "str", default="usd", choices=("usd", "fcfs")),
    _f("volumes", "int", default=0, min=0, max=16),
    _f("volume_placement", "str", default="striped",
       choices=("striped", "pinned")),
    _f("volume_seed", "int", default=0, min=0),
    _f("revocation_timeout_ms", "int", default=100, min=1),
    _f("max_revocation_rounds", "int", default=3, min=1),
    _f("balancer", "bool", default=False),
    _f("cpus", "int", default=0, min=0, max=16),
    _f("placement", "str", default="ffd", choices=("ffd", "spread")),
)

#: ``[phases]`` — the run's timeline: optional populate loop, settle,
#: one measurement window, optional post-measure drain wait.
PHASES_FIELDS = (
    _f("settle_sec", "float", min=0.0),
    _f("measure_sec", "float", min=0.001),
    _f("populate", "bool", default=False),
    _f("populate_limit_sec", "float", default=120.0, min=1.0),
    _f("wait_drains", "int", default=0, min=0),
    _f("drain_limit_sec", "float", default=60.0, min=0.0),
)

#: ``[determinism]`` — which run is re-executed and byte-compared
#: (``repeat=""`` disables the re-run).
DETERMINISM_FIELDS = (
    _f("repeat", "str", default=""),
)

#: ``[[runs]]`` scalar fields (topology overrides and fault/crash
#: rules are validated separately). ``deadline_s`` bounds the run's
#: *wall-clock* execution: exceeding it aborts the mission into a
#: canonical FAIL report with reason ``hung``.
RUN_FIELDS = (
    _f("name", "str"),
    _f("deadline_s", "float", default=300.0, min=0.001),
)

#: ``[supervision]`` — the optional supervisor plane. When enabled,
#: every pager, the system USD, each USBS volume and (with
#: ``topology.balancer``) the MemoryBalancer are heartbeat-watched and
#: restarted under the budget below; the report gains a
#: ``supervision`` payload and ``progress_samples`` (bandwidth sampled
#: every ``sample_ms`` through the measurement window, which the
#: ``bystander_retention_during_crash`` check integrates over).
SUPERVISION_FIELDS = (
    _f("enabled", "bool", default=False),
    _f("heartbeat_ms", "int", default=100, min=1),
    _f("backoff_ms", "int", default=100, min=1),
    _f("backoff_factor", "float", default=2.0, min=1.0),
    _f("max_backoff_ms", "int", default=2000, min=1),
    _f("max_restarts", "int", default=2, min=0),
    _f("window_s", "float", default=5.0, min=0.001),
    _f("sample_ms", "int", default=50, min=1),
)

#: ``[integrity]`` — the optional integrity plane. When enabled, every
#: paged/stream swap backing goes behind an end-to-end checksumming
#: wrapper (verify on swap-in, quarantine/repair/declare-lost on
#: mismatch) and, with ``scrub``, a per-backing background scrubber
#: walking bloks every ``scrub_interval_ms`` through the owner's own
#: streams; ``detect_threshold`` unrepairable losses served by one
#: USBS volume hand it to the drain ladder. The report gains an
#: ``integrity`` payload per run.
INTEGRITY_FIELDS = (
    _f("enabled", "bool", default=False),
    _f("scrub", "bool", default=True),
    _f("scrub_interval_ms", "int", default=20, min=1),
    _f("detect_threshold", "int", default=4, min=1),
)

# -- workload domains --------------------------------------------------------

_QOS_FIELDS = (
    _f("period_ms", "int", min=1),
    _f("slice_ms", "float", min=0.001),   # 10% of 25 ms is 2.5 ms
    _f("laxity_ms", "int", default=10, min=0),
)

#: ``[[workload.domains]]`` — per-kind field sets (all share ``kind``
#: and ``name``). A ``pager`` with ``guaranteed_frames=0`` takes the
#: driver-frames default (the §6.2 exactly-what-you-need contract).
DOMAIN_KINDS = {
    "fsclient": _QOS_FIELDS + (
        _f("depth", "int", default=16, min=1),
        _f("extent_blocks", "int", default=262144, min=8),
    ),
    "pager": _QOS_FIELDS + (
        _f("mode", "str", default="write-loop",
           choices=("read-loop", "write-loop")),
        _f("stretch_kb", "int", min=8),
        _f("driver_frames", "int", min=1),
        _f("swap_kb", "int", min=8),
        _f("guaranteed_frames", "int", default=0, min=0),
        _f("extra_frames", "int", default=0, min=0),
        _f("driver_kind", "str", default="paged",
           choices=("paged", "stream", "seg")),
        _f("store", "str", default="sfs", choices=("sfs", "usbs")),
        _f("prefetch_depth", "int", default=4, min=1),
    ),
    "claimant": (
        _f("guaranteed_frames", "int", min=1),
        _f("extra_frames", "int", default=0, min=0),
    ),
    "hostile_hog": (
        _f("guaranteed_frames", "int", default=8, min=1),
        _f("extra_frames", "int", default=-1, min=-1),
    ),
    # A pure CPU-bound domain: holds a (p, s, x) CPU contract and loops
    # `chunk_ms` compute bursts, counting `chunk_kb` of progress per
    # burst. `extra=True` makes it slack-hungry (a CPU hog burns every
    # spare cycle its core offers). `active_runs=[]` computes in every
    # run; naming runs makes the other runs a hog-free baseline.
    "compute": (
        _f("period_ms", "int", min=1),
        _f("slice_ms", "float", min=0.001),
        _f("extra", "bool", default=False),
        _f("chunk_ms", "float", default=1.0, min=0.001),
        _f("chunk_kb", "int", default=64, min=1),
        _f("guaranteed_frames", "int", default=2, min=1),
        _f("active_runs", "str_list", default=()),
    ),
}

#: ``[[workload.domains.stretches]]`` — extra per-stretch pager
#: personalities for a ``pager`` domain (the multi-pager registry of
#: :mod:`repro.regimes`). Each entry adds one stretch of ``pages``
#: pages bound to its own ``driver``; ``priority`` declares the
#: revocation order (lower pays first; ``-1``: registration order);
#: ``swap_kb=0`` sizes paged kinds at four times the stretch. Only
#: ``paged``/``forgetful`` take ``swap_kb``; ``frames`` primes the
#: driver pool for kinds that keep one.
STRETCH_FIELDS = (
    _f("driver", "str",
       choices=("paged", "forgetful", "mapped-file", "nailed",
                "physical", "seg")),
    _f("name", "str", default=""),
    _f("pages", "int", default=16, min=1),
    _f("frames", "int", default=0, min=0),
    _f("swap_kb", "int", default=0, min=0),
    _f("priority", "int", default=-1, min=-1),
)

# -- scenario drivers --------------------------------------------------------

#: ``[[drivers]]`` — deterministic scenario processes spawned after
#: the workload is built, in file order.
DRIVER_KINDS = {
    "claim": (
        _f("client", "str"),
        _f("frames", "int", min=1),
        _f("at_sec", "float", min=0.0),
    ),
    "waves": (
        _f("donors", "str_list"),
        _f("claimant", "str"),
        _f("frames", "int", min=1),
        _f("per_donor", "int", min=1),
        _f("start_sec", "float", min=0.0),
        _f("period_sec", "float", min=0.001),
    ),
    "sample_min_alloc": (
        _f("domains", "str_list"),
        _f("period_ms", "int", default=25, min=1),
    ),
}

# -- fault and behaviour rules -----------------------------------------------

#: ``[[runs.faults]]`` — one storage-fault rule. ``scope`` is either
#: ``"disk"`` (the system disk, with optional explicit LBA bounds),
#: ``"extent:<domain>"`` (that pager's swap extent on the system
#: disk) or ``"volume_of:<domain>"`` (the whole USBS volume hosting
#: that pager's first shard). ``during="measure"`` installs the rule
#: when the measurement window opens (``duration_sec=-1``: to end of
#: run); ``during="start"`` installs it at construction with the
#: absolute ``start_sec``/``end_sec`` window (``-1``: forever).
FAULT_FIELDS = (
    _f("kind", "str",
       choices=("transient", "bad_block", "latency", "stuck")),
    _f("rate", "float", default=1.0, min=0.0, max=1.0),
    _f("scope", "str", default="disk"),
    _f("op", "str", default="", choices=("", "read", "write")),
    _f("during", "str", default="start", choices=("start", "measure")),
    _f("start_sec", "float", default=0.0, min=0.0),
    _f("end_sec", "float", default=-1.0, min=-1.0),
    _f("duration_sec", "float", default=-1.0, min=-1.0),
    _f("lba_start", "int", default=0, min=0),
    _f("lba_end", "int", default=-1, min=-1),
    _f("blocks", "int", default=0, min=0),
    _f("extra_ms", "int", default=5, min=1),
    _f("stuck_ms", "int", default=100, min=1),
    _f("must_fire", "bool", default=True),
)

#: ``[[runs.crashes]]`` — one crash-fault rule, consulted at the
#: supervisor's heartbeat instants (requires ``supervision.enabled``).
#: ``component`` addresses a supervised component (``pager:<name>``,
#: ``balancer``, ``usd``, ``volume:<index>``, ``cpu:<index>``;
#: ``""``: any);
#: ``max_crashes`` caps the rule's total kills (0: unlimited) so a
#: storm can be sized to exhaust a restart budget exactly.
CRASH_FIELDS = (
    _f("component", "str", default=""),
    _f("rate", "float", default=1.0, min=0.0, max=1.0),
    _f("start_sec", "float", default=0.0, min=0.0),
    _f("end_sec", "float", default=-1.0, min=-1.0),
    _f("max_crashes", "int", default=1, min=0),
    _f("must_fire", "bool", default=True),
)

#: ``[[runs.corruptions]]`` — one silent-corruption rule, the fourth
#: fault plane. Affected reads complete with status *ok* and wrong
#: data, so only the ``[integrity]`` plane's end-to-end checksums can
#: see them. ``scope``/``during`` work exactly as for
#: ``[[runs.faults]]``; ``kind`` selects the corruption model:
#: ``bit_flip`` re-draws per read instant (transient — a repair
#: re-read usually heals it), ``torn_write``/``misdirected_write``
#: draw per written version (persistent until rewritten).
CORRUPTION_FIELDS = (
    _f("kind", "str",
       choices=("bit_flip", "torn_write", "misdirected_write")),
    _f("rate", "float", default=1.0, min=0.0, max=1.0),
    _f("scope", "str", default="disk"),
    _f("during", "str", default="start", choices=("start", "measure")),
    _f("start_sec", "float", default=0.0, min=0.0),
    _f("end_sec", "float", default=-1.0, min=-1.0),
    _f("duration_sec", "float", default=-1.0, min=-1.0),
    _f("lba_start", "int", default=0, min=0),
    _f("lba_end", "int", default=-1, min=-1),
    _f("blocks", "int", default=0, min=0),
    _f("must_fire", "bool", default=True),
)

#: ``[[behaviors]]`` — one hostile-domain rule, installed on every
#: run (hostility is part of the workload, not the storm).
BEHAVIOR_FIELDS = (
    _f("kind", "str", choices=("revoke_slow", "revoke_silent",
                               "revoke_partial", "revoke_lie",
                               "alloc_thrash")),
    _f("domain", "str", default=""),
    _f("rate", "float", default=1.0, min=0.0, max=1.0),
    _f("start_sec", "float", default=0.0, min=0.0),
    _f("end_sec", "float", default=-1.0, min=-1.0),
    _f("delay_ms", "int", default=150, min=0),
    _f("fraction", "float", default=0.5, min=0.0, max=1.0),
    _f("thrash_factor", "int", default=8, min=1),
    _f("must_fire", "bool", default=True),
)

# -- expected invariants -----------------------------------------------------

#: ``[[expect]]`` — per-check field sets (all share ``check``). Checks
#: referencing ``run``/``baseline`` name runs; ``runs=[]`` means every
#: run. Exactly one of ``floor``/``tolerance`` must be set on
#: ``bandwidth_retention`` (the other left at the ``-1`` sentinel).
EXPECT_KINDS = {
    "bandwidth_retention": (
        _f("run", "str"),
        _f("baseline", "str"),
        _f("domains", "str_list"),
        _f("floor", "float", default=-1.0, min=-1.0, max=10.0),
        _f("tolerance", "float", default=-1.0, min=-1.0, max=10.0),
    ),
    "progress": (
        _f("run", "str"),
        _f("domains", "str_list"),
        _f("min_mbit", "float", default=0.0, min=0.0),
    ),
    "kill_set": (
        _f("runs", "str_list", default=()),
        _f("exactly", "int_table", default=()),
    ),
    "claim_granted": (
        _f("runs", "str_list", default=()),
        _f("frames", "int", min=1),
    ),
    "min_frames": (
        _f("runs", "str_list", default=()),
        _f("domains", "str_list"),
        _f("floor", "int", min=0),
    ),
    "pages_lost": (
        _f("run", "str"),
        _f("domains", "str_list"),
        _f("max", "int", default=0, min=0),
    ),
    "scaling": (
        _f("run", "str"),
        _f("baseline", "str"),
        _f("min", "float", min=0.0),
    ),
    "share_error": (
        _f("run", "str"),
        _f("max", "float", min=0.0),
    ),
    "exposure_contained": (
        _f("run", "str"),
        _f("victim_of", "str"),
    ),
    "drained": (
        _f("run", "str"),
        _f("victim_of", "str"),
        _f("min_drains", "int", default=1, min=1),
    ),
    "losses_contained": (
        _f("run", "str"),
        _f("victim_of", "str"),
    ),
    # The supervision family (all require ``supervision.enabled``):
    # ``recovered`` — the component crashed and every recovery
    # completed within ``max_recovery_ms``, ending back in service;
    # ``restart_budget`` — the component's restarts stayed within
    # ``max`` and it ended in ``final`` state (the escalation ladder's
    # verdict); ``bystander_retention_during_crash`` — over the
    # recovery windows of ``components`` (empty: all), each bystander
    # in ``domains`` retained at least ``floor`` of its baseline-run
    # bandwidth across the same windows.
    "recovered": (
        _f("run", "str"),
        _f("component", "str"),
        _f("max_recovery_ms", "int", min=1),
        _f("min_restarts", "int", default=1, min=1),
    ),
    "restart_budget": (
        _f("run", "str"),
        _f("component", "str"),
        _f("max", "int", min=0),
        _f("final", "str", default="running",
           choices=("running", "degraded", "retired")),
    ),
    "bystander_retention_during_crash": (
        _f("run", "str"),
        _f("baseline", "str"),
        _f("domains", "str_list"),
        _f("components", "str_list", default=()),
        _f("floor", "float", min=0.0, max=10.0),
    ),
    # The integrity family: ``undetected_corruptions`` — at most
    # ``max`` injected corruptions were delivered unverified across the
    # named runs (all, if empty); ``repaired`` — the run detected at
    # least ``min_detected`` corruptions, repaired at least
    # ``min_repaired`` and declared at most
    # ``max_lost`` lost (``-1``: any), with every detection accounted
    # repaired-or-lost; ``scrub_overhead`` — each named domain in the
    # scrubbed/corrupted run kept at least ``floor`` of its bandwidth
    # in the clean ``baseline`` run (scrub I/O charged to the owner,
    # never to bystanders).
    "undetected_corruptions": (
        _f("runs", "str_list", default=()),
        _f("max", "int", default=0, min=0),
    ),
    "repaired": (
        _f("run", "str"),
        _f("min_detected", "int", default=1, min=0),
        _f("min_repaired", "int", default=0, min=0),
        _f("max_lost", "int", default=-1, min=-1),
    ),
    "scrub_overhead": (
        _f("run", "str"),
        _f("baseline", "str"),
        _f("domains", "str_list"),
        _f("floor", "float", min=0.0, max=10.0),
    ),
    # The SMP family: ``crosstalk_contained`` — in ``run`` (an SMP run,
    # ``topology.cpus >= 2``), each bystander in ``domains`` was placed
    # on a different core from ``hog`` (the report's ``core_of``) AND
    # retained at least ``floor`` of its bandwidth in ``baseline``
    # (typically the same topology with the hog's compute loop idle via
    # ``active_runs``) — the paper's Figure-7 argument applied across
    # cores.
    "crosstalk_contained": (
        _f("run", "str"),
        _f("baseline", "str"),
        _f("hog", "str"),
        _f("domains", "str_list"),
        _f("floor", "float", default=0.95, min=0.0, max=10.0),
    ),
}

#: Top-level sections in canonical serialisation order.
SECTION_ORDER = ("mission", "topology", "workload", "drivers",
                 "behaviors", "supervision", "integrity", "phases",
                 "runs", "determinism", "expect")
