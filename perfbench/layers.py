"""Per-layer measurement from outside the program.

Three kinds of numbers, all read through public surfaces:

* counters of each modelled layer (simulator, hardware, kernel, memory
  system, schedulers, USD), differenced over a window;
* host self time and primitive call counts per ``repro`` package, from
  a cProfile of a separate traced run;
* the percentile rule used for every simulated latency.
"""

import re

#: The measured layers: the ``repro`` packages (``exp`` is the harness
#: and ``baseline`` holds the straw men, so neither is one).
PACKAGES = ("sim", "hw", "sched", "place", "kernel", "mm", "regimes", "usd",
            "usbs", "faults", "supervise", "integrity", "apps", "obs",
            "missions", "system")
BUCKETS = PACKAGES + ("heapq", "other")

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_PACKAGE_PATH = re.compile(r"(?:^|/)repro/(\w+?)(?:\.py)?(?=/|$)")

#: Tail percentiles tried from the highest down, in units of 0.01%.
_TAIL_LADDER = (9999, 9990, 9900, 9000)
_MIN_BEYOND = 10


def valid_name(name):
    """A metric name: a letter or digit, then up to 63 of [A-Za-z0-9_.-]."""
    return bool(_NAME.match(name))


def _rank(ordered, per_myriad):
    """Nearest-rank percentile of a sorted list (0.01% units)."""
    index = max(1, -(-per_myriad * len(ordered) // 10000))
    return ordered[index - 1]


def percentiles(samples):
    """The median, plus the highest percentile with at least ten samples
    beyond it, plus the sample count.

    Returns ``{"n", "p50", "tail_pct", "tail"}``; ``tail_pct`` and
    ``tail`` are None when there are too few samples for any tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": _rank(ordered, 5000) if n else None,
           "tail_pct": None, "tail": None}
    for per_myriad in _TAIL_LADDER:
        rank = -(-per_myriad * n // 10000)
        if n - rank >= _MIN_BEYOND:
            out["tail_pct"] = per_myriad / 100
            out["tail"] = ordered[rank - 1]
            break
    return out


def bucket(filename, funcname=""):
    """The layer a profiled function belongs to.

    ``src/repro/mm/paged.py`` is ``mm``; ``src/repro/system.py`` is
    ``system``; the C heap functions are ``heapq``; anything else,
    including the harness, the straw men and the benchmark itself, is
    ``other``.
    """
    if "_heapq." in funcname or filename.endswith("/heapq.py"):
        return "heapq"
    found = _PACKAGE_PATH.findall(filename)
    if found and found[-1] in PACKAGES:
        return found[-1]
    return "other"


def profile_by_layer(stats):
    """Sum a ``pstats.Stats(...).stats`` table by layer.

    Returns ``{layer: (self_seconds, primitive_calls)}`` for every
    bucket, zero where a layer never ran.
    """
    out = {name: [0.0, 0] for name in BUCKETS}
    for (filename, _line, funcname), entry in stats.items():
        primitive, _total, self_s = entry[0], entry[1], entry[2]
        cell = out[bucket(filename, funcname)]
        cell[0] += self_s
        cell[1] += primitive
    return {name: tuple(cell) for name, cell in out.items()}


# -- layer counters -----------------------------------------------------------


def _hist_sum(snapshot, name):
    return sum(snapshot.get(name, **labels)["sum"]
               for labels in snapshot.labels(name))


def _usds(system):
    usds = [system.usd]
    if system.usbs is not None:
        usds.extend(volume.usd for volume in system.usbs.volumes)
    return usds


def raw_counters(system):
    """Cumulative counters of one system, by layer (plain integers)."""
    snap = system.metrics.snapshot()
    disks = [usd.disk for usd in _usds(system)]
    raw = {
        "sim.events": system.sim.events_dispatched,
        "sim.processes_spawned": snap.total("sim_processes_spawned_total"),
        "hw.tlb_hits": system.mmu.tlb.hits,
        "hw.tlb_misses": system.mmu.tlb.misses,
        "hw.disk_reads": sum(disk.stats_reads for disk in disks),
        "hw.disk_writes": sum(disk.stats_writes for disk in disks),
        "hw.disk_cache_hits": sum(disk.stats_cache_hits for disk in disks),
        "hw.disk_busy_ns": sum(disk.stats_busy_ns for disk in disks),
        "hw.disk.resources": len(disks),
        "kernel.faults_dispatched": system.kernel.faults_dispatched,
        "kernel.activations": snap.total("kernel_activations_total"),
        "kernel.events_sent": snap.total("kernel_events_sent_total"),
        "kernel.cpu_bursts": sum(domain.cpu.bursts
                                 for domain in system.kernel.domains),
        "kernel.thread_switches": system.meter.counts["thread_switch"],
        "mm.faults_fast": snap.total("mm_faults_resolved_total",
                                     path="fast"),
        "mm.faults_slow": snap.total("mm_faults_resolved_total",
                                     path="slow"),
        "mm.fault_failures": snap.total("mm_fault_failures_total"),
        "mm.fault_count": snap.total("mm_fault_latency_ns"),
        "mm.fault_sum_ns": _hist_sum(snap, "mm_fault_latency_ns"),
        "mm.frames_granted": snap.total("frames_grants_total"),
        "mm.frames_revoked": snap.total("frames_revoked_total"),
        "mm.revocations_handled": snap.total("mm_revocations_handled_total"),
        "usd.transactions": snap.total("usd_transactions_total"),
        "usd.blocks": snap.total("usd_blocks_total"),
        "usd.txn_failures": snap.total("usd_txn_failures_total"),
    }
    cpu = system.cpu
    cpu_scheds = list(getattr(cpu, "scheds", ())) or (
        [cpu.sched] if hasattr(cpu, "sched") else [])
    for prefix, scheds in (("sched.disk", [usd.sched for usd in
                                           _usds(system)]),
                           ("sched.cpu", cpu_scheds)):
        clients = [client for sched in scheds for client in sched.clients]
        raw[prefix + ".resources"] = len(scheds)
        raw[prefix + ".items"] = sum(c.served_items + c.slack_items
                                     for c in clients)
        raw[prefix + ".served_ns"] = sum(c.served_ns for c in clients)
        raw[prefix + ".lax_ns"] = sum(c.lax_ns for c in clients)
        raw[prefix + ".slack_ns"] = sum(c.slack_ns for c in clients)
        raw[prefix + ".retries"] = sum(c.retries for c in clients)
    return raw


def _ratio(num, den):
    return num / den if den else 0.0


def capacity(raw, elapsed_ns):
    """Resource-time available over ``elapsed_ns``: one term per disk,
    per disk scheduler and per CPU run queue."""
    return {prefix: elapsed_ns * raw[prefix + ".resources"]
            for prefix in ("hw.disk", "sched.disk", "sched.cpu")}


def derive(raw, capacity_ns, touches):
    """The per-layer metrics from counters accrued over a window whose
    resource-time is ``capacity_ns`` (see :func:`capacity`)."""
    hits, misses = raw["hw.tlb_hits"], raw["hw.tlb_misses"]
    reads, writes = raw["hw.disk_reads"], raw["hw.disk_writes"]
    out = {
        "sim.events": raw["sim.events"],
        "sim.events_per_touch": _ratio(raw["sim.events"], touches),
        "sim.processes_spawned": raw["sim.processes_spawned"],
        "hw.tlb_hit_ratio": _ratio(hits, hits + misses),
        "hw.tlb_misses": misses,
        "hw.disk_reads": reads,
        "hw.disk_writes": writes,
        "hw.disk_cache_hit_ratio": _ratio(raw["hw.disk_cache_hits"], reads),
        "hw.disk_busy_frac": _ratio(raw["hw.disk_busy_ns"],
                                    capacity_ns["hw.disk"]),
        "hw.disk_service_mean_us": _ratio(raw["hw.disk_busy_ns"],
                                          reads + writes) / 1000,
    }
    for name in ("kernel.faults_dispatched", "kernel.activations",
                 "kernel.events_sent", "kernel.cpu_bursts",
                 "kernel.thread_switches", "mm.faults_fast",
                 "mm.faults_slow", "mm.fault_failures", "mm.frames_granted",
                 "mm.frames_revoked", "mm.revocations_handled",
                 "usd.transactions", "usd.blocks", "usd.txn_failures"):
        out[name] = raw[name]
    out["mm.fault_mean_us"] = _ratio(raw["mm.fault_sum_ns"],
                                     raw["mm.fault_count"]) / 1000
    for prefix in ("sched.disk", "sched.cpu"):
        available = capacity_ns[prefix]
        items = raw[prefix + ".items"]
        busy = raw[prefix + ".served_ns"] + raw[prefix + ".slack_ns"]
        out[prefix + ".items"] = items
        out[prefix + ".served_frac"] = _ratio(raw[prefix + ".served_ns"],
                                              available)
        out[prefix + ".lax_frac"] = _ratio(raw[prefix + ".lax_ns"],
                                           available)
        out[prefix + ".slack_frac"] = _ratio(raw[prefix + ".slack_ns"],
                                             available)
        out[prefix + ".item_mean_us"] = _ratio(busy, items) / 1000
        out[prefix + ".retries"] = raw[prefix + ".retries"]
    return out


class SimCounters:
    """Layer counters of one system over a window opened at creation."""

    def __init__(self, system):
        self.system = system
        self.start_ns = system.now
        self.before = raw_counters(system)

    def finish(self, touches):
        after = raw_counters(self.system)
        delta = {name: after[name] - self.before[name] for name in after}
        return derive(delta, capacity(after, self.system.now - self.start_ns),
                      touches)


class MissionCounters:
    """Layer counters summed over every system a set of missions built.

    Touches are not stamped by mission threads, so they are counted at
    the MMU: every access that does not fault completes a Touch, and
    every access that faults dispatches exactly one fault.
    """

    def __init__(self):
        self.raw = {}
        self.capacity_ns = {}

    def add(self, systems):
        for system in systems:
            raw = raw_counters(system)
            for name, value in raw.items():
                self.raw[name] = self.raw.get(name, 0) + value
            for name, value in capacity(raw, system.now).items():
                self.capacity_ns[name] = self.capacity_ns.get(name, 0) + value

    def finish(self):
        raw = self.raw
        touches = (raw["hw.tlb_hits"] + raw["hw.tlb_misses"]
                   - raw["kernel.faults_dispatched"])
        out = derive(raw, self.capacity_ns, touches)
        out["touches"] = touches
        return out
