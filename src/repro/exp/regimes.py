"""The ``regimes`` subcommand: the seg/paged ablation gates.

Not a figure from the paper: §2.2 argues the stretch-driver interface
is a *pluggability* point — "the application is responsible for
providing the physical resources" behind a stretch, whatever the
translation regime. This experiment holds the rest of the tree fixed
and ablates the regime itself (:mod:`repro.regimes`), asking what the
self-paging contracts buy and cost under a segmentation-style driver
and under several drivers sharing one domain.

Three legs, all deterministic:

Fault cost (the Table 1 analogue, per regime)
    First-touch every page of one stretch under the classic paged
    regime (one demand-zero fault per page) and under the seg regime
    (one fault maps the whole base+limit extent). Simulated
    nanoseconds per page, measured around the touching thread.
    Gate: the seg regime's per-page fault cost is *strictly* below
    the paged regime's — the whole point of a contiguous extent is
    amortising the per-fault dispatch and per-page syscall overhead.

Bandwidth (the Figure 7 analogue, per regime)
    The same sequential read loop as a mission under each regime
    (identical QoS, stretch and windows; the seg domain's default
    contract covers its whole stretch, the paged domain runs a
    24-frame pool). Reported side by side; gates: both progress and
    both repeat byte-identically.

Multi-pager accountability (the §6.2 claim under the registry)
    One domain runs three pager personalities at once — the paged
    main stretch plus mapped-file and nailed extras, faults demuxed
    by the per-stretch :class:`~repro.regimes.PagerRegistry` — while
    a waves driver forces repeated intrusive revocation of its
    optimistic frames. Gates: the domain never dips below its
    guarantee, nobody is killed, bandwidth through the pressure run
    retains >= ``retention_floor`` of the calm baseline, and both
    missions repeat byte-identically.

Inertness (the classic path is untouched)
    A default :class:`~repro.system.NemesisSystem` must build no seg
    plane at all — ``translation.seg`` and ``mmu.seg`` both ``None``
    — so every pre-regimes experiment's output stays bit-identical.

Run it with ``python -m repro.exp regimes`` or ``--smoke`` (shorter
windows, same gates). Writes ``regimes.json`` to ``--out`` (default
``results/``); exits non-zero if any gate fails, at either scale.
"""

import json
import os
import sys
from dataclasses import dataclass

from repro.hw.mmu import AccessKind
from repro.kernel.threads import Touch
from repro.missions import MISSION_SCHEMA_VERSION, run_mission, validate_mission
from repro.sched.atropos import QoSSpec
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

KB = 1024

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RegimesConfig:
    """Everything the legs share; one object so the report can record
    exactly what produced the numbers."""

    # Fault-cost leg: one stretch, first-touch every page.
    cost_pages: int = 64
    # Bandwidth + multipager legs (mission QoS and windows).
    period_ms: int = 50
    slice_ms: float = 20.0
    stretch_kb: int = 256
    driver_frames: int = 24
    swap_kb: int = 1024
    # Multipager leg: contract and pressure shape. The narrower slice
    # fits three USD streams (multi's swap + mapped file, bystander's
    # swap) under disk admission control.
    multi_slice_ms: float = 15.0
    multi_guaranteed: int = 28
    multi_extra: int = 20
    wave_frames: int = 6
    wave_count: int = 4
    # Waves must land inside the measure window, not during populate:
    # a populate-phase domain is all dirty pages and a busy fault
    # worker, so revocation rounds make no progress and the escalation
    # ladder kills it. Populate for this shape takes ~4s of simulated
    # time; settle follows, then measurement.
    wave_start_sec: float = 6.0
    # Shared.
    seed: int = 1999
    settle_sec: float = 1.0
    measure_sec: float = 3.0
    # Gates.
    retention_floor: float = 0.95
    smoke: bool = False


def smoke_config():
    """The CI-sized variant: same shape, shorter windows."""
    return RegimesConfig(cost_pages=16, settle_sec=0.5, measure_sec=1.0,
                         wave_count=2, wave_start_sec=4.7, smoke=True)


# ---------------------------------------------------------------------------
# Fault cost: first-touch one stretch under each regime
# ---------------------------------------------------------------------------

def _first_touch_ns(config, regime):
    """Simulated ns to first-touch ``cost_pages`` pages under ``regime``.

    Both systems are built identically; only the driver behind the
    stretch differs. The paged pool is primed with one frame per page,
    so every paged fault is a pure demand-zero (no eviction, no disk)
    — the cheapest fault the classic regime can field, which makes the
    seg comparison conservative.
    """
    system = NemesisSystem(cpu="unlimited", usd_trace=False)
    pages = config.cost_pages
    app = system.new_app("cost-%s" % regime,
                         guaranteed_frames=pages + 4)
    stretch = app.new_stretch(pages * system.machine.page_size)
    if regime == "seg":
        driver = app.seg_driver()
    else:
        qos = QoSSpec(period_ns=config.period_ms * MS,
                      slice_ns=int(config.slice_ms * MS),
                      laxity_ns=10 * MS)
        driver = app.paged_driver(frames=pages,
                                  swap_bytes=config.swap_kb * KB, qos=qos)
    app.bind(stretch, driver)

    elapsed = []

    def body():
        for va in stretch.pages():
            start = system.sim.now
            yield Touch(va, AccessKind.WRITE)
            elapsed.append(system.sim.now - start)

    thread = app.spawn(body(), name="toucher")
    system.sim.run_until_triggered(thread.done, limit=120 * SEC)
    faults = sum(1 for ns in elapsed if ns)
    return {
        "pages": pages,
        "faults": faults,
        "total_ns": sum(elapsed),
        "ns_per_page": sum(elapsed) / pages,
        "max_fault_ns": max(elapsed),
    }


def run_fault_costs(config):
    """The Table 1 analogue: per-page first-touch cost, seg vs paged."""
    seg = _first_touch_ns(config, "seg")
    paged = _first_touch_ns(config, "paged")
    ratio = (seg["ns_per_page"] / paged["ns_per_page"]
             if paged["ns_per_page"] else 0.0)
    return {
        "seg": seg,
        "paged": paged,
        "seg_over_paged": round(ratio, 4),
        "gates": {
            "seg_fault_cost_below_paged":
                seg["ns_per_page"] < paged["ns_per_page"],
        },
    }


# ---------------------------------------------------------------------------
# Mission construction
# ---------------------------------------------------------------------------

def _pager(config, name, **overrides):
    """One read-loop pager domain at the shared QoS shape."""
    out = {
        "kind": "pager", "name": name, "period_ms": config.period_ms,
        "slice_ms": config.slice_ms, "mode": "read-loop",
        "stretch_kb": config.stretch_kb,
        "driver_frames": config.driver_frames,
        "swap_kb": config.swap_kb,
    }
    out.update(overrides)
    return out


def build_bandwidth_mission(config, regime):
    """The Figure 7 read loop under one regime, with a repeat leg."""
    if regime == "seg":
        # No swap, no pool: the schema floors are unused, and the zero
        # guarantee takes the whole-stretch default contract.
        domain = _pager(config, "reader", driver_kind="seg",
                        driver_frames=1, swap_kb=8)
    else:
        domain = _pager(config, "reader", guaranteed_frames=24)
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "regimes-bw-%s" % regime, "family": "regimes",
                    "seed": config.seed},
        "topology": {"machine_mb": 8},
        "workload": {"domains": [domain]},
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec, "populate": True},
        "runs": [{"name": "steady"}],
        "determinism": {"repeat": "steady"},
        "expect": [
            {"check": "kill_set", "exactly": {}},
            {"check": "progress", "run": "steady", "domains": ["reader"]},
        ],
    })


def build_multipager_mission(config, pressure):
    """The three-personality domain, calm or under revocation waves.

    The bystander is a plain guaranteed pager (pool == guarantee, no
    optimistic frames, so revocation can never touch it): its
    bandwidth through the pressure run is the §6.2 accountability
    claim — every cost of revoking the multi domain's optimistic
    frames (the cleaning IO, the refaults) lands on the multi domain
    alone.
    """
    multi = _pager(config, "multi", slice_ms=config.multi_slice_ms,
                   guaranteed_frames=config.multi_guaranteed,
                   extra_frames=config.multi_extra,
                   stretches=[
                       {"driver": "mapped-file", "pages": 8, "frames": 4,
                        "priority": 1},
                       {"driver": "nailed", "pages": 8, "priority": 9},
                   ])
    bystander = _pager(config, "bystander",
                       slice_ms=config.multi_slice_ms,
                       guaranteed_frames=24)
    drivers = [{"kind": "sample_min_alloc",
                "domains": ["multi", "bystander"]}]
    if pressure:
        # Each wave transfers optimistic frames away from the domain —
        # intrusive revocation through the registry's escalation
        # ladder (paged pays first, the mapped-file pager cleans, the
        # nailed personality refuses).
        drivers.append({"kind": "waves", "donors": ["multi"],
                        "claimant": "claimant",
                        "frames": config.wave_frames, "per_donor":
                        config.wave_count,
                        "start_sec": config.wave_start_sec,
                        "period_sec": 0.5})
    name = "regimes-multi-%s" % ("pressure" if pressure else "calm")
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": name, "family": "regimes",
                    "seed": config.seed},
        # 300ms revocation rounds: the multi domain's cleaning writes
        # go through its own 30%-share USD stream, and a round that
        # cannot fit even one clean reads as a zero-progress strike.
        "topology": {"machine_mb": 8, "revocation_timeout_ms": 300},
        "workload": {"domains": [
            multi,
            bystander,
            {"kind": "claimant", "name": "claimant",
             "guaranteed_frames": 32, "extra_frames": 16},
        ]},
        "drivers": drivers,
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec, "populate": True},
        "runs": [{"name": "steady"}],
        "determinism": {"repeat": "steady"},
        "expect": [
            {"check": "min_frames", "domains": ["multi"],
             "floor": config.multi_guaranteed},
            {"check": "min_frames", "domains": ["bystander"],
             "floor": 24},
            {"check": "kill_set", "exactly": {}},
            {"check": "progress", "run": "steady",
             "domains": ["multi", "bystander"]},
        ],
    })


# ---------------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------------

def run_bandwidth(config):
    """The Figure 7 analogue on both regimes, side by side."""
    legs = {}
    gates = {}
    for regime in ("seg", "paged"):
        report = run_mission(build_bandwidth_mission(config, regime))
        payload = report["runs"]["steady"]
        legs[regime] = {
            "mbit": round(payload["mbit"]["reader"], 2),
            "pageouts": payload["domains"]["reader"]["pageouts"],
        }
        gates["bandwidth_%s_progress" % regime] = report["passed"]
        gates["bandwidth_%s_deterministic" % regime] = \
            report["reproducible"]
    seg, paged = legs["seg"]["mbit"], legs["paged"]["mbit"]
    legs["seg_over_paged"] = round(seg / paged, 2) if paged else 0.0
    legs["gates"] = gates
    return legs


def run_multipager(config):
    """Three personalities on one contract, calm vs revocation waves."""
    reports = {}
    for pressure in (False, True):
        key = "pressure" if pressure else "calm"
        reports[key] = run_mission(
            build_multipager_mission(config, pressure))
    calm = reports["calm"]["runs"]["steady"]
    storm = reports["pressure"]["runs"]["steady"]
    before = calm["mbit"]["bystander"]
    during = storm["mbit"]["bystander"]
    retention = during / before if before else 0.0
    return {
        "calm_mbit": {name: round(value, 2)
                      for name, value in calm["mbit"].items()},
        "pressure_mbit": {name: round(value, 2)
                          for name, value in storm["mbit"].items()},
        "bystander_retention": round(retention, 4),
        "transfers": storm["transfers"],
        "min_allocated": storm["min_allocated"],
        "guaranteed": config.multi_guaranteed,
        "gates": {
            "multipager_guarantee_floor": reports["pressure"]["passed"],
            "multipager_nobody_killed":
                not storm["kills"] and not calm["kills"],
            "multipager_bystander_retention":
                retention >= config.retention_floor,
            "multipager_deterministic":
                (reports["calm"]["reproducible"]
                 and reports["pressure"]["reproducible"]),
        },
    }


def classic_path_inert():
    """True when a default system builds no seg plane at all."""
    system = NemesisSystem()
    return (system.translation.seg is None
            and system.translation.mmu.seg is None)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def run(config):
    """All legs; returns the schema-versioned payload."""
    fault_costs = run_fault_costs(config)
    bandwidth = run_bandwidth(config)
    multipager = run_multipager(config)
    inert = classic_path_inert()
    gates = {}
    gates.update(fault_costs["gates"])
    gates.update(bandwidth["gates"])
    gates.update(multipager["gates"])
    gates["classic_path_inert"] = inert
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "cost_pages": config.cost_pages,
            "stretch_kb": config.stretch_kb,
            "driver_frames": config.driver_frames,
            "multi_guaranteed": config.multi_guaranteed,
            "wave_frames": config.wave_frames,
            "wave_count": config.wave_count,
            "retention_floor": config.retention_floor,
            "seed": config.seed,
            "measure_sec": config.measure_sec,
            "scale": "smoke" if config.smoke else "full",
        },
        "fault_costs": fault_costs,
        "bandwidth": bandwidth,
        "multipager": multipager,
        "classic_path_inert": inert,
        "gates": gates,
        "passed": all(gates.values()),
    }


def format_result(payload, config):
    """Human-readable tables for one payload."""
    from repro.exp import report

    costs = payload["fault_costs"]
    rows = [(regime, str(costs[regime]["faults"]),
             "%.0f" % costs[regime]["ns_per_page"],
             "%.0f" % costs[regime]["max_fault_ns"])
            for regime in ("seg", "paged")]
    lines = [report.table(
        ["regime", "faults", "ns/page", "worst fault ns"], rows,
        title="First-touch cost, %d pages (seg amortises one extent "
              "fault)" % config.cost_pages)]
    lines.append("")
    lines.append("seg/paged per-page cost %.3fx (gate < 1.0)"
                 % costs["seg_over_paged"])
    bandwidth = payload["bandwidth"]
    rows = [(regime, "%.2f" % bandwidth[regime]["mbit"],
             str(bandwidth[regime]["pageouts"]))
            for regime in ("seg", "paged")]
    lines.append("")
    lines.append(report.table(
        ["regime", "Mbit/s", "pageouts"], rows,
        title="Sequential read loop, per regime "
              "(seg/paged bandwidth %.1fx)" % bandwidth["seg_over_paged"]))
    multi = payload["multipager"]
    rows = [(name, "%.2f" % multi["calm_mbit"][name],
             "%.2f" % multi["pressure_mbit"][name],
             str(multi["min_allocated"].get(name, "-")))
            for name in sorted(multi["calm_mbit"])]
    lines.append("")
    lines.append(report.table(
        ["domain", "calm Mbit/s", "pressure Mbit/s", "min frames"], rows,
        title="Three pager personalities on one contract, under "
              "revocation waves"))
    lines.append("")
    lines.append("bystander retention %.1f%% (gate >= %.0f%%), multi "
                 "floor %d guaranteed, transfers %s"
                 % (multi["bystander_retention"] * 100,
                    config.retention_floor * 100,
                    multi["guaranteed"], multi["transfers"]))
    lines.append("classic path inert: %s" % payload["classic_path_inert"])
    lines.append("")
    gate_line = "  ".join("%s=%s" % (name, "PASS" if ok else "FAIL")
                          for name, ok in sorted(payload["gates"].items()))
    lines.append("gates: " + gate_line)
    return "\n".join(lines)


def write_payload(payload, out_dir="results"):
    """Write ``regimes.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "regimes.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    """CLI: run the legs, print the tables, write ``regimes.json``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    if smoke:
        argv.remove("--smoke")
    out_dir = "results"
    if "--out" in argv:
        index = argv.index("--out")
        out_dir = argv[index + 1]
        del argv[index:index + 2]
    if argv:
        print("unknown regimes argument(s): %s" % " ".join(argv))
        return 1
    config = smoke_config() if smoke else RegimesConfig()
    payload = run(config)
    print(format_result(payload, config))
    path = write_payload(payload, out_dir=out_dir)
    print()
    print("wrote %s" % path)
    if not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
