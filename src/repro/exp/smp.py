"""The ``smp`` subcommand: multi-core crosstalk and scaling gates.

Not a figure from the paper: Nemesis ran on uniprocessors, and §3's
Atropos scheduler owns a single run queue. This experiment asks what
the paper's Figure 7 isolation claim means on a multi-core platform:
if every core runs its own Atropos instance and domains are placed by
admission control, can a best-effort CPU hog on one core degrade a
guaranteed domain on another — and does aggregate guaranteed CPU
actually scale with cores?

Three legs, all deterministic under the placement seed:

Crosstalk (the Figure 7 analogue, cores instead of frames)
    A guaranteed bystander (60 % of a 10 ms period, no slack) and a
    best-effort hog (50 % guaranteed, ``extra`` — it soaks all slack
    it can reach) on a **two-core** platform. 0.6 + 0.5 > 1.0, so
    first-fit-decreasing placement *must* separate them; the hog
    computes only in the ``storm`` run, so the ``calm`` leg is a true
    hog-less baseline with identical placement. Gates: cores
    separated, and bystander throughput in the storm >=
    ``retention_floor`` (default 95 %) of the calm baseline.

Scaling (cores buy guaranteed CPU)
    Two compute domains at 45 % of a 20 ms period on **one** core,
    then eight identical domains on **four** cores (two per core under
    first-fit-decreasing — a third would need 135 %). Gate: aggregate
    throughput on four cores >= ``min_scaling`` x one core (default
    3x; the ideal is 4x).

Inertness (the classic path is untouched)
    A default single-CPU :class:`~repro.system.NemesisSystem` must
    still build the classic uniprocessor scheduler — no placement
    layer, no per-core accounting — so every single-CPU experiment's
    output stays bit-identical to the pre-SMP tree.

Both workload legs are ordinary missions executed by
:mod:`repro.missions.runner`, each with a determinism repeat leg that
byte-compares the full run payload — including the ``core_of``
placement map and per-core admitted shares — so placement determinism
is gated, not assumed.

Run it with ``python -m repro.exp smp`` (seconds: compute domains need
no swap populate) or ``python -m repro.exp smp --smoke`` (shorter
windows, same gates). Writes ``smp.json`` to ``--out`` (default
``results/``); exits non-zero if any gate fails, at either scale.
"""

import json
import os
import sys
from dataclasses import dataclass

from repro.missions import MISSION_SCHEMA_VERSION, run_mission, validate_mission

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SmpConfig:
    """Everything the legs share; one object so the report can record
    exactly what produced the numbers."""

    # Crosstalk leg: bystander vs best-effort hog on two cores.
    crosstalk_cpus: int = 2
    period_ms: int = 10
    bystander_slice_ms: float = 6.0
    hog_slice_ms: float = 5.0
    # Scaling legs: identical 45 % domains, one core vs four.
    scale_cpus: int = 4
    scale_period_ms: int = 20
    scale_slice_ms: float = 9.0
    scale_per_core: int = 2
    # Shared.
    seed: int = 1999
    settle_sec: float = 1.0
    measure_sec: float = 3.0
    # Gates.
    retention_floor: float = 0.95
    min_scaling: float = 3.0
    smoke: bool = False


def smoke_config():
    """The CI-sized variant: same shape, shorter windows."""
    return SmpConfig(settle_sec=0.5, measure_sec=1.0, smoke=True)


# ---------------------------------------------------------------------------
# Mission construction
# ---------------------------------------------------------------------------

def _compute(name, period_ms, slice_ms, extra=False, active_runs=()):
    """One compute-domain workload entry."""
    out = {"kind": "compute", "name": name, "period_ms": period_ms,
           "slice_ms": slice_ms, "extra": extra}
    if active_runs:
        out["active_runs"] = list(active_runs)
    return out


def build_crosstalk_mission(config):
    """Calm vs storm on two cores, with a determinism repeat leg."""
    domains = [
        _compute("bystander", config.period_ms, config.bystander_slice_ms),
        _compute("hog", config.period_ms, config.hog_slice_ms,
                 extra=True, active_runs=("storm",)),
    ]
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "smp-crosstalk", "family": "smp",
                    "seed": config.seed},
        "topology": {"machine_mb": 8, "cpus": config.crosstalk_cpus},
        "workload": {"domains": domains},
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec},
        "runs": [{"name": "calm"}, {"name": "storm"}],
        "determinism": {"repeat": "storm"},
        "expect": [
            {"check": "crosstalk_contained", "run": "storm",
             "baseline": "calm", "hog": "hog", "domains": ["bystander"],
             "floor": config.retention_floor},
            {"check": "progress", "run": "storm", "domains": ["bystander"]},
        ],
    })


def build_scaling_mission(config, cpus):
    """``scale_per_core`` identical 45 % domains per core on ``cpus``
    cores (both legs run the same per-core load, so the aggregate
    ratio isolates what extra cores buy)."""
    count = config.scale_per_core * cpus
    domains = [_compute("mc-%d" % index, config.scale_period_ms,
                        config.scale_slice_ms)
               for index in range(count)]
    return validate_mission({
        "schema": MISSION_SCHEMA_VERSION,
        "mission": {"name": "smp-scale-%dcpu" % cpus, "family": "smp",
                    "seed": config.seed},
        "topology": {"machine_mb": 8, "cpus": cpus},
        "workload": {"domains": domains},
        "phases": {"settle_sec": config.settle_sec,
                   "measure_sec": config.measure_sec},
        "runs": [{"name": "steady"}],
        "determinism": {"repeat": "steady"},
        "expect": [
            {"check": "progress", "run": "steady",
             "domains": [d["name"] for d in domains]},
        ],
    })


# ---------------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------------

def run_crosstalk(config):
    """The Figure 7 analogue: hog on one core, bystander on another."""
    report = run_mission(build_crosstalk_mission(config))
    calm = report["runs"]["calm"]
    storm = report["runs"]["storm"]
    contained = next(inv for inv in report["invariants"]
                     if inv["check"] == "crosstalk_contained")
    before = calm["mbit"]["bystander"]
    during = storm["mbit"]["bystander"]
    return {
        "core_of": storm["core_of"],
        "cpu_shares": storm["cpu_shares"],
        "calm_mbit": {name: round(value, 2)
                      for name, value in calm["mbit"].items()},
        "storm_mbit": {name: round(value, 2)
                       for name, value in storm["mbit"].items()},
        "bystander_retention": round(during / before, 4) if before else 0.0,
        "hog_core": contained["observed"]["hog_core"],
        "gates": {
            "crosstalk_contained": contained["passed"],
            "crosstalk_deterministic": report["reproducible"],
        },
    }


def run_scaling(config):
    """Aggregate guaranteed CPU, one core vs ``scale_cpus`` cores."""
    legs = {}
    reproducible = True
    for cpus in (1, config.scale_cpus):
        report = run_mission(build_scaling_mission(config, cpus))
        payload = report["runs"]["steady"]
        reproducible = reproducible and report["reproducible"]
        legs[cpus] = {
            "cpus": cpus,
            "domains": len(payload["mbit"]),
            "aggregate_mbit": payload["aggregate_mbit"],
            "cpu_shares": payload["cpu_shares"],
            "core_of": payload["core_of"],
        }
    one, many = legs[1], legs[config.scale_cpus]
    scaling = (many["aggregate_mbit"] / one["aggregate_mbit"]
               if one["aggregate_mbit"] else 0.0)
    return {
        "one_core": one,
        "multi_core": many,
        "scaling": round(scaling, 2),
        "gates": {
            "scaling": scaling >= config.min_scaling,
            "scaling_deterministic": reproducible,
        },
    }


def classic_path_inert():
    """True when a default system still builds the classic
    uniprocessor CPU — no placement layer, no per-core state."""
    from repro.system import NemesisSystem
    system = NemesisSystem()
    return (getattr(system.cpu, "core_map", None) is None
            and getattr(system.cpu, "scheds", None) is None)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def run(config):
    """All legs; returns the schema-versioned payload."""
    crosstalk = run_crosstalk(config)
    scaling = run_scaling(config)
    inert = classic_path_inert()
    gates = {}
    gates.update(crosstalk["gates"])
    gates.update(scaling["gates"])
    gates["classic_path_inert"] = inert
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "crosstalk_cpus": config.crosstalk_cpus,
            "period_ms": config.period_ms,
            "bystander_slice_ms": config.bystander_slice_ms,
            "hog_slice_ms": config.hog_slice_ms,
            "scale_cpus": config.scale_cpus,
            "scale_slice_ms": config.scale_slice_ms,
            "scale_period_ms": config.scale_period_ms,
            "seed": config.seed,
            "measure_sec": config.measure_sec,
            "scale": "smoke" if config.smoke else "full",
        },
        "crosstalk": crosstalk,
        "scaling": scaling,
        "classic_path_inert": inert,
        "gates": gates,
        "passed": all(gates.values()),
    }


def format_result(payload, config):
    """Human-readable tables for one payload."""
    from repro.exp import report

    crosstalk = payload["crosstalk"]
    rows = []
    for name in sorted(crosstalk["calm_mbit"]):
        rows.append((name, "cpu%d" % crosstalk["core_of"][name],
                     "%.2f" % crosstalk["calm_mbit"][name],
                     "%.2f" % crosstalk["storm_mbit"][name]))
    lines = [report.table(
        ["domain", "core", "calm Mbit/s", "storm Mbit/s"], rows,
        title="Crosstalk: best-effort hog vs guaranteed bystander "
              "(%d cores)" % config.crosstalk_cpus)]
    lines.append("")
    lines.append("bystander retention %.1f%% (gate >= %.0f%%)  "
                 "per-core shares %s"
                 % (crosstalk["bystander_retention"] * 100,
                    config.retention_floor * 100,
                    crosstalk["cpu_shares"]))
    scaling = payload["scaling"]
    rows = [("%d core%s" % (leg["cpus"], "s" if leg["cpus"] > 1 else ""),
             str(leg["domains"]), "%.2f" % leg["aggregate_mbit"])
            for leg in (scaling["one_core"], scaling["multi_core"])]
    lines.append("")
    lines.append(report.table(
        ["leg", "domains", "aggregate Mbit/s"], rows,
        title="Scaling: identical 45%% domains, 1 vs %d cores"
              % config.scale_cpus))
    lines.append("")
    lines.append("scaling %.2fx (gate >= %.1fx)  classic path inert: %s"
                 % (scaling["scaling"], config.min_scaling,
                    payload["classic_path_inert"]))
    lines.append("")
    gate_line = "  ".join("%s=%s" % (name, "PASS" if ok else "FAIL")
                          for name, ok in sorted(payload["gates"].items()))
    lines.append("gates: " + gate_line)
    return "\n".join(lines)


def write_payload(payload, out_dir="results"):
    """Write ``smp.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "smp.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    """CLI: run the legs, print the tables, write ``smp.json``."""
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
        print("unknown smp argument(s): %s" % " ".join(argv))
        return 1
    config = smoke_config() if smoke else SmpConfig()
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
