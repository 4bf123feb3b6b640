"""The ``bench`` subcommand: the repository's performance plane.

Not a figure from the paper: this suite measures the *reproduction
itself* — wall-clock cost of the simulator and of the paper's
workloads — so that optimisation claims are judged against recorded
numbers instead of folklore (docs/PERFORMANCE.md documents the
performance model and the "how to not regress" checklist).

Five deterministic benchmarks, macro and micro:

``sim_events``        pure simulator: N processes × M timeout sleeps
                      (every op is one heap entry + one generator resume)
``sim_pingpong``      pure simulator: event trigger/wait round-trips
``fault_roundtrip``   live fault dispatch: protection fault → kernel
                      dispatch → activation → custom handler → retry
``usd_pipeline``      paged stretch driver: sequential faults through
                      USD transactions to the simulated disk
``table1``            wall-clock of the Table 1 microbench suite
``fig7_scale``        wall-clock + event rate of a scaled-down Figure 7
                      paging run (the heaviest macro workload)
``usbs_scaleout``     two streaming self-pagers striped across a
                      four-volume backing store (the multi-volume
                      USBS data path end to end)
``seg_vs_paged``      first-touch fault resolution under both
                      translation regimes (one extent fault vs
                      page-by-page demand-zero), recording each
                      regime's simulated cost alongside wall-clock

Every benchmark performs a fixed, deterministic number of simulated
operations (identical on every host and every run), so ops/sec numbers
are comparable across machines and commits. Wall-clock is measured with
``time.perf_counter`` around ``warmup`` discarded runs and ``reps``
recorded runs; the *best* run is the headline number (least
interference), the mean is recorded alongside.

Output is a schema-versioned ``BENCH_<timestamp>.json`` (written to the
current directory — the repo root under ``make bench``), including the
recorded pre-optimisation baseline and the speedup against it.

Run it with ``python -m repro.exp bench`` (~1 minute) or
``python -m repro.exp bench --smoke`` (single tiny rep, a few seconds,
used by CI).
"""

import json
import os
import platform
import sys
import time

from repro.hw.mmu import AccessKind, FaultCode
from repro.kernel.threads import Compute, Touch
from repro.mm.rights import Rights
from repro.mm.sdriver import FaultOutcome
from repro.sched.atropos import QoSSpec
from repro.sim.core import Simulator
from repro.sim.units import MS, SEC
from repro.system import NemesisSystem

MB = 1024 * 1024

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

# Pre-optimisation reference, measured at commit 5a58e59 (the tree
# before this performance plane landed) with this harness's exact
# parameters and methodology (best of 3 after 1 warmup) on the
# development container. Absolute numbers are host-dependent; the
# recorded speedup is the ratio measured *on one host between two
# commits*, which is the comparison that matters.
# Baseline ops/sec per benchmark (same keys as the suite).
_BASELINE_NUMBERS = {
    "sim_events": 179_249,
    "sim_pingpong": 268_922,
    "fault_roundtrip": 14_462,
    "usd_pipeline": 5_916,
    "table1": None,        # wall-clock benchmarks: baseline is seconds
    "fig7_scale": None,
    "usbs_scaleout": None,  # new with the multi-volume USBS: no baseline
    "seg_vs_paged": None,   # new with repro.regimes: no baseline
}

# Baseline wall-clock seconds for the macro benchmarks.
_BASELINE_SECONDS = {
    "table1": 0.187,
    "fig7_scale": 3.409,
}

BASELINE = {
    "commit": "5a58e59",
    "ops_per_sec": _BASELINE_NUMBERS,
    "seconds": _BASELINE_SECONDS,
}


# ---------------------------------------------------------------------------
# Micro benchmarks: the simulator core alone
# ---------------------------------------------------------------------------

def bench_sim_events(nproc=100, iters=2000):
    """N processes each sleeping M times: the canonical event loop.

    Returns ``(ops, wall_seconds)`` where ops == nproc * iters exactly
    (one timeout event per sleep).
    """
    sim = Simulator()

    def looper():
        for _ in range(iters):
            yield sim.timeout(1000)

    for _ in range(nproc):
        sim.spawn(looper())
    start = time.perf_counter()
    sim.run()
    return nproc * iters, time.perf_counter() - start


def bench_sim_pingpong(pairs=50, iters=2000):
    """Event trigger/wait round-trips (no timeouts on the wait side)."""
    sim = Simulator()

    def pinger():
        for _ in range(iters):
            event = sim.event()
            sim.call_after(500, event.trigger)
            yield event

    for _ in range(pairs):
        sim.spawn(pinger())
    start = time.perf_counter()
    sim.run()
    return pairs * iters, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Macro benchmarks: the live system
# ---------------------------------------------------------------------------

def bench_fault_roundtrip(iterations=500):
    """Protection-fault round-trips through the full dispatch machinery.

    The same shape as the Table 1 ``trap`` benchmark but measured in
    *wall-clock*: fault → kernel dispatch → activation → notification
    handler → custom handler fix-up → thread retry. Observability is
    disabled, exercising the null-metrics fast path. ops == iterations.
    """
    system = NemesisSystem(cpu="unlimited", usd_trace=False, metrics=False)
    app = system.new_app("bench", guaranteed_frames=12)
    stretch = app.new_stretch(4 * system.machine.page_size)
    driver = app.physical_driver(frames=4)
    driver.zero_on_map = False
    app.bind(stretch, driver)
    sid = stretch.sid
    protdom = app.domain.protdom

    def handler(fault):
        protdom.set_rights(sid, Rights.parse("rwm"), hot=True)
        return FaultOutcome.SUCCESS

    app.mmentry.set_fault_handler(FaultCode.PROTECTION, handler)

    def body():
        va = stretch.base
        yield Touch(va, AccessKind.READ)   # settle mapping + assists
        for _ in range(iterations):
            protdom.set_rights(sid, Rights.parse("m"), hot=True)
            yield Compute(0)
            yield Touch(va, AccessKind.READ)

    thread = app.spawn(body(), name="faulter")
    start = time.perf_counter()
    system.sim.run_until_triggered(thread.done, limit=120 * SEC)
    return iterations, time.perf_counter() - start


def bench_usd_pipeline(pages=96, passes=2):
    """Sequential paging through a 2-frame pool: every touch beyond the
    pool faults, evicts and pages in through a USD transaction.

    ops == the number of disk transactions the run performs (pageins +
    pageouts), which is deterministic for a fixed page count.
    """
    system = NemesisSystem(usd_trace=False, metrics=False)
    qos = QoSSpec(period_ns=250 * MS, slice_ns=100 * MS, laxity_ns=10 * MS)
    app = system.new_app("bench", guaranteed_frames=4)
    stretch = app.new_stretch(pages * system.machine.page_size)
    driver = app.paged_driver(frames=2, swap_bytes=2 * MB, qos=qos)
    app.bind(stretch, driver)

    def body():
        for _ in range(passes):
            for va in stretch.pages():
                yield Touch(va, AccessKind.WRITE)

    thread = app.spawn(body(), name="pager")
    start = time.perf_counter()
    system.sim.run_until_triggered(thread.done, limit=600 * SEC)
    wall = time.perf_counter() - start
    ops = driver.pageins + driver.pageouts + driver.zero_fills
    return ops, wall


def bench_usbs_scaleout(volumes=4, stretch_kb=512, measure_sec=1.5):
    """Two streaming self-pagers striped across a multi-volume USBS.

    The multi-volume data path end to end: blok fan-out, per-volume
    USD scheduling, prefetch pipelining against four spindles. The run
    populates both stretches through to swap, then streams for
    ``measure_sec`` of simulated time. ops == the disk transactions
    performed (pageins + pageouts summed over both domains), which is
    deterministic for a fixed config — the op-count assertion in
    :func:`run_benchmark` is the regression net for placement and
    scheduling determinism.
    """
    from repro.apps.pager_app import PagingApplication

    system = NemesisSystem(volumes=volumes, volume_placement="striped")
    period = 25 * MS
    apps = []
    for share in (20, 40):
        qos = QoSSpec(period_ns=period, slice_ns=share * period // 100,
                      extra=False, laxity_ns=2 * MS)
        apps.append(PagingApplication(
            system, "bench-%d" % share, qos, mode="read-loop",
            stretch_bytes=stretch_kb * 1024, driver_frames=16,
            swap_bytes=2 * MB, driver_kind="stream", store="usbs",
            prefetch_depth=8))
    start = time.perf_counter()
    waited = 0
    while not all(app.populated.triggered for app in apps) and waited < 60:
        system.run_for(1 * SEC)
        waited += 1
    system.run_for(int(measure_sec * SEC))
    wall = time.perf_counter() - start
    ops = sum(app.driver.pageins + app.driver.pageouts for app in apps)
    return ops, wall


def bench_seg_vs_paged(pages=64):
    """First-touch fault resolution under both translation regimes.

    Runs Table 1's regime side observation
    (:func:`repro.exp.microbench.seg_vs_paged`): the seg regime
    resolves its whole stretch with one extent fault, the paged regime
    demand-zeroes page by page from a primed pool. ops == total faults
    resolved across both regimes (``pages + 1``), deterministic for a
    fixed page count. The extra payload records each regime's
    *simulated* per-page fault-resolution cost — also deterministic,
    so it doubles as a regression net for the fault path itself,
    independent of host speed.
    """
    from repro.exp.microbench import seg_vs_paged

    start = time.perf_counter()
    costs = seg_vs_paged(pages)
    wall = time.perf_counter() - start
    seg, paged = costs["seg"], costs["paged"]
    extra = {
        "seg_ns_per_page": round(seg["ns_per_page"], 1),
        "paged_ns_per_page": round(paged["ns_per_page"], 1),
        "seg_over_paged": round(costs["seg_over_paged"], 4),
    }
    return seg["faults"] + paged["faults"], wall, extra


def bench_table1(iterations=40):
    """Wall-clock of the Table 1 microbench suite at reduced iterations.

    ops == 1 (this is a wall-clock benchmark; the interesting number is
    seconds per suite run).
    """
    from repro.exp import microbench

    start = time.perf_counter()
    microbench.run(iterations=iterations)
    return 1, time.perf_counter() - start


def bench_fig7_scale(measure_sec=3.0):
    """A scaled-down Figure 7 paging run (three competing self-pagers).

    The heaviest macro workload: three domains, USD scheduling, frame
    revocation, the works. Reports both wall-clock and the simulator
    event rate (events dispatched per wall second). ops == simulated
    events dispatched, which is deterministic for a fixed config.
    """
    from repro.exp.common import run_paging_experiment, small_config

    config = small_config(settle_sec=1.0, measure_sec=measure_sec)
    start = time.perf_counter()
    result = run_paging_experiment("read-loop", config)
    wall = time.perf_counter() - start
    return result.system.sim.events_dispatched, wall


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

#: name -> (callable, kwargs at full scale, kwargs at smoke scale)
SUITE = {
    "sim_events": (bench_sim_events,
                   {"nproc": 100, "iters": 2000},
                   {"nproc": 10, "iters": 200}),
    "sim_pingpong": (bench_sim_pingpong,
                     {"pairs": 50, "iters": 2000},
                     {"pairs": 5, "iters": 200}),
    "fault_roundtrip": (bench_fault_roundtrip,
                        {"iterations": 500},
                        {"iterations": 50}),
    "usd_pipeline": (bench_usd_pipeline,
                     {"pages": 96, "passes": 2},
                     {"pages": 16, "passes": 1}),
    "table1": (bench_table1,
               {"iterations": 40},
               {"iterations": 5}),
    "fig7_scale": (bench_fig7_scale,
                   {"measure_sec": 3.0},
                   {"measure_sec": 0.5}),
    "usbs_scaleout": (bench_usbs_scaleout,
                      {"volumes": 4, "stretch_kb": 512,
                       "measure_sec": 1.5},
                      {"volumes": 4, "stretch_kb": 256,
                       "measure_sec": 0.5}),
    "seg_vs_paged": (bench_seg_vs_paged,
                     {"pages": 64},
                     {"pages": 16}),
}

#: Benchmarks whose headline number is seconds per run, not ops/sec.
WALL_CLOCK = ("table1", "fig7_scale")


def run_benchmark(name, reps=3, warmup=1, smoke=False):
    """Run one benchmark with warmup and repetition.

    Returns a result dict: deterministic op count, every recorded
    wall-clock sample, best/mean seconds, and ops/sec from the best run.
    """
    fn, full_kwargs, smoke_kwargs = SUITE[name]
    kwargs = smoke_kwargs if smoke else full_kwargs
    for _ in range(warmup):
        fn(**kwargs)
    ops = None
    extra = None
    samples = []
    for _ in range(reps):
        # A benchmark returns (ops, wall) or (ops, wall, extra): the
        # optional extra dict carries *simulated* numbers (deterministic
        # like the op count, and asserted to be).
        out = fn(**kwargs)
        run_ops, wall = out[0], out[1]
        run_extra = out[2] if len(out) > 2 else None
        if ops is None:
            ops, extra = run_ops, run_extra
        elif run_ops != ops or run_extra != extra:
            raise AssertionError(
                "benchmark %s is not deterministic: %r/%r then %r/%r"
                % (name, ops, extra, run_ops, run_extra))
        samples.append(wall)
    best = min(samples)
    result = {
        "name": name,
        "params": dict(kwargs),
        "ops": ops,
        "runs_s": [round(s, 6) for s in samples],
        "best_s": round(best, 6),
        "mean_s": round(sum(samples) / len(samples), 6),
        "ops_per_sec": round(ops / best, 1) if best > 0 else None,
        "unit": "s/run" if name in WALL_CLOCK else "ops/s",
    }
    if extra is not None:
        result["extra"] = extra
    return result


def run_suite(reps=3, warmup=1, smoke=False, names=None):
    """Run the whole suite; returns the schema-versioned payload dict."""
    names = list(names or SUITE)
    results = {}
    for name in names:
        results[name] = run_benchmark(name, reps=reps, warmup=warmup,
                                      smoke=smoke)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "config": {
            "reps": reps,
            "warmup": warmup,
            "scale": "smoke" if smoke else "full",
        },
        "results": results,
        "baseline": BASELINE,
    }
    payload["speedup_vs_baseline"] = _speedups(results, smoke=smoke)
    return payload


def _speedups(results, smoke=False):
    """Ratio of measured throughput to the recorded pre-PR baseline.

    Only meaningful at full scale (the baseline was recorded at full
    scale); smoke runs record ``null`` speedups.
    """
    out = {}
    for name, result in results.items():
        baseline_ops = _BASELINE_NUMBERS.get(name)
        baseline_s = _BASELINE_SECONDS.get(name)
        if smoke:
            out[name] = None
        elif baseline_ops is not None and result["ops_per_sec"]:
            out[name] = round(result["ops_per_sec"] / baseline_ops, 2)
        elif baseline_s is not None and result["best_s"]:
            out[name] = round(baseline_s / result["best_s"], 2)
        else:
            out[name] = None
    return out


def write_payload(payload, out_dir=".", timestamp=None):
    """Write ``BENCH_<timestamp>.json``; returns the path."""
    timestamp = timestamp or time.strftime("%Y%m%d_%H%M%S")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_%s.json" % timestamp)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def validate_payload(payload):
    """Check the payload against the v1 schema; raises ValueError.

    Used by the tests and by consumers that read ``BENCH_*.json`` files
    from other commits.
    """
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("schema_version must be %d" % SCHEMA_VERSION)
    for key in ("generated_at", "host", "config", "results", "baseline",
                "speedup_vs_baseline"):
        if key not in payload:
            raise ValueError("missing top-level key %r" % key)
    for name, result in payload["results"].items():
        for key in ("ops", "runs_s", "best_s", "mean_s", "ops_per_sec",
                    "unit", "params"):
            if key not in result:
                raise ValueError("result %r missing key %r" % (name, key))
        if not isinstance(result["ops"], int) or result["ops"] <= 0:
            raise ValueError("result %r has bad op count %r"
                             % (name, result["ops"]))
        if len(result["runs_s"]) != payload["config"]["reps"]:
            raise ValueError("result %r has %d samples for %d reps"
                             % (name, len(result["runs_s"]),
                                payload["config"]["reps"]))
        if abs(min(result["runs_s"]) - result["best_s"]) > 1e-6:
            raise ValueError("result %r best_s does not match samples"
                             % name)
    return True


def format_table(payload):
    """Human-readable summary of one payload."""
    from repro.exp import report

    rows = []
    for name, result in payload["results"].items():
        speedup = payload["speedup_vs_baseline"].get(name)
        if name in WALL_CLOCK:
            headline = "%.2f s/run" % result["best_s"]
        else:
            headline = "%.0f ops/s" % result["ops_per_sec"]
        rows.append((name, "%d" % result["ops"], headline,
                     "%.2fx" % speedup if speedup else "-"))
    title = "Benchmark suite (%s scale, best of %d after %d warmup)" % (
        payload["config"]["scale"], payload["config"]["reps"],
        payload["config"]["warmup"])
    return report.table(
        ["benchmark", "ops/run", "best", "vs pre-PR baseline"],
        rows, title=title)


def main(argv=None):
    """CLI: run the suite, print the table, write ``BENCH_<ts>.json``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    if smoke:
        argv.remove("--smoke")
    reps, warmup, out_dir = (1, 0, ".") if smoke else (3, 1, ".")
    if "--reps" in argv:
        index = argv.index("--reps")
        reps = int(argv[index + 1])
        del argv[index:index + 2]
    if "--out" in argv:
        index = argv.index("--out")
        out_dir = argv[index + 1]
        del argv[index:index + 2]
    if argv:
        print("unknown bench argument(s): %s" % " ".join(argv))
        return 1
    payload = run_suite(reps=reps, warmup=warmup, smoke=smoke)
    path = write_payload(payload, out_dir=out_dir)
    print(format_table(payload))
    print()
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
