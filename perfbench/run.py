"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paging_in --seed 1999 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload (fresh system, same seed) at least
three times and as often as fits in ``--seconds`` of host time, and
reports the end-to-end metrics as medians over the repetitions, with
host times scaled to a nominal host speed by reference laps run beside
the work (see ``calibrate.py``). ``--trace 1`` runs it once untraced
and twice under cProfile and reports the per-layer metrics. Every
metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Any failed
correctness check prints it with ``"correct": false`` and exits with
status 1.
"""

import argparse
import contextlib
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1999
MIN_REPS = 3
TRACED_REPS = 2

#: EXPERIMENTS.md, Figure 7 (benchmark scale): per-pager Mbit/s.
FIG7_MBIT = {"pager-40%": 12.41, "pager-20%": 6.29, "pager-10%": 3.12}
FIG7_TOLERANCE = 0.02
FIG7_BANDS = {"pager-40%": (3.5, 4.5), "pager-20%": (1.7, 2.3)}
MAX_LAX_NS = 10 * 1000 * 1000
FS_MAX_SHORTFALL = 0.05
INMEM_PROGRESS = {"cpu-50%": 5.0, "cpu-30%": 3.0, "cpu-10%": 1.0}
INMEM_TOLERANCE = 0.10


class Checks:
    """Collects correctness verdicts; any failure fails the run."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        print("check %-4s %s" % ("ok" if ok else "FAIL", what))
        if not ok:
            self.failures.append(what)


def run_rep(workload_cls, seed, speedometer=None, profile=None):
    """One repetition: setup, then the window (optionally profiled).

    With a speedometer, reference laps interrupt both; ``host_s`` is
    the window's host time without them, scaled to the nominal host
    speed by the window's laps, and ``setup_s`` the setup's, scaled by
    all the repetition's laps. A profiled repetition runs without laps
    (they would land in its profile) and keeps only the raw times.
    """
    gc.collect()
    clock = time.perf_counter
    work = workload_cls(seed)
    with (speedometer.running() if speedometer is not None
          else contextlib.nullcontext()):
        start = clock()
        work.setup()
        opened = clock()
        if profile is not None:
            profile.enable()
        work.window()
        if profile is not None:
            profile.disable()
        closed = clock()
    result = work.finish()
    result["raw_setup_s"] = opened - start
    result["raw_host_s"] = closed - opened
    if speedometer is not None:
        setup_laps = speedometer.between(start, opened)
        window_laps = speedometer.between(opened, closed)
        result["raw_setup_s"] -= sum(setup_laps)
        result["raw_host_s"] -= sum(window_laps)
        result["speed"] = calibrate.speed(window_laps)
        result["setup_s"] = result["raw_setup_s"] * calibrate.speed(
            setup_laps + window_laps)
        result["host_s"] = result["raw_host_s"] * result["speed"]
    return result


def deterministic_part(result):
    """What must repeat exactly at one seed, traced or not."""
    return json.dumps({key: result[key] for key in
                       ("touches", "attempted", "failed", "sim", "layers")},
                      sort_keys=True)


def check_workload(name, result, checks):
    """The workload's own correctness checks on one repetition."""
    sim = result["sim"]
    checks.expect(result["failed"] == 0,
                  "%d of %d operations failed" % (result["failed"],
                                                   result["attempted"]))
    if name == "paging_in":
        for pager, (low, high) in FIG7_BANDS.items():
            ratio = sim["ratios"][pager]
            checks.expect(low <= ratio <= high, "Figure 7 ratio %s %.3f in "
                          "[%.1f, %.1f]" % (pager, ratio, low, high))
        checks.expect(sim["max_lax_ns"] <= MAX_LAX_NS, "max lax %.3f ms <= "
                      "10 ms" % (sim["max_lax_ns"] / 1e6))
        for pager, paper in FIG7_MBIT.items():
            got = sim["pager_mbit_s"][pager]
            checks.expect(abs(got / paper - 1) <= FIG7_TOLERANCE,
                          "%s %.3f Mbit/s within 2%% of EXPERIMENTS.md "
                          "%.2f" % (pager, got, paper))
    elif name == "fs_isolation":
        checks.expect(sim["fs_shortfall"] <= FS_MAX_SHORTFALL,
                      "FS client shortfall %.4f <= %.2f"
                      % (sim["fs_shortfall"], FS_MAX_SHORTFALL))
        for pager, mbit in sorted(sim["pager_mbit_s"].items()):
            checks.expect(mbit > 0, "%s progresses (%.3f Mbit/s)"
                          % (pager, mbit))
    elif name == "inmem_touch":
        for client, want in INMEM_PROGRESS.items():
            got = sim["progress"][client]
            checks.expect(abs(got / want - 1) <= INMEM_TOLERANCE,
                          "progress %s %.3f within 10%% of %.0f"
                          % (client, got, want))
        faults = result["layers"]["kernel.faults_dispatched"]
        checks.expect(faults == 0, "%d page faults after warm-up" % faults)
    elif name == "mission_mix":
        checks.expect(not sim["failed_missions"], "missions failed: %s"
                      % (sim["failed_missions"] or "none"))


def simulated_lines(name, result):
    """``(metric, value, unit)`` for the simulated end-to-end results."""
    sim = result["sim"]
    lines = [("failed_ratio", result["failed"] / result["attempted"],
              "fraction")]
    if name == "mission_mix":
        return lines + [("missions", result["attempted"], "count")]
    latency = sim["touch_latency_ns"]
    lines += [("sim_mbit_s", sim["sim_mbit_s"], "sim_Mbit/s"),
              ("touch_p50_us", latency["p50"] / 1000, "sim_us")]
    if latency["tail_pct"] is not None:
        lines.append(("touch_p%g_us" % latency["tail_pct"],
                      latency["tail"] / 1000, "sim_us"))
    lines += [("touch_samples", latency["n"], "count"),
              ("guarantee_shortfall", sim["guarantee_shortfall"],
               "fraction")]
    if name == "paging_in":
        lines.append(("paper_ratio_error", sim["paper_ratio_error"],
                      "fraction"))
        for pager, mbit in sorted(sim["pager_mbit_s"].items()):
            lines.append(("%s_mbit_s" % pager.replace("%", "pct"), mbit,
                          "sim_Mbit/s"))
    if name == "fs_isolation":
        lines.append(("fs_mbit_s", sim["fs_mbit_s"], "sim_Mbit/s"))
    return lines


def per_layer(untraced, traced):
    """The per-layer metrics of the spec: counters from one untraced
    repetition, host times from the traced ones (which run without
    reference laps), and traced over untraced window time."""
    metrics = dict(untraced["layers"])
    for step in ("load", "run", "report"):
        metrics["missions.%s_s" % step] = statistics.median(
            rep.get("phase_s", {}).get(step, 0.0) for rep in traced)
    metrics.setdefault("faults.fires", 0)
    layers_by_rep = [rep["profile"] for rep in traced]
    for layer in layers_by_rep[0]:
        metrics["%s.self_s" % layer] = statistics.median(
            rep[layer][0] for rep in layers_by_rep)
        metrics["%s.calls" % layer] = layers_by_rep[0][layer][1]
    metrics["trace.overhead"] = statistics.median(
        rep["raw_host_s"] for rep in traced) / untraced["raw_host_s"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="host seconds to measure for (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("error: no repro package under %s" % source, file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    with open(SPEC) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload_cls = WORKLOADS[args.workload]
    checks = Checks()
    began = time.perf_counter()
    speedometer = calibrate.Speedometer()

    reps = [run_rep(workload_cls, args.seed, speedometer)]
    if args.trace:
        for _ in range(TRACED_REPS):
            profile = cProfile.Profile()
            rep = run_rep(workload_cls, args.seed, profile=profile)
            rep["profile"] = layers.profile_by_layer(
                pstats.Stats(profile).stats)
            reps.append(rep)
    else:
        # Stop before a repetition would run past --seconds.
        while True:
            elapsed = time.perf_counter() - began
            if (len(reps) >= MIN_REPS
                    and elapsed * (len(reps) + 1) / len(reps) > seconds):
                break
            reps.append(run_rep(workload_cls, args.seed, speedometer))
    for index, rep in enumerate(reps):
        if "profile" in rep:
            print("rep %d traced: host seconds %.4f setup, %.4f window"
                  % (index, rep["raw_setup_s"], rep["raw_host_s"]))
        else:
            print("rep %d: setup_s %.4f host_s %.4f (host seconds %.4f and "
                  "%.4f at speed %.3f)" % (
                      index, rep["setup_s"], rep["host_s"],
                      rep["raw_setup_s"], rep["raw_host_s"], rep["speed"]))
    first = reps[0]
    same = all(deterministic_part(rep) == deterministic_part(first)
               for rep in reps[1:])
    checks.expect(same, "simulated metrics and layer counters identical "
                  "over %d repetitions%s" % (len(reps), " (1 untraced, %d "
                                             "traced)" % TRACED_REPS
                                             if args.trace else ""))
    check_workload(args.workload, first, checks)

    untraced = [rep for rep in reps if "profile" not in rep]
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
        "host_s": statistics.median(rep["host_s"] for rep in untraced),
        "touches_per_host_s": statistics.median(
            rep["touches"] / rep["host_s"] for rep in untraced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    for name, value, unit in simulated_lines(args.workload, first):
        units[name] = unit
        values[name] = value
    if args.trace:
        traced = reps[1:]
        calls = [tuple(sorted((k, v[1]) for k, v in rep["profile"].items()))
                 for rep in traced]
        checks.expect(all(c == calls[0] for c in calls),
                      "per-package call counts identical over %d traced "
                      "repetitions" % len(traced))
        values.update(per_layer(first, traced))
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    for name, value in values.items():
        print("%-28s %.6g %s" % (name, value, units[name]))
    bad = [name for name in values if not layers.valid_name(name)]
    checks.expect(not bad, "metric names valid%s" % (": %s" % bad if bad
                                                     else ""))
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in values:
            checks.expect(False, "metric %s measured" % name)
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(json.dumps({"correct": not checks.failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
