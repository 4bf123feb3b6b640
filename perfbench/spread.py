"""Run one workload under several seeds and report each end-to-end
metric's median, quartiles and spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload paging_in --runs 10 --first-seed 101

Each run is a fresh ``perfbench/run.py --trace 0`` process, one at a
time. The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median; a workload is
steady when every spread but ``setup_s``'s is well inside its bound in
``BENCHMARK.json``. ``--out`` also writes the figures as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    """Median, quartiles and spread of one metric's run values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            sys.stderr.write(done.stdout + done.stderr)
            print("seed %d failed (exit %d)" % (seed, done.returncode))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d  %s" % (seed, "  ".join(
            "%s %.5g" % (name, metric["value"])
            for name, metric in result["metrics"].items())), flush=True)

    summary = {}
    for name, series in values.items():
        summary[name] = dict(summarise(series), unit=units[name])
        print("%-20s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.4f "
              "(bound %.2f)" % (name, summary[name]["median"],
                                summary[name]["q1"], summary[name]["q3"],
                                summary[name]["spread"], bounds[name]))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "seeds": [args.first_seed, args.first_seed
                                 + args.runs - 1], "end_to_end": summary},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
