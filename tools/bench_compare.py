"""Compare the two sides of a recorded benchmark run.

FILE is a committed ``BENCH_<date>.json``: a JSON list holding the final
JSON line of every paired ``perfbench/run.py --trace 0`` run, each with
its ``workload``, ``seed``, ``side`` (``parent`` or ``change``), ``pair``
and ``commit``. For each workload, seed and end-to-end metric this
prints each side's median [first quartile, third quartile], the ratio of
the medians (change over parent) and how many pairs the change won,
with "better" taken from BENCHMARK.json.

Usage::

    python3 tools/bench_compare.py BENCH_<date>.json
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def fmt(value):
    """Four significant digits, without an exponent for big values."""
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


def summary(values):
    """``(median, q1, q3)`` of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def compare(runs, better):
    """Table rows ``(workload, seed, metric, parent, change, ratio,
    wins, pairs)`` for every metric both sides measured."""
    groups = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        groups.setdefault(key, {}).setdefault(run["side"], {})[
            run["pair"]] = run["metrics"]
    rows = []
    for (workload, seed), sides in sorted(groups.items()):
        parent, change = sides.get("parent", {}), sides.get("change", {})
        pairs = sorted(set(parent) & set(change))
        for metric in better:
            if not pairs or metric not in parent[pairs[0]]:
                continue
            old = [parent[p][metric]["value"] for p in pairs]
            new = [change[p][metric]["value"] for p in pairs]
            sign = 1 if better[metric] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            ratio = summary(new)[0] / summary(old)[0]
            rows.append((workload, seed, metric, summary(old), summary(new),
                         ratio, wins, len(pairs)))
    return rows


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    with open(args[0]) as handle:
        runs = json.load(handle)
    with open(SPEC) as handle:
        better = {entry["name"]: entry["better"]
                  for entry in json.load(handle)["end_to_end"]}
    row = "%-12s %5s %-19s %-30s %-30s %6s %s"
    print(row % ("workload", "seed", "metric", "parent median [Q1, Q3]",
                 "change median [Q1, Q3]", "ratio", "wins"))
    for workload, seed, metric, old, new, ratio, wins, pairs in compare(
            runs, better):
        cells = ["%s [%s, %s]" % tuple(map(fmt, side)) for side in (old, new)]
        print(row % (workload, seed, metric, cells[0], cells[1],
                     "%.3f" % ratio, "%d/%d" % (wins, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
