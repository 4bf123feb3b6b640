"""Run paired benchmark runs of two checkouts, alternating their order.

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (a
``git clone`` or a ``git archive`` extract of each commit). Each pair
runs ``perfbench/run.py --workload W --seed S --trace 0`` once in each,
and the side that goes first alternates: pair 1 runs the parent first,
pair 2 the change, and so on. Every run's final JSON line is stored in
OUT with its ``workload``, ``seed``, ``side`` (``parent`` or
``change``), ``pair`` and ``commit`` (``git rev-parse --short HEAD`` of
a clone, or the directory's name), and OUT is rewritten after every
run, so an interrupted invocation keeps every run it finished. An
existing OUT is extended: its runs are kept, and pairs of the same
workload and seed are numbered on from its last. ``python3
tools/bench_compare.py OUT`` then compares the two sides.

Usage::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--seed S] [--pairs N] --out BENCH_<date>.json
"""

import argparse
import json
import os
import subprocess
import sys

SIDES = ("parent", "change")


def commit_of(checkout):
    """The short commit of a clone, else the directory's name."""
    if os.path.exists(os.path.join(checkout, ".git")):
        return subprocess.run(
            ["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
            check=True, capture_output=True, text=True).stdout.strip()
    return os.path.basename(os.path.normpath(checkout))


def run_once(checkout, workload, seed):
    """One ``perfbench/run.py --trace 0`` run; its final JSON line."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError("%s printed no final JSON line (exit %d):\n%s"
                           % (" ".join(command), proc.returncode,
                              proc.stderr.strip()))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent_dir, args.change_dir)))
    commits = {side: commit_of(path) for side, path in checkouts.items()}
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as handle:
            runs = json.load(handle)
    first = max((run["pair"] for run in runs
                 if (run["workload"], run["seed"])
                 == (args.workload, args.seed)), default=0) + 1
    for pair in range(first, first + args.pairs):
        order = SIDES if (pair - first) % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed)
            record = {"workload": args.workload, "seed": args.seed,
                      "side": side, "commit": commits[side]}
            record.update(result)
            record["pair"] = pair
            runs.append(record)
            with open(args.out, "w") as handle:
                json.dump(runs, handle, indent=1)
                handle.write("\n")
            touches = result.get("metrics", {}).get("touches_per_host_s")
            print("pair %d %-6s correct=%s touches_per_host_s=%s"
                  % (pair, side, result.get("correct"),
                     "%.0f" % touches["value"] if touches else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
