"""Run a mission corpus across parallel workers: ``repro.exp sweep``.

Discovers every ``*.toml`` under ``missions/`` and ``missions/matrix/``
(or the directories given with ``--missions``), validates the whole
corpus up front (any malformed file aborts the sweep before a single
simulation starts), then executes each mission in a worker process
pool. Each mission's canonical report lands in
``results/missions/<name>.json``; the aggregate — per-mission verdict,
per-invariant failures, injection-audit vacuities, wall-clock — lands
in ``results/sweep.json``. The exit status is non-zero if any mission
FAILs, is vacuous, or is irreproducible. A worker process that dies
outright (segfault, OOM kill) fails only its own mission — the row is
charged ``error: worker_crashed`` and every other mission still runs
on a rebuilt pool. The lone-suspect retry after such a crash is also
*bounded*: the runner's own ``runs.deadline_s`` hang guard only works
while Python bytecode executes, so a retry wedged below it (a stuck
syscall, a C-level loop) is abandoned once the mission's summed
deadlines elapse and charged a canonical ``hung`` report — the sweep
itself never hangs.

Each aggregate row also carries ``rule_fires``: the per-run injection
counts for every rule across all four fault planes (faults,
behaviors, corruptions, crashes), lifted from the report's audit so a
whole-corpus view of injection pressure needs no per-report spelunking.

    python -m repro.exp sweep                 # the full corpus
    python -m repro.exp sweep crash-recovery  # just the named missions
    python -m repro.exp sweep --smoke         # the smoke = true subset
    python -m repro.exp sweep --lint          # validate only, no runs
    python -m repro.exp sweep --jobs 4 --out results

Expected wall-clock: the full 40-mission corpus takes about 60 s at
``--jobs 1`` on a 2-vCPU x86-64 VM (the two full-scale ``scale-*``
missions alone take about 22 s); ``--smoke`` is under 15 s.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.missions import (REPORT_SCHEMA_VERSION, MissionError,
                            load_mission, report_json, run_mission)

#: Bump on incompatible changes to the ``results/sweep.json`` layout.
#: v2: rows gained ``rule_fires``, counts gained ``hung``.
SWEEP_SCHEMA_VERSION = 2

#: Wall-clock slack added to a mission's summed run deadlines before
#: its retry is declared hung: worker spawn, import, report pickling.
RETRY_SLACK_SEC = 30.0

#: Directories searched for mission files, in order.
DEFAULT_DIRS = (os.path.join("missions"),
                os.path.join("missions", "matrix"))


def discover(dirs):
    """Mission file paths under ``dirs`` (non-recursive), sorted by
    file name so the sweep order is stable across machines."""
    paths = []
    for directory in dirs:
        if not os.path.isdir(directory):
            continue
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".toml"):
                paths.append(os.path.join(directory, entry))
    return sorted(paths, key=os.path.basename)


def lint(paths):
    """Validate every mission file; returns (missions, errors) where
    ``errors`` is a list of ``(path, message)`` pairs."""
    missions, errors = [], []
    for path in paths:
        try:
            missions.append((path, load_mission(path)))
        except MissionError as exc:
            errors.append((path, str(exc)))
    return missions, errors


def _worker(path):
    """Worker-process body: run one mission file, return a summary.

    Re-loads the mission in the worker (mission dicts are small, but
    re-loading keeps the task payload a plain path — trivially
    picklable and immune to parent/worker skew).
    """
    started = time.monotonic()
    mission = load_mission(path)
    report = run_mission(mission)
    return {
        "path": path,
        "name": mission["mission"]["name"],
        "family": mission["mission"]["family"],
        "elapsed_sec": round(time.monotonic() - started, 2),
        "report": report,
    }


def _summarise(outcome):
    """One aggregate row from a worker outcome (report stripped down
    to verdicts; the full report is in ``results/missions/``)."""
    report = outcome["report"]
    failed = [{key: value for key, value in inv.items()}
              for inv in report["invariants"] if not inv["passed"]]
    return {
        "name": outcome["name"],
        "family": outcome["family"],
        "path": outcome["path"],
        "elapsed_sec": outcome["elapsed_sec"],
        "passed": report["passed"],
        "reproducible": report["reproducible"],
        "vacuous": report["audit"]["vacuous"],
        "invariants_failed": failed,
        "rule_fires": _rule_fires(report),
        "error": None,
    }


def _retry_budget(path):
    """Wall-clock budget (seconds) for one mission's lone retry: the
    sum of every run's ``deadline_s`` (the determinism repeat run is
    charged twice — it executes twice) plus fixed slack. This is the
    outer bound on a run-away worker; the in-worker hang guard fires
    far earlier whenever Python is still executing."""
    mission = load_mission(path)
    budget = sum(run["deadline_s"] for run in mission["runs"])
    repeat = mission["determinism"]["repeat"]
    for run in mission["runs"]:
        if run["name"] == repeat:
            budget += run["deadline_s"]
    return budget + RETRY_SLACK_SEC


def _hung_report(mission, budget):
    """The canonical FAIL report for a mission whose retry blew its
    wall-clock budget *outside* the runner's own hang guard. Mirrors
    :meth:`MissionRunner.run`'s hung shape; ``error.run`` is null
    because the parent cannot know which run wedged."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "mission": dict(mission["mission"]),
        "runs": {},
        "invariants": [],
        "audit": {"passed": False, "fired": {}, "vacuous": []},
        "error": {"reason": "hung", "run": None, "deadline_s": budget},
        "reproducible": None,
        "passed": False,
    }


def _hung_row(path, budget):
    """The aggregate row for a mission whose retry was abandoned after
    ``budget`` seconds of wall-clock: a FAIL with reason ``hung``."""
    mission = load_mission(path)
    return {
        "name": mission["mission"]["name"],
        "family": mission["mission"]["family"],
        "path": path,
        "elapsed_sec": round(budget, 2),
        "passed": False,
        "reproducible": None,
        "vacuous": [],
        "invariants_failed": [],
        "rule_fires": {},
        "error": "hung",
    }


def _crash_row(path):
    """The aggregate row for a mission whose worker process died (a
    hard crash — segfault, OOM kill — not a Python exception). The
    mission is charged a FAIL with reason ``worker_crashed``; name and
    family come from re-loading the (already linted) file in-parent."""
    mission = load_mission(path)
    return {
        "name": mission["mission"]["name"],
        "family": mission["mission"]["family"],
        "path": path,
        "elapsed_sec": 0.0,
        "passed": False,
        "reproducible": None,
        "vacuous": [],
        "invariants_failed": [],
        "rule_fires": {},
        "error": "worker_crashed",
    }


def _rule_fires(report):
    """Per-run, per-plane rule fire counts from the report's audit,
    with silent planes stripped: ``{run: {plane: {rule_index: n}}}``.
    Missing ``counts`` (a pre-v2 report) collapses to ``{}``."""
    fires = {}
    for run_name, fired in report["audit"]["fired"].items():
        counts = {plane: mapping
                  for plane, mapping in fired.get("counts", {}).items()
                  if mapping}
        if counts:
            fires[run_name] = counts
    return fires


def _execute(paths, jobs, worker, budget=_retry_budget):
    """Run ``worker`` over ``paths`` on a process pool, surviving
    worker crashes. A dead worker poisons every future still queued on
    the broken pool, so each poisoned mission is retried alone in a
    fresh single-worker pool: innocent bystanders complete on the
    retry, and only missions that kill their own private pool are
    tagged as crashers. The retry is additionally bounded by the
    mission's summed ``deadline_s`` budget (``budget`` is injectable
    for tests): a worker wedged below the runner's in-process hang
    guard is abandoned — its orphan process is disowned, not joined —
    and tagged as hung. Returns ``(outcomes, crashed, hung)`` where
    ``hung`` is a list of ``(path, budget_sec)``."""
    outcomes, suspects, crashed, hung = {}, [], [], []
    if jobs > 1 and len(paths) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {path: pool.submit(worker, path) for path in paths}
            for path, future in futures.items():
                try:
                    outcomes[path] = future.result()
                except BrokenProcessPool:
                    suspects.append(path)
        for path in suspects:
            seconds = budget(path)
            pool = ProcessPoolExecutor(max_workers=1)
            try:
                outcomes[path] = pool.submit(worker, path).result(
                    timeout=seconds)
            except BrokenProcessPool:
                crashed.append(path)
            except FutureTimeout:
                hung.append((path, seconds))
                # Abandon the wedged worker: cancel anything queued
                # and return without joining the stuck process —
                # pool.shutdown(wait=True) would hang the sweep on
                # exactly the condition this path exists to contain.
                pool.shutdown(wait=False, cancel_futures=True)
                continue
            pool.shutdown()
    else:
        for path in paths:
            outcomes[path] = worker(path)
    return ([outcomes[path] for path in paths if path in outcomes],
            crashed, hung)


def sweep(paths, jobs, out_dir, worker=_worker, budget=_retry_budget):
    """Run every mission in ``paths`` on ``jobs`` workers; write the
    per-mission reports and the aggregate; return the aggregate.
    ``worker`` is injectable so tests can stand in a crashing body;
    ``budget`` so they can stand in a tiny retry deadline."""
    report_dir = os.path.join(out_dir, "missions")
    os.makedirs(report_dir, exist_ok=True)
    started = time.monotonic()
    rows = []
    outcomes, crashed, hung = _execute(paths, jobs, worker, budget)
    for outcome in outcomes:
        with open(os.path.join(report_dir, "%s.json" % outcome["name"]),
                  "w", encoding="utf-8") as fh:
            fh.write(report_json(outcome["report"]))
        rows.append(_summarise(outcome))
    rows.extend(_crash_row(path) for path in crashed)
    for path, seconds in hung:
        # The hung mission still gets a canonical (FAIL) report on
        # disk, so downstream consumers never special-case a gap.
        row = _hung_row(path, seconds)
        mission = load_mission(path)
        with open(os.path.join(report_dir, "%s.json" % row["name"]),
                  "w", encoding="utf-8") as fh:
            fh.write(report_json(_hung_report(mission, seconds)))
        rows.append(row)
    rows.sort(key=lambda row: row["name"])
    aggregate = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "jobs": jobs,
        "missions": rows,
        "counts": {
            "total": len(rows),
            "passed": sum(1 for row in rows if row["passed"]),
            "failed": sum(1 for row in rows if not row["passed"]),
            "vacuous": sum(1 for row in rows if row["vacuous"]),
            "crashed": len(crashed),
            "hung": len(hung),
        },
        "elapsed_sec": round(time.monotonic() - started, 2),
        "passed": all(row["passed"] for row in rows),
    }
    with open(os.path.join(out_dir, "sweep.json"), "w",
              encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return aggregate


def format_aggregate(aggregate):
    """Human-readable sweep summary."""
    lines = ["Mission sweep — %d workers" % aggregate["jobs"], ""]
    for row in aggregate["missions"]:
        verdict = "PASS" if row["passed"] else "FAIL"
        lines.append("  %-40s %s  (%.1f s)"
                     % (row["name"], verdict, row["elapsed_sec"]))
        if row["error"]:
            lines.append("      %s" % row["error"])
            continue
        for inv in row["invariants_failed"]:
            lines.append("      invariant failed: %s %s"
                         % (inv["check"], json.dumps(inv["observed"])))
        for vacuity in row["vacuous"]:
            lines.append("      vacuous: %s" % vacuity)
        if row["reproducible"] is False:
            lines.append("      NOT reproducible")
    counts = aggregate["counts"]
    lines.append("")
    lines.append("%d/%d passed (%d vacuous) in %.1f s — %s"
                 % (counts["passed"], counts["total"], counts["vacuous"],
                    aggregate["elapsed_sec"],
                    "PASS" if aggregate["passed"] else "FAIL"))
    return "\n".join(lines)


def main(argv=None):
    """CLI entrypoint; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.exp sweep",
        description="run the declarative mission corpus")
    parser.add_argument("--smoke", action="store_true",
                        help="only missions marked smoke=true")
    parser.add_argument("--lint", action="store_true",
                        help="validate the corpus and exit")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (default: CPU count, "
                             "capped at 8)")
    parser.add_argument("--out", default="results",
                        help="output directory (default: results)")
    parser.add_argument("--missions", action="append", default=None,
                        metavar="DIR",
                        help="mission directory (repeatable; default: "
                             "missions/ and missions/matrix/)")
    parser.add_argument("names", nargs="*",
                        help="run only these mission names")
    args = parser.parse_args(argv)

    paths = discover(args.missions or DEFAULT_DIRS)
    if not paths:
        print("no mission files found")
        return 1
    missions, errors = lint(paths)
    for path, message in errors:
        print("INVALID %s: %s" % (path, message))
    if errors:
        return 1
    print("%d mission files validated" % len(missions))
    if args.lint:
        return 0

    selected = missions
    if args.smoke:
        selected = [(p, m) for p, m in selected if m["mission"]["smoke"]]
    if args.names:
        wanted = set(args.names)
        selected = [(p, m) for p, m in selected
                    if m["mission"]["name"] in wanted]
        missing = wanted - {m["mission"]["name"] for _, m in selected}
        if missing:
            print("unknown mission(s): %s" % ", ".join(sorted(missing)))
            return 1
    if not selected:
        print("no missions selected")
        return 1
    jobs = args.jobs or min(os.cpu_count() or 1, 8)
    jobs = max(1, min(jobs, len(selected)))
    print("running %d missions on %d workers..." % (len(selected), jobs))
    aggregate = sweep([p for p, _ in selected], jobs, args.out)
    print()
    print(format_aggregate(aggregate))
    print()
    print("aggregate: %s" % os.path.join(args.out, "sweep.json"))
    return 0 if aggregate["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
