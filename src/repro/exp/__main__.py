"""Run the whole evaluation from the command line.

    python -m repro.exp [table1|fig7|fig8|fig9|ablations|all]
    python -m repro.exp report --metrics [--out DIR]
    python -m repro.exp sweep [--smoke] [--lint] [--jobs N] [--out DIR] [NAME ...]
    python -m repro.exp --profile [experiment ...]

Without arguments, everything runs at paper scale (~30 s of wall-clock
on the development container; each module's docstring states its own
expected runtime). Individual experiments accept the same names as
their modules. ``report`` runs the accountability workload and dumps
a JSON metrics snapshot next to the figure outputs (see
:mod:`repro.exp.metrics_report`); ``sweep`` validates and executes the
declarative mission corpus under ``missions/`` across parallel
workers (:mod:`repro.exp.sweep`). Every scenario beyond the paper's
figures (the chaos and pressure storms, crash recovery, integrity,
USBS scale-out, multi-core scaling, the translation-regime ablation)
is a committed mission file, run by naming it: ``python -m repro.exp
sweep smp-scaling``. ``--profile`` wraps the selected experiments in
:mod:`cProfile` and writes a pstats dump per experiment under
``results/`` alongside a printed top-25 by cumulative time. The
simulator's own speed is measured by the repository benchmark,
``perfbench/`` (docs/PERFORMANCE.md).
"""

import cProfile
import os
import pstats
import sys
import time

from repro.exp import (ablations, fig7, fig8, fig9, metrics_report,
                       microbench, sweep)


def _banner(title):
    print()
    print("#" * 72)
    print("# %s" % title)
    print("#" * 72)


def run_table1():
    """Table 1: VM primitive microbenchmarks."""
    _banner("Table 1 — VM primitive microbenchmarks")
    microbench.main()


def run_fig7():
    """Figure 7: progress while paging in."""
    _banner("Figure 7 — paging in")
    fig7.main()


def run_fig8():
    """Figure 8: progress while paging out (dirty write-back)."""
    _banner("Figure 8 — paging out")
    fig8.main()


def run_fig9():
    """Figure 9: file-system isolation from paging clients."""
    _banner("Figure 9 — file-system isolation")
    fig9.main()


def run_ablations():
    """Ablations: laxity, roll-over, crosstalk, external pager."""
    _banner("Ablations")
    ablations.main()


RUNNERS = {
    "table1": run_table1,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "ablations": run_ablations,
}


def _run_profiled(target, out_dir="results"):
    """Run one experiment under cProfile; dump pstats + print a summary."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "profile_%s.pstats" % target)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        RUNNERS[target]()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print()
        print("-- cProfile: top 25 by cumulative time (%s) --" % target)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        print("full pstats dump: %s" % path)


def main(argv):
    """Dispatch to experiments/subcommands; returns a process exit code."""
    argv = list(argv)
    profile = "--profile" in argv
    if profile:
        argv = [arg for arg in argv if arg != "--profile"]
    if argv and argv[0] == "report":
        _banner("Metrics report")
        return metrics_report.main(argv[1:])
    if argv and argv[0] == "sweep":
        _banner("Sweep — declarative mission corpus")
        return sweep.main(argv[1:])
    targets = argv or ["all"]
    if targets == ["all"]:
        targets = list(RUNNERS)
    unknown = [t for t in targets if t not in RUNNERS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown))
        print("choose from: %s, all (also: report, sweep)"
              % ", ".join(RUNNERS))
        print("scenarios are missions: python -m repro.exp sweep NAME")
        return 1
    started = time.time()
    for target in targets:
        if profile:
            _run_profiled(target)
        else:
            RUNNERS[target]()
    print()
    print("done in %.1f s of wall-clock time." % (time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
