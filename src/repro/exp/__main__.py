"""The ``report`` and ``sweep`` subcommands.

    python -m repro.exp report --metrics [--out DIR]
    python -m repro.exp sweep [--smoke] [--lint] [--jobs N] [--out DIR] [NAME ...]

``report`` runs the accountability workload and dumps a JSON metrics
snapshot (see :mod:`repro.exp.metrics_report`); ``sweep`` validates
and executes the declarative mission corpus under ``missions/`` across
parallel workers (:mod:`repro.exp.sweep`). Every scenario beyond the
paper's figures (the chaos and pressure storms, crash recovery,
integrity, USBS scale-out, multi-core scaling, the translation-regime
ablation) is a committed mission file, run by naming it: ``python -m
repro.exp sweep smp-scaling``. The paper's own experiments (Table 1,
Figures 7-9, the ablations) have one runner,
:mod:`repro.exp.regenerate`, which also checks the paper's claims.
The simulator's own speed is measured by the repository benchmark,
``perfbench/`` (docs/PERFORMANCE.md).
"""

import sys

from repro.exp import metrics_report, sweep

USAGE = """\
usage: python -m repro.exp report --metrics [--out DIR]
       python -m repro.exp sweep [--smoke] [--lint] [--jobs N] [--out DIR] [NAME ...]
the paper's experiments: python -m repro.exp.regenerate [--scale paper]"""


def _banner(title):
    print()
    print("#" * 72)
    print("# %s" % title)
    print("#" * 72)


def main(argv):
    """Dispatch to a subcommand; returns a process exit code."""
    argv = list(argv)
    if argv and argv[0] == "report":
        _banner("Metrics report")
        return metrics_report.main(argv[1:])
    if argv and argv[0] == "sweep":
        _banner("Sweep — declarative mission corpus")
        return sweep.main(argv[1:])
    print(USAGE)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
