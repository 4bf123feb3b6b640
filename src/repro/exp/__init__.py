"""The experiment harness: regenerates every table and figure.

* :mod:`repro.exp.microbench` — Table 1 (dirty, (un)prot1, (un)prot100,
  trap, appel1, appel2; page-table and protection-domain routes).
* :mod:`repro.exp.fig7` — paging-in isolation (sustained bandwidth +
  USD scheduler trace).
* :mod:`repro.exp.fig8` — paging-out isolation.
* :mod:`repro.exp.fig9` — file-system isolation.
* :mod:`repro.exp.ablations` — laxity, roll-over, crosstalk baselines,
  guarded-vs-linear page table.
* :mod:`repro.exp.report` — ASCII rendering of tables and USD
  scheduler traces.

One runner makes every run: ``python -m repro.exp.regenerate`` writes
EXPERIMENTS.md and checks the paper's claims against it, and
``--scale paper`` does the same at the paper's parameters. ``python -m
repro.exp`` runs the ``report`` and ``sweep`` subcommands, and
``python -m repro.exp.export`` writes the figures' data as CSV. All
experiments are deterministic.
"""
