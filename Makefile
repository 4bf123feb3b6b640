PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test obs report bench bench-smoke smp smp-smoke regimes \
    regimes-smoke sweep sweep-smoke missions-lint experiments-drift lint \
    docs-lint

# Tier-1 suite (the repo's acceptance bar) + the observability tests.
verify: test obs

test:
	$(PYTHON) -m pytest -x -q

obs:
	$(PYTHON) -m pytest -q tests/test_obs_metrics.py \
	    tests/test_obs_instrumentation.py \
	    tests/test_properties_sched.py \
	    tests/test_sim_trace_units.py

# Accountability workload + JSON metrics snapshot (results/metrics.json).
report:
	$(PYTHON) -m repro.exp report --metrics

# Performance plane: the full benchmark suite (warmup + 3 reps, a few
# minutes) writing a schema-versioned BENCH_<timestamp>.json at the
# repo root. `bench-smoke` is the CI variant: 1 rep, no warmup,
# scaled-down workloads — validates the harness, not the numbers.
bench:
	$(PYTHON) -m repro.exp bench

bench-smoke:
	$(PYTHON) -m repro.exp bench --smoke

# Multi-core crosstalk-containment + core-scaling experiment
# (results/smp.json; gates enforced — full scale runs in seconds, so
# CI runs it unreduced). `smp-smoke` runs shorter windows, same gates.
smp:
	$(PYTHON) -m repro.exp smp

smp-smoke:
	$(PYTHON) -m repro.exp smp --smoke

# Translation-regime ablation: seg vs paged fault cost and bandwidth,
# plus the per-stretch multi-pager registry under revocation waves
# (results/regimes.json; gates enforced). `regimes-smoke` is the CI
# variant: shorter windows, same gates.
regimes:
	$(PYTHON) -m repro.exp regimes

regimes-smoke:
	$(PYTHON) -m repro.exp regimes --smoke

# Declarative mission corpus (missions/ + missions/matrix/) across
# parallel workers; per-mission reports in results/missions/, the
# aggregate in results/sweep.json. Every scenario (chaos, pressure,
# crash recovery, integrity, USBS scale-out, the matrix) is a mission
# here; run one with `python -m repro.exp sweep NAME`. `sweep-smoke`
# runs only the missions marked smoke = true, for a quick local check;
# `missions-lint` validates the whole corpus without running a single
# simulation.
sweep:
	$(PYTHON) -m repro.exp sweep

sweep-smoke:
	$(PYTHON) -m repro.exp sweep --smoke --jobs 4

missions-lint:
	$(PYTHON) -m repro.exp sweep --lint

# EXPERIMENTS.md must be exactly what the code produces: regenerate it
# into a scratch file (about 20 s) and fail on any drift.
experiments-drift:
	$(PYTHON) -m repro.exp.regenerate $${TMPDIR:-/tmp}/experiments-drift.md
	diff -u EXPERIMENTS.md $${TMPDIR:-/tmp}/experiments-drift.md

lint:
	$(PYTHON) -m compileall -q src

# Docstring-coverage gate (dependency-free interrogate stand-in).
docs-lint:
	$(PYTHON) tools/docstring_lint.py --threshold 90 src/repro/sim \
	    src/repro/exp src/repro/usd src/repro/usbs src/repro/missions \
	    src/repro/supervise src/repro/integrity src/repro/place \
	    src/repro/regimes
