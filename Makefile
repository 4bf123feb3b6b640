PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test report sweep sweep-smoke missions-lint \
    experiments-drift lint docs-lint

# The tier-1 suite: the repo's acceptance bar. It collects every test
# under tests/, the observability tests included.
verify: test

test:
	$(PYTHON) -m pytest -x -q

# Accountability workload + JSON metrics snapshot (results/metrics.json).
report:
	$(PYTHON) -m repro.exp report --metrics

# Declarative mission corpus (missions/ + missions/matrix/) across
# parallel workers; per-mission reports in results/missions/, the
# aggregate in results/sweep.json. Every scenario (chaos, pressure,
# crash recovery, integrity, USBS scale-out, multi-core scaling, the
# translation regimes, the matrix) is a mission here; run one with
# `python -m repro.exp sweep NAME`. `sweep-smoke` runs only the
# missions marked smoke = true, for a quick local check;
# `missions-lint` validates the whole corpus without running a single
# simulation.
sweep:
	$(PYTHON) -m repro.exp sweep

sweep-smoke:
	$(PYTHON) -m repro.exp sweep --smoke --jobs 4

missions-lint:
	$(PYTHON) -m repro.exp sweep --lint

# EXPERIMENTS.md must be exactly what the code produces: regenerate it
# into a scratch file (about 11 s) and fail on any drift. Regeneration
# also checks the paper's claims against the same runs and fails,
# naming each claim, if one does not hold.
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
	    src/repro/regimes src/repro/sched src/repro/kernel src/repro/faults \
	    src/repro/apps src/repro/hw src/repro/baseline src/repro/mm \
	    src/repro/obs src/repro/system.py src/repro/__init__.py
