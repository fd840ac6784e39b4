# Convenience targets for the NewsWire reproduction.

PYTHON ?= python
# Every target runs from the checkout's src/, installed or not.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test test-fast test-quick lint fuzz fuzz-routing bench bench-selftest bench-sweep sweep experiments experiments-quick report profile examples live clean

install:
	pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/integration

test-quick:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

# Same command CI runs; skips gracefully where ruff isn't installed.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests examples; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Randomized scenarios under the protocol invariant suite; failing
# seeds are shrunk into replayable files under fuzz-repros/
# (docs/TESTKIT.md).  Same budget as the CI fuzz-smoke job.
fuzz:
	$(PYTHON) -m repro.testkit.fuzz --seeds 25 --quick --keep-going

# The routing profile: every scenario runs a stabilizing scheme under
# a churn storm plus summary corruption, and must reconverge
# (routing-stabilizes; docs/ROUTING.md).
fuzz-routing:
	$(PYTHON) -m repro.testkit.fuzz --seeds 25 --quick --keep-going \
		--profile routing

# The one benchmark: five named workloads, end-to-end and per-layer
# metrics, oracle-checked (bench/README.md).  Gate a change with
# `python3 bench/run.py --compare A B` on two saved runs.
bench:
	python3 bench/run.py

# The benchmark's self-tests at smoke sizes, traced runs of every
# workload included (same command as CI's bench-smoke job).  Run it
# after changing any function bench/layers.py wraps.
bench-selftest:
	$(PYTHON) -m pytest bench/ -q

# One-worker vs two-worker wall time on the quick sweeps, both through
# the same run path, printed as a table (speedup scales with physical
# cores; docs/PARALLEL.md).
bench-sweep:
	$(PYTHON) -m repro.parallel.bench_sweep

# The decomposable sweeps with their cells fanned out over two worker
# processes — output is byte-identical to --workers 1 (docs/PARALLEL.md).
# Same command as the CI parallel-sweep job.
sweep:
	$(PYTHON) -m repro.experiments e2 e5 e7 --quick --workers 2 --check-invariants

experiments:
	$(PYTHON) -m repro.experiments

experiments-quick:
	$(PYTHON) -m repro.experiments --quick

# Causal dissemination report on the report-capable experiments
# (critical paths, hop counts, loss attribution; docs/OBSERVABILITY.md).
report:
	$(PYTHON) -m repro.experiments e2 e11 --quick --report

# Flight recorder on a quick E2: per-category dispatch wall-time table
# plus metric time series, written under profile/ — results are
# byte-identical with profiling on or off (docs/OBSERVABILITY.md).
profile:
	$(PYTHON) -m repro.experiments e2 --quick --profile --profile-dir profile

# 50 live UDP nodes across 4 worker processes on localhost; fails
# under 99% delivery or without duplicate suppression (docs/RUNTIME.md).
live:
	$(PYTHON) -m repro.live --nodes 50

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/wire_service.py
	$(PYTHON) examples/astrolabe_monitoring.py
	$(PYTHON) examples/breaking_news_resilience.py
	$(PYTHON) examples/slashdot_day.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
