.PHONY: install test bench bench-core bench-solvers bench-sim bench-topo bench-serve bench-scale bench-faults lint experiments examples ci clean

PYTHON ?= python

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-core:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_core.py --out benchmarks/bench_core.json

bench-solvers:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_solvers.py --out benchmarks/bench_solvers.json

bench-sim:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sim.py --out benchmarks/bench_sim.json

bench-topo:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_topo.py --out benchmarks/bench_topo.json

bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py --out benchmarks/bench_serve.json

bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py --jobs 0 --out benchmarks/bench_scale.json

bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py --out benchmarks/bench_faults.json

# Lint via ruff when available (config in pyproject.toml); the runtime
# image ships without it, so the gate degrades to a skip, not a failure.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

experiments:
	$(PYTHON) -m repro.experiments.runall

experiments-paper:
	$(PYTHON) -m repro.experiments.runall --paper

ci: lint
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest perfbench -q
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runall --only fig05 --jobs 2 --seed 7
	PYTHONPATH=src $(MAKE) examples
	PYTHONPATH=src $(PYTHON) benchmarks/bench_core.py --quick --out benchmarks/bench_core.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_solvers.py --quick --out benchmarks/bench_solvers.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sim.py --quick --out benchmarks/bench_sim.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_topo.py --quick --out benchmarks/bench_topo.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py --quick --min-speedup 50 --max-churn-ratio 1.4 --out benchmarks/bench_serve.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py --quick --jobs 2 --sim-packets 1e6 --max-seconds 300 --max-rss-mb 6144 --out benchmarks/bench_scale.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py --quick --max-p99-ms 2000 --out benchmarks/bench_faults.json

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; echo; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
