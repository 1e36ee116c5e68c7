# Developer convenience targets. See CONTRIBUTING.md.

PYTHON ?= python3

.PHONY: install test bench bench-kernels bench-faults bench-service bench-dse bench-retrieval bench-cluster bench-pin report examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-kernels:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_kernels.py --check

bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fig19_faults.py --check

bench-service:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --check

bench-dse:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_dse.py --check

bench-retrieval:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_retrieval.py --check

bench-cluster:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_cluster.py --check

# Regenerate the four pinned BENCH records and fail if any changed.  A
# make target, not a CI step: the records hold full-precision floats, and
# another Python (3.12's `sum`) or numpy build may change the last bits.
bench-pin:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service.py --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_cluster.py --check
	PYTHONPATH=src $(PYTHON) benchmarks/bench_dse.py --workers 2
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fig19_faults.py --check --workers 2
	git diff --exit-code -- BENCH_service.json BENCH_cluster.json BENCH_dse.json BENCH_faults.json

report: bench
	$(PYTHON) -m repro report --output-dir benchmarks/output --out REPORT.md

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		$(PYTHON) $$ex > /dev/null || exit 1; \
	done; echo "all examples OK"

# Caches and untracked output only: benchmarks/output and REPORT.md are
# tracked, pinned artifacts.
clean:
	rm -rf .pytest_cache .benchmarks .hypothesis benchmarks/perf/results
	-git clean -fq -- benchmarks/output
	find . -name __pycache__ -type d -exec rm -rf {} +
