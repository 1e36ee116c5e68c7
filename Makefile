# Developer convenience targets. See CONTRIBUTING.md.

PYTHON ?= python3

.PHONY: install test bench bench-kernels bench-faults bench-service bench-dse bench-retrieval bench-cluster report examples clean

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

report: bench
	$(PYTHON) -m repro report --output-dir benchmarks/output --out REPORT.md

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		$(PYTHON) $$ex > /dev/null || exit 1; \
	done; echo "all examples OK"

clean:
	rm -rf .pytest_cache benchmarks/output REPORT.md
	find . -name __pycache__ -type d -exec rm -rf {} +
