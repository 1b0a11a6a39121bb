# Build/verify entry points. The tree ships no third-party runtime deps;
# everything runs with PYTHONPATH=src and the stock python toolchain.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

SMOKE_DIR := $(or $(TMPDIR),/tmp)/bside-smoke

.PHONY: test bench bench-gate eval-gate bench-service-scale service-gate incremental-gate perfbench-selftest lint smoke smoke-service docs-check clean

## tier-1: the suite the driver enforces (ROADMAP.md)
test:
	$(PYTHON) -m pytest -x -q

## regenerate every paper table/figure + timing stats (benchmarks/results/)
## (bench_*.py does not match pytest's default test_*.py file pattern)
bench:
	$(PYTHON) -m pytest benchmarks/ -q -o python_files="test_*.py bench_*.py"

## The four gates below are aliases of `tools/gate.py WORKLOAD`, one row
## each of the gate table in src/repro/perf/gate.py; a run with
## --record LABEL appends to the trajectory only when the gate passes.

## cold-kernel perf gate (`tools/gate.py cold`): re-measure and compare
## against the committed BENCH_cold_kernel.json trajectory (fails on >15%
## normalized cold-path regression, or if the speedup vs the
## pre-optimization baseline drops below 3x); see docs/performance.md.
## BENCH_GATE_FLAGS widens the margins (--max-regression,
## --min-speedup) where runs are cross-machine/cross-interpreter (CI).
bench-gate:
	$(PYTHON) tools/gate.py cold $(BENCH_GATE_FLAGS)

## accuracy gate (`tools/gate.py accuracy`): re-run the paper's §5
## evaluation (fixed scale/seed, fully deterministic) and compare against
## the committed BENCH_eval_accuracy.json trajectory (fails if B-Side's
## recall drops below the recorded baseline, if any validation app shows
## a false negative, or if a baseline tool's F1 beats B-Side's); see
## docs/evaluation.md.
eval-gate:
	$(PYTHON) tools/gate.py accuracy $(EVAL_GATE_FLAGS)

## measure the distributed tier without gating: the full-size load
## generator (per-tier cold/warm table into benchmarks/results/); it
## never touches the trajectory (use tools/gate.py service --record
## LABEL to append an entry after deliberate service work)
bench-service-scale:
	$(PYTHON) -m pytest benchmarks/bench_service_scale.py -q \
		-o python_files="test_*.py bench_*.py"

## service-scale gate (`tools/gate.py service`): drive the distributed
## tier (asyncio front end + 1/2/4 lease-claiming worker processes over
## real sockets) with the deterministic small-scale load profile and
## compare against the committed BENCH_service_scale.json trajectory
## (fails on >15% normalized warm-p99 regression or throughput drop vs
## the latest entry, or if max-tier steady-state throughput falls below
## 3x the 1-worker cold throughput); see docs/performance.md.
service-gate:
	$(PYTHON) tools/gate.py service $(SERVICE_GATE_FLAGS)

## incremental-rebuild gate (`tools/gate.py incremental`): mutate 3
## functions of a ~400-function binary and re-analyze it through the
## funccfg cache; fails if more than 5% of the partition or of the
## identification sites is re-analyzed, or if the incremental report
## differs from the cold report of the same mutated bytes (compared
## against BENCH_incremental.json); see docs/performance.md.
incremental-gate:
	$(PYTHON) tools/gate.py incremental $(INCREMENTAL_GATE_FLAGS)

## repository-benchmark self-tests (perfbench/, ~15 s): BENCHMARK.json
## matches the metric tables, each workload runs small traced and
## untraced with equal outputs, and every function the tracer patches
## (e.g. build_cfg, scan_image, detect_wrapper as attributes of
## repro.core.pipeline) still exists there, so a rename fails here
## before it silently zeroes a benchmark layer
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

## fast syntax/bytecode check (no third-party linters in this
## environment); tools/ too, so a broken gate fails here, not at its CI step
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	$(PYTHON) -m pytest --collect-only -q >/dev/null

## end-to-end: generate a tiny corpus, fleet-analyze it cold, then warm.
## `bside fleet` exits 1 when some binaries fail analysis (docs/cli.md);
## the corpus includes budget-exceeding binaries by design, so the smoke
## accepts 0 or 1 and only fails on real errors (exit >= 2).
smoke:
	rm -rf $(SMOKE_DIR)
	$(PYTHON) -m repro.cli corpus generate $(SMOKE_DIR)/corpus --scale 0.04
	$(PYTHON) -m repro.cli fleet $(SMOKE_DIR)/corpus/bin \
		--libdir $(SMOKE_DIR)/corpus/lib \
		--cache-dir $(SMOKE_DIR)/cache --workers 2 || test $$? -eq 1
	@echo "--- warm run ---"
	$(PYTHON) -m repro.cli fleet $(SMOKE_DIR)/corpus/bin \
		--libdir $(SMOKE_DIR)/corpus/lib \
		--cache-dir $(SMOKE_DIR)/cache --workers 2 || test $$? -eq 1
	@echo "--- tool comparison (repro.eval) ---"
	$(PYTHON) examples/compare_tools.py
	rm -rf $(SMOKE_DIR)

## end-to-end: drive the service API (spins an ephemeral in-process
## daemon, submits cold + warm + inline jobs, checks derived artifacts)
smoke-service:
	$(PYTHON) examples/service_client.py

## docs invariants: relative links resolve, every CLI subcommand and
## flag is documented in docs/cli.md, quickstart walkthrough in sync
docs-check:
	$(PYTHON) tools/check_docs.py

clean:
	rm -rf benchmarks/results $(SMOKE_DIR)
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
