# Convenience targets for the repro project.

.PHONY: install test bench bench-smoke bench-json bench-engine-json bench-parallel-json bench-matview-json bench-sharding-json bench-store-json examples lint check-docs trace-smoke serve-smoke matview-smoke store-smoke verify check all

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Fast benchmark sanity pass (seconds, not minutes): a single round of
# the suites that sweep the full pipeline, the evaluator hot path, and
# the fault-tolerant transport (happy-path overhead gate + resilience
# ladder), GC off so one-round timings are not noise-dominated.  Part
# of `make check`.
bench-smoke:
	pytest benchmarks/bench_quality.py benchmarks/bench_lint.py \
		benchmarks/bench_evaluator.py benchmarks/bench_faults.py \
		benchmarks/bench_obs.py benchmarks/bench_parallel.py \
		benchmarks/bench_matview.py benchmarks/bench_sharding.py \
		benchmarks/bench_store.py -q \
		--benchmark-only --benchmark-disable-gc \
		--benchmark-min-rounds=1 --benchmark-warmup=off

# Full benchmark run exported to JSON, then compared against the
# committed pre-kernel baseline (median speedups + extra_info
# reproduction-fact equality); writes the BENCH_PR2.json trajectory
# file.  See docs/PERFORMANCE.md.
bench-json:
	pytest benchmarks/ -q --benchmark-only \
		--benchmark-json=.bench_current.json
	python benchmarks/compare_bench.py compare \
		--baseline benchmarks/baseline_prekernel.json \
		--current .bench_current.json \
		--output BENCH_PR2.json \
		--require-speedup 3 --require-count 2

# The PR3 evaluator gate: run the evaluator benches on the compiled
# engine and compare them with the committed pre-engine baseline (the
# backtracking evaluator's run of the same file) -- median speedups
# plus reproduction-fact equality, at least 3 benches >= 3x.  Writes
# the BENCH_PR3.json trajectory file.  See docs/PERFORMANCE.md.
bench-engine-json:
	pytest benchmarks/bench_evaluator.py -q \
		--benchmark-only --benchmark-disable-gc \
		--benchmark-json=.bench_engine_compiled.json
	python benchmarks/compare_bench.py compare \
		--baseline benchmarks/baseline_preengine.json \
		--current .bench_engine_compiled.json \
		--output BENCH_PR3.json \
		--require-speedup 3 --require-count 3

# The merge-only gates: run one benchmark suite and write its
# trajectory file (the gates themselves live in the suite).  See
# docs/PERFORMANCE.md, docs/SHARDING.md and docs/PERSISTENCE.md.
#   parallel  BENCH_PR7.json   inline overhead < 5%, 4-source fan-out
#                              <= 1.3x the slowest source, serve
#                              throughput
#   matview   BENCH_PR8.json   warm hit >= 20x cold, delta >= 3x full
#                              recompute
#   sharding  BENCH_PR9.json   prune correctness at every rung of a
#                              1 -> 64 shard ladder, best rung >= 3x
#   store     BENCH_PR10.json  stored == in-memory answers, cold
#                              reopen >= 5x parse+index, sweep bounded
#                              by the page budget
bench-parallel-json: BENCH_OUT = BENCH_PR7.json
bench-matview-json: BENCH_OUT = BENCH_PR8.json
bench-sharding-json: BENCH_OUT = BENCH_PR9.json
bench-store-json: BENCH_OUT = BENCH_PR10.json
bench-parallel-json bench-matview-json bench-sharding-json bench-store-json: bench-%-json:
	pytest benchmarks/bench_$*.py -q --benchmark-only \
		--benchmark-disable-gc \
		--benchmark-json=.bench_$*.json
	python benchmarks/compare_bench.py merge .bench_$*.json \
		--output $(BENCH_OUT)

# Static checks: ruff + mypy --strict (each skipped with a notice when
# not installed -- offline images may lack them), then `repro lint`
# over the example workloads.  The paper workload contains a
# deliberately dead query, so its expected exit code is 1.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo "== ruff"; ruff check src tests benchmarks || exit 1; \
	else echo "== ruff not installed, skipping"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		echo "== mypy --strict (repro.lint)"; mypy || exit 1; \
	else echo "== mypy not installed, skipping"; fi
	@echo "== repro lint --workload bibdb (expect clean)"
	@python -m repro lint --workload bibdb
	@echo "== repro lint --workload paper (expect the q-dead error)"
	@python -m repro lint --workload paper; \
	status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "expected exit 1 from the paper workload, got $$status"; \
		exit 1; \
	fi
	@echo "lint OK"

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		python $$ex > /dev/null || exit 1; \
	done
	@echo "all examples ran"

# Verify every relative link and repo-path code reference in the
# markdown corpus (README/DESIGN/EXPERIMENTS/CHANGES + docs/) resolves.
check-docs:
	python scripts/check_docs_links.py

# Drive `repro ask --trace` and `repro trace` end to end and validate
# the Chrome trace JSON they write (span coverage + event shape).
trace-smoke:
	python scripts/trace_smoke.py

# Drive a scripted `repro serve` client session over real sockets:
# the healthy paper workload (clean unions, bench burst) and the flaky
# workload (degraded answers, skipped sources, client shutdown).
serve-smoke:
	python scripts/serve_smoke.py

# Drive the materialized-view answer cache end to end: CLI `ask`
# with and without `--no-cache`, then a cached serve session (miss ->
# hit -> bypass -> delta after a source edit) with stats assertions.
matview-smoke:
	python scripts/matview_smoke.py

# Drive the persistent document store end to end: CLI ingest with DTD
# validation (bad document rejected and rolled back), close/reopen
# answering the paper view query identically to the in-memory source,
# and the generation counter across a live re-ingest.
store-smoke:
	python scripts/store_smoke.py

# Default local gate: unit tests, static+workload lint, docs links,
# benchmark smoke, trace smoke, serve smoke, matview smoke, store
# smoke.
check: test lint check-docs bench-smoke trace-smoke serve-smoke matview-smoke store-smoke

verify: test bench examples

all: install verify
