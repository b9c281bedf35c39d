# Convenience targets for the repro project.

.PHONY: install test bench bench-smoke perfbench-test examples lint check-docs trace-smoke serve-smoke matview-smoke store-smoke verify check all

# Every recipe runs the package from the checkout: find `repro` under
# src/ without an install, keeping any PYTHONPATH the caller set.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Fast benchmark sanity pass (seconds, not minutes): a single round of
# the suites that sweep the full pipeline, the lint workloads, the
# fault-tolerant transport (happy-path overhead gate + resilience
# ladder) and the disabled-tracer overhead gate, GC off so one-round
# timings are not noise-dominated.  Part of `make check`.
bench-smoke:
	pytest benchmarks/bench_quality.py benchmarks/bench_lint.py \
		benchmarks/bench_faults.py benchmarks/bench_obs.py -q \
		--benchmark-only --benchmark-disable-gc \
		--benchmark-min-rounds=1 --benchmark-warmup=off

# The layered benchmark's own tests (end-to-end and per-layer metrics
# are measured by `python3 perfbench/run.py`; see BENCHMARK.json and
# docs/PERFORMANCE.md).  Part of `make check`.
perfbench-test:
	python3 -m pytest perfbench/tests -q

# Static checks: ruff + mypy --strict (each skipped with a notice when
# not installed -- offline images may lack them), then `repro lint`
# over the example workloads.  The paper workload contains a
# deliberately dead query, so its expected exit code is 1.  The closing
# line names every tool that was skipped.
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
	@skipped=""; \
	for tool in ruff mypy; do \
		command -v $$tool >/dev/null 2>&1 || skipped="$${skipped:+$$skipped, }$$tool"; \
	done; \
	if [ -n "$$skipped" ]; then \
		echo "lint OK ($$skipped not installed: skipped)"; \
	else echo "lint OK"; fi

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
# benchmark smoke, the benchmark's own tests, every example, trace
# smoke, serve smoke, matview smoke, store smoke.
check: test lint check-docs bench-smoke perfbench-test examples trace-smoke serve-smoke matview-smoke store-smoke

verify: test bench examples

all: install verify
