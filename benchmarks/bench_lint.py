"""Lint cost: a query lint must be a small fraction of inference.

``lint_query`` (what ``Mediator.preflight`` returns) and the CLI's
full rule set over whole workloads only earn their keep if linting a
query costs far less than the full view-DTD inference (one uncollapsed
Tighten run versus tighten + list-type + merge).  The mediator itself
answers from the simplifier's classification and runs no lint rule.
Measured on the bibdb workload.
"""

from __future__ import annotations

import time

import pytest

from repro.inference import infer_view_dtd
from repro.lint import lint_dtd, lint_query, run_lint
from repro.workloads import bibdb, paper


class TestPreflightCost:
    def test_preflight_vs_full_inference_on_bibdb(self, benchmark):
        schema = bibdb.bibdb_dtd()
        views = bibdb.all_views()

        def preflight_all():
            return [lint_query(query, schema) for query in views]

        reports = benchmark(preflight_all)
        assert all(not report.has_errors for report in reports)

        def clock_inference(repeat: int = 3) -> float:
            start = time.perf_counter()
            for _ in range(repeat):
                for query in views:
                    infer_view_dtd(schema, query)
            return (time.perf_counter() - start) / repeat

        inference_mean = clock_inference()
        preflight_mean = benchmark.stats.stats.mean
        # the acceptance bar: pre-flight is a small fraction of the
        # inference it fronts (loose factor, CI machines are noisy)
        assert preflight_mean < inference_mean, (
            preflight_mean,
            inference_mean,
        )
        benchmark.extra_info["preflight_fraction"] = round(
            preflight_mean / inference_mean, 3
        )


class TestWorkloadLint:
    def test_full_paper_workload_lint(self, benchmark):
        pairs = paper.lint_workload()

        def lint_all():
            total = None
            audited = set()
            for label, source_dtd, query in pairs:
                signature = (source_dtd.root, source_dtd.names)
                scopes = (
                    {"query", "dtd"}
                    if signature not in audited
                    else {"query"}
                )
                audited.add(signature)
                report = run_lint(
                    dtd=source_dtd, query=query, scopes=scopes, origin=label
                )
                total = report if total is None else total.merged_with(report)
            return total

        report = benchmark(lint_all)
        # the workload exercises all three classifications, and only
        # the dead companion carries the error
        verdicts = {
            d.data["classification"] for d in report.by_code("MIX100")
        }
        assert verdicts == {"valid", "satisfiable", "unsatisfiable"}
        assert report.exit_code == 1
        assert all(d.origin == "q-dead-over-d9" for d in report.errors)
        benchmark.extra_info["findings"] = len(report)

    def test_dtd_audit_alone(self, benchmark):
        schema = bibdb.bibdb_dtd()
        report = benchmark(lambda: lint_dtd(schema))
        assert not report.has_errors
