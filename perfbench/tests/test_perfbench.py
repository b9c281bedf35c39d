"""The benchmark's own tests (run from the root of a checkout):

    python3 -m pytest perfbench/tests -q

They run every workload at its tiny size for one second, untraced and
traced, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import host  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer, _resolve, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
    SPEC = json.load(spec_file)


def run_benchmark(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(run: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_checks_answers_and_prints_every_end_to_end_metric(workload):
    lines, result = result_of(run_benchmark(workload, trace=0))
    assert result["attempted"] > 0
    assert result["failed"] == 0, "error_rate is not 0"
    failures = [line for line in lines if line.startswith("answer check failed")]
    assert result["correct"], failures
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric_and_the_split(workload):
    lines, result = result_of(run_benchmark(workload, trace=1))
    assert result["failed"] == 0
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any(line.startswith("request split") for line in lines)


def test_benchmark_json_names_only_workloads_the_benchmark_has():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.xfail(
    strict=True,
    reason="compose_query conjoins the client's conditions with the view pick's as "
    "injectively bound siblings, so a repeated sibling name demands an extra child",
)
@pytest.mark.parametrize("shape", wl.KNOWN_UNSOUND)
def test_composed_answer_equals_the_materialized_view(shape, tmp_path):
    from repro.xmas import evaluate_many, parse_query

    workload = wl.get("query-mix", tiny=True)
    inputs = str(tmp_path / "inputs")
    host.write_inputs(workload, 3, inputs)
    mediator, _ = host.build(workload, inputs)
    view = "wellCited0"
    documents = host._oracle_documents(workload, inputs)[wl.site_name(0)]
    materialized = evaluate_many(mediator.views[view].query, documents)
    query = parse_query(shape.format(w=view))
    oracle = evaluate_many(query, [materialized]).root.children
    assert oracle
    assert host._same(mediator.query_view(query, view), oracle)


def test_uninstall_restores_every_wrapped_name():
    targets = [(*_resolve(module, path), name) for module, path, name in TARGETS]
    originals = [vars(owner)[attribute] for owner, attribute, _ in targets]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attribute, _), original in zip(targets, originals):
            assert vars(owner)[attribute] is not original
        from repro import xmlmodel

        xmlmodel.parse_document("<a><b>x</b></a>")
        assert [span[0] for span in tracer.spans] == ["xmlmodel.parse"]
    finally:
        broken = tracer.uninstall()
    assert broken == []
    for (owner, attribute, _), original in zip(targets, originals):
        assert vars(owner)[attribute] is original


def test_self_time_is_duration_minus_the_time_children_cover():
    spans = [
        ["request", 0.0, 10.0, -1, 1, None],
        ["call", 1.0, 4.0, 0, 1, None],
        ["evaluate", 2.0, 3.0, 1, 1, None],
        ["call", 6.0, 7.0, 0, 1, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_overlapping_children_cover_their_union():
    spans = [
        ["fan_out", 0.0, 10.0, -1, 1, None],
        ["leg", 1.0, 6.0, 0, 1, None],
        ["leg", 2.0, 8.0, 0, 1, None],
        ["leg", 2.5, 3.0, 0, 1, None],
    ]
    assert self_times(spans) == [3.0, 5.0, 6.0, 0.5]


def test_without_the_program_it_fails_without_a_result():
    bare = os.path.join(BENCH, ".work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            BENCH, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__", ".work"),
        )
        run = run_benchmark("edit-mix", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert run.returncode != 0
    assert not run.stdout.strip()
