"""Tests for the mediator's static pre-flight (the empty-answer plan).

The headline guarantee: a query with a provably unsatisfiable pick
path performs *zero* source fan-outs -- the mediator answers with the
empty view on the simplifier's one classification, and runs no lint
rule to do so.  ``Mediator.preflight`` stays the lint-report API.
"""

import random
import threading

import pytest

from repro import lint, obs
from repro.dtd import dtd, generate_document
from repro.inference import Classification
from repro.lint import engine as lint_engine
from repro.mediator import Mediator, Source
from repro.mediator import mediator as mediator_module
from repro.obs import MetricsRegistry
from repro.xmas import parse_query

VIEW = "withJournals = SELECT X WHERE X:<professor><journal/></professor>"

#: `name` is PCDATA in the view DTD: demanding a child of it is dead
DEAD = "SELECT Y WHERE Y:<withJournals><name><journal/></name></withJournals>"

SAT = "SELECT Y WHERE Y:<withJournals><professor/></withJournals>"


def professors_dtd():
    return dtd(
        {
            "professor": "name, (journal | conference)*",
            "name": "#PCDATA",
            "journal": "#PCDATA",
            "conference": "#PCDATA",
        },
        root="professor",
    )


@pytest.fixture
def source():
    rng = random.Random(11)
    docs = [
        generate_document(professors_dtd(), rng, star_mean=1.5)
        for _ in range(3)
    ]
    return Source("profs", professors_dtd(), docs)


@pytest.fixture
def mediator(source):
    med = Mediator("mix")
    med.add_source(source)
    med.register_view(parse_query(VIEW), "profs")
    return med


def record_decisions(monkeypatch):
    """Every decision the mediator's ``simplify_query`` returns from now on."""
    decisions = []
    original = mediator_module.simplify_query

    def recording(*args, **kwargs):
        decision = original(*args, **kwargs)
        decisions.append(decision)
        return decision

    monkeypatch.setattr(mediator_module, "simplify_query", recording)
    return decisions


class TestPreflightRejection:
    def test_unsatisfiable_query_skips_all_fanouts(self, mediator, source):
        answer = mediator.query_view(parse_query(DEAD), "withJournals")
        assert answer.root.content == []
        assert source.queries_served == 0
        assert mediator.stats.preflight_rejections == 1
        assert mediator.stats.fanouts_skipped == 1
        assert mediator.stats.answered_without_source == 1

    def test_rejection_report_is_inspectable(self, mediator, monkeypatch):
        decisions = record_decisions(monkeypatch)
        mediator.query_view(parse_query(DEAD), "withJournals")
        [decision] = decisions
        assert decision.answer_is_empty
        assert decision.classification is Classification.UNSATISFIABLE
        report = mediator.preflight(parse_query(DEAD), "withJournals")
        assert report.has_errors
        assert "MIX101" in report.codes()

    def test_preflight_method_alone_touches_no_source(self, mediator, source):
        report = mediator.preflight(parse_query(DEAD), "withJournals")
        assert report.has_errors
        assert source.queries_served == 0
        assert mediator.stats.queries == 0  # inspection, not answering


class TestPreflightPassThrough:
    def test_satisfiable_query_fans_out_once(self, mediator, source):
        answer = mediator.query_view(parse_query(SAT), "withJournals")
        assert source.queries_served == 1
        assert answer.root.name == "answer"
        assert mediator.stats.preflight_rejections == 0
        assert mediator.stats.fanouts_skipped == 0

    def test_preflight_shares_its_tighten_run(self, mediator):
        with obs.traced(metrics=MetricsRegistry()) as tracer:
            mediator.query_view(parse_query(SAT), "withJournals")
        # one classification per query, not two
        assert len(tracer.find("inference.tighten")) == 1

    def test_no_simplifier_means_no_preflight(self, mediator, monkeypatch):
        decisions = record_decisions(monkeypatch)
        mediator.query_view(
            parse_query(SAT), "withJournals", use_simplifier=False
        )
        assert mediator.stats.preflight_rejections == 0
        assert decisions == []

    def test_answering_runs_no_lint_rule(self, mediator, source, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lint ran on the request path")

        monkeypatch.setattr(lint, "lint_query", refuse)
        monkeypatch.setattr(lint_engine, "run_lint", refuse)
        dead = mediator.query_view(parse_query(DEAD), "withJournals")
        assert dead.root.content == []
        assert mediator.stats.preflight_rejections == 1
        sat = mediator.query_view(parse_query(SAT), "withJournals")
        assert sat.root.children
        assert source.queries_served == 1


class TestConcurrentPreflights:
    def test_a_preflight_never_leaks_into_another_answer(
        self, mediator, monkeypatch
    ):
        # Thread A pauses between its classification and its fan-out
        # until the dead query has been answered on this thread: A's
        # decision must still be A's own.
        solo = mediator.query_view(parse_query(SAT), "withJournals")
        assert solo.root.children
        preflighted = threading.Event()
        dead_answered = threading.Event()
        original = mediator_module.simplify_query

        def paused(*args, **kwargs):
            decision = original(*args, **kwargs)
            if threading.current_thread().name == "A":
                preflighted.set()
                assert dead_answered.wait(10)
            return decision

        monkeypatch.setattr(mediator_module, "simplify_query", paused)
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(
                mediator.query_view(parse_query(SAT), "withJournals")
            ),
            name="A",
        )
        thread.start()
        assert preflighted.wait(10)
        mediator.query_view(parse_query(DEAD), "withJournals")
        dead_answered.set()
        thread.join(10)
        [answer] = answers
        assert answer.root.structurally_equal(solo.root)
