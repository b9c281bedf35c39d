"""Tests for the mediator's static pre-flight (the lint hook).

The headline guarantee: a query with a provably unsatisfiable pick
path performs *zero* source fan-outs -- the mediator answers with the
empty view straight from the diagnostics.
"""

import random
import threading

import pytest

from repro import obs
from repro.dtd import dtd, generate_document
from repro.mediator import Mediator, Source
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


def record_preflights(monkeypatch, mediator):
    """Every report ``mediator.preflight`` returns from now on."""
    reports = []
    original = mediator.preflight

    def recording(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    monkeypatch.setattr(mediator, "preflight", recording)
    return reports


class TestPreflightRejection:
    def test_unsatisfiable_query_skips_all_fanouts(self, mediator, source):
        answer = mediator.query_view(parse_query(DEAD), "withJournals")
        assert answer.root.content == []
        assert source.queries_served == 0
        assert mediator.stats.preflight_rejections == 1
        assert mediator.stats.fanouts_skipped == 1
        assert mediator.stats.answered_without_source == 1

    def test_rejection_report_is_inspectable(self, mediator, monkeypatch):
        reports = record_preflights(monkeypatch, mediator)
        mediator.query_view(parse_query(DEAD), "withJournals")
        [report] = reports
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
        # the simplifier consumed the pre-flight's run: one
        # classification per query, not two
        assert len(tracer.find("inference.tighten")) == 1

    def test_no_simplifier_means_no_preflight(self, mediator, monkeypatch):
        reports = record_preflights(monkeypatch, mediator)
        mediator.query_view(
            parse_query(SAT), "withJournals", use_simplifier=False
        )
        assert mediator.stats.preflight_rejections == 0
        assert reports == []


class TestConcurrentPreflights:
    def test_a_preflight_never_leaks_into_another_answer(
        self, mediator, monkeypatch
    ):
        # Thread A pauses between its pre-flight and its simplifier
        # until the dead query has been answered on this thread: A's
        # Tighten run must still be A's own.
        solo = mediator.query_view(parse_query(SAT), "withJournals")
        assert solo.root.children
        preflighted = threading.Event()
        dead_answered = threading.Event()
        original = mediator.preflight

        def paused(*args, **kwargs):
            report = original(*args, **kwargs)
            if threading.current_thread().name == "A":
                preflighted.set()
                assert dead_answered.wait(10)
            return report

        monkeypatch.setattr(mediator, "preflight", paused)
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
