"""Tests for the mediator: sources, views, query answering."""

import random

import pytest

from repro.dtd import generate_document, validate_document
from repro.errors import MediatorError, ValidationError
from repro.mediator import Mediator, Source
from repro.workloads.paper import d1, q2, q3
from repro.xmas import parse_query
from repro.xmlmodel import parse_document


@pytest.fixture
def dept_source():
    rng = random.Random(17)
    docs = [generate_document(d1(), rng, star_mean=1.6) for _ in range(3)]
    return Source("dept", d1(), docs)


@pytest.fixture
def mediator(dept_source):
    med = Mediator("mix")
    med.add_source(dept_source)
    return med


class TestSource:
    def test_validates_documents(self):
        with pytest.raises(ValidationError):
            Source("dept", d1(), [parse_document("<department/>")])

    def test_validation_can_be_disabled(self):
        source = Source(
            "dept", d1(), [parse_document("<department/>")], validate=False
        )
        assert len(source.documents) == 1

    def test_query_without_documents_is_empty_valid_answer(self):
        """An empty source is a degenerate healthy source, not an error:
        it answers with the empty-but-valid view document."""
        from repro.dtd import validate_document

        source = Source("empty", d1())
        answer = source.query(q2())
        assert answer.root.name == q2().view_name
        assert answer.root.children == []
        assert source.queries_served == 1
        from repro import infer_view_dtd

        view_dtd = infer_view_dtd(d1(), q2()).dtd
        assert validate_document(answer, view_dtd).ok

    def test_size(self, dept_source):
        assert dept_source.size() == sum(
            d.size() for d in dept_source.documents
        )


class TestMediator:
    def test_register_infers_dtd(self, mediator):
        registration = mediator.register_view(q2(), "dept")
        assert registration.dtd.root == "withJournals"
        assert ("withJournals", 0) in registration.sdtd.types

    def test_register_compiles_plan(self, mediator, monkeypatch):
        from repro.xmas import compile_query, engine

        compiled = []
        real = engine._compile
        monkeypatch.setattr(
            engine, "_compile", lambda q: compiled.append(q) or real(q)
        )
        registration = mediator.register_view(q2(), "dept")
        assert compiled == [registration.query]
        # the plan stays on the view's query: serving never recompiles
        mediator.materialize(registration.name)
        assert compile_query(registration.query).projectable
        assert len(compiled) == 1

    def test_source_warm_indexes(self, dept_source):
        from repro.xmlmodel import document_index

        assert dept_source.warm_indexes() == len(dept_source.documents)
        for document in dept_source.documents:
            assert document_index(document) is document_index(document)

    def test_duplicate_view_rejected(self, mediator):
        mediator.register_view(q2(), "dept")
        with pytest.raises(MediatorError):
            mediator.register_view(q2(), "dept")

    def test_unknown_source_rejected(self, mediator):
        with pytest.raises(MediatorError):
            mediator.register_view(q2(), "nope")

    def test_default_source(self, mediator):
        registration = mediator.register_view(q3())
        assert registration.source_name == "dept"

    def test_duplicate_source_rejected(self, mediator, dept_source):
        with pytest.raises(MediatorError):
            mediator.add_source(dept_source)

    def test_materialized_view_satisfies_inferred_dtd(self, mediator):
        registration = mediator.register_view(q2(), "dept")
        view = mediator.materialize("withJournals")
        assert validate_document(view, registration.dtd).ok

    def test_view_dtd_accessors(self, mediator):
        mediator.register_view(q2(), "dept")
        assert mediator.view_dtd("withJournals").root == "withJournals"
        assert mediator.view_sdtd("withJournals").root == ("withJournals", 0)
        with pytest.raises(MediatorError):
            mediator.view_dtd("nope")

    def test_query_view(self, mediator):
        mediator.register_view(q3(), "dept")
        q = parse_query(
            "titles = SELECT T WHERE <publist> <publication> T:<title/> </> </>"
        )
        answer = mediator.query_view(q, "publist")
        assert answer.root.name == "titles"
        assert all(e.name == "title" for e in answer.root.children)

    def test_unsatisfiable_query_short_circuits(self, mediator):
        mediator.register_view(q3(), "dept")
        # Conference publications cannot appear in the journal view.
        q = parse_query(
            "confs = SELECT X WHERE <publist> X:<publication><conference/>"
            "</publication> </>"
        )
        before = mediator.stats.answered_without_source
        answer = mediator.query_view(q, "confs" if False else "publist")
        assert answer.root.children == []
        assert mediator.stats.answered_without_source == before + 1

    def test_simplifier_can_be_disabled(self, mediator):
        mediator.register_view(q3(), "dept")
        q = parse_query(
            "confs = SELECT X WHERE <publist> X:<publication><conference/>"
            "</publication> </>"
        )
        answer = mediator.query_view(q, "publist", use_simplifier=False)
        assert answer.root.children == []  # same answer, the slow way
        assert mediator.stats.answered_without_source == 0
