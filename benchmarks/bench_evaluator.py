"""Query-evaluation benchmarks: the mediator's serving hot path.

The committed baseline ``baseline_preengine.json`` is a run of this
file by the backtracking evaluator, captured before the compiled engine
replaced it; the Makefile's ``bench-engine-json`` target compares a
current run against it and writes ``BENCH_PR3.json``.  ``extra_info``
carries the reproduced facts -- pick counts, document sizes -- which
must be identical to the baseline's, so the benchmark comparison
doubles as a differential check.

Ladders:

* document-count: the same view evaluated over growing source corpora;
* fan-out: wide departments where sibling conditions must bind
  injectively over many candidate children (the combinatorial spot a
  backtracking matcher is worst at);
* recursive chain: Example 3.5-style ``<section*>`` descents, which the
  compiled engine answers by interval scans over the document index;
* paper + bibdb workloads and the mediator end-to-end paths.
"""

from __future__ import annotations

import random

import pytest

from repro.dtd import generate_document
from repro.mediator import Mediator, Source
from repro.workloads import bibdb, paper
from repro.xmas import evaluate_many, parse_query
from repro.xmlmodel import Document, elem, text_elem

def _record(benchmark, answer: Document, **facts) -> None:
    benchmark.extra_info["picked"] = len(answer.root.children)
    for key, value in facts.items():
        benchmark.extra_info[key] = value


# ---------------------------------------------------------------------------
# document-count ladder
# ---------------------------------------------------------------------------


def _dept_corpus(n_docs: int, star_mean: float = 2.2) -> list[Document]:
    rng = random.Random(4242)
    schema = paper.d1()
    return [
        generate_document(schema, rng, star_mean=star_mean)
        for _ in range(n_docs)
    ]


@pytest.mark.parametrize("n_docs", [4, 16])
def test_document_count_ladder(benchmark, n_docs):
    documents = _dept_corpus(n_docs)
    query = paper.q3()
    answer = benchmark(lambda: evaluate_many(query, documents))
    _record(
        benchmark,
        answer,
        n_docs=n_docs,
        corpus_size=sum(d.size() for d in documents),
    )


# ---------------------------------------------------------------------------
# fan-out ladder: sibling conditions over many candidate children
# ---------------------------------------------------------------------------


def _fanout_document(n_members: int, n_pubs: int) -> Document:
    def publication(i: int, journal: bool):
        marker = (
            text_elem("journal", f"J{i}")
            if journal
            else text_elem("conference", f"C{i}")
        )
        return elem(
            "publication",
            text_elem("title", f"t{i}"),
            text_elem("author", "a"),
            marker,
        )

    members = []
    for m in range(n_members):
        # alternate members with mostly-journal and mostly-conference lists
        pubs = [
            publication(i, journal=(i + m) % 3 != 0) for i in range(n_pubs)
        ]
        members.append(
            elem(
                "professor" if m % 2 == 0 else "gradStudent",
                text_elem("firstName", f"f{m}"),
                text_elem("lastName", f"l{m}"),
                *pubs,
                *( [text_elem("teaches", "x")] if m % 2 == 0 else [] ),
            )
        )
    return Document(elem("department", text_elem("name", "CS"), *members))


@pytest.mark.parametrize("n_members,n_pubs", [(24, 8), (48, 16)])
def test_fanout_ladder(benchmark, n_members, n_pubs):
    document = _fanout_document(n_members, n_pubs)
    query = paper.q2()
    answer = benchmark(lambda: evaluate_many(query, [document]))
    _record(
        benchmark,
        answer,
        n_members=n_members,
        n_pubs=n_pubs,
        doc_size=document.size(),
    )


# ---------------------------------------------------------------------------
# recursive chain (Example 3.5)
# ---------------------------------------------------------------------------


def _section_chain(depth: int, branch_every: int = 8) -> Document:
    node = elem("section", text_elem("title", "target"))
    for level in range(depth - 1):
        children = [text_elem("title", f"s{level}"), node]
        if level % branch_every == 0:
            children.append(elem("section", text_elem("title", "side")))
        node = elem("section", *children)
    return Document(elem("report", node))


def test_recursive_chain(benchmark):
    document = _section_chain(400)
    query = parse_query(
        "deep = SELECT S WHERE <report> S:<section*><title>target</title></> </>"
    )
    answer = benchmark(lambda: evaluate_many(query, [document]))
    _record(benchmark, answer, depth=400, doc_size=document.size())


# ---------------------------------------------------------------------------
# paper + bibdb workloads
# ---------------------------------------------------------------------------


def test_paper_workload_q2(benchmark):
    documents = _dept_corpus(8, star_mean=2.6)
    query = paper.q2()
    answer = benchmark(lambda: evaluate_many(query, documents))
    _record(benchmark, answer, n_docs=8)


def test_bibdb_workload(benchmark):
    documents = bibdb.corpus(6, random.Random(99), star_mean=1.6)
    query = bibdb.journal_articles_view()
    answer = benchmark(lambda: evaluate_many(query, documents))
    _record(
        benchmark,
        answer,
        n_docs=6,
        corpus_size=sum(d.size() for d in documents),
    )


# ---------------------------------------------------------------------------
# mediator fan-out: the end-to-end serving path
# ---------------------------------------------------------------------------


def _mediator_over(query, documents: list[Document]) -> Mediator:
    mediator = Mediator("mix")
    source = Source("dept", paper.d1(), documents, validate=False)
    mediator.add_source(source)
    source.warm_indexes()
    mediator.register_view(query, "dept")
    return mediator


ASK = """
titles = SELECT T WHERE <publist> T:<publication><title/></publication> </>
"""

ASK_MEMBERS = """
profs = SELECT T WHERE <withJournals> T:<professor/> </>
"""


def test_mediator_fanout_materialize(benchmark):
    """Materialize-and-evaluate with the (Q2) view over wide
    departments: the source fan-out IS the sibling-injectivity
    workload, served through ``query_view`` with the simplifier off."""
    documents = [_fanout_document(24, 8) for _ in range(4)]
    mediator = _mediator_over(paper.q2(), documents)
    query = parse_query(ASK_MEMBERS)
    answer = benchmark(
        lambda: mediator.query_view(
            query,
            "withJournals",
            use_simplifier=False,
            strategy="materialize",
        )
    )
    _record(benchmark, answer, n_docs=len(documents))


def test_mediator_ask_end_to_end(benchmark):
    """The full Figure 1 path -- pre-flight, simplifier, composition,
    evaluation.  Dominated by classification, so this is the parity
    check: the engine must not slow the pipeline down."""
    mediator = _mediator_over(paper.q3(), _dept_corpus(6))
    query = parse_query(ASK)
    answer = benchmark(
        lambda: mediator.query_view(query, "publist", use_simplifier=True)
    )
    _record(benchmark, answer, n_docs=6)
