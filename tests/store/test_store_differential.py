"""Differential tests: the stored index vs. the in-memory oracle.

:class:`~repro.xmlmodel.index.DocumentIndex` is the oracle.  On random
documents, ``ingest -> StoredDocumentIndex`` must be structurally
identical to ``parse_document -> DocumentIndex`` -- every positional
array, every label list, every descendant interval -- and query answers over
store-backed sources must match answers over the same documents held
in memory.  A second group re-opens on-disk stores to pin the
generation counter's restart semantics.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.store import DocumentStore, StorePolicy
from repro.xmlmodel import document_index, parse_document, serialize_document
from tests.strategies import document_strategy, eval_query_strategy


def assert_indexes_agree(index, oracle):
    """Every protocol surface of the stored index matches the oracle."""
    n = len(oracle)
    assert len(index) == n
    names = set()
    for pos in range(n):
        assert index.name_at(pos) == oracle.name_at(pos)
        assert index.pcdata_at(pos) == oracle.pcdata_at(pos)
        assert index.parent[pos] == oracle.parent[pos]
        assert index.end[pos] == oracle.end[pos]
        assert index.depth[pos] == oracle.depth[pos]
        assert tuple(index.children[pos]) == tuple(oracle.children[pos])
        names.add(oracle.name_at(pos))
    for name in names | {"never-in-any-document"}:
        assert index.labelled(name) == oracle.labelled(name)
        assert index.labelled_set(name) == oracle.labelled_set(name)
    assert index.element_at(0).structurally_equal(oracle.element_at(0))


@settings(max_examples=100, deadline=None)
@given(document=document_strategy())
def test_ingest_document_matches_the_oracle(document):
    """Direct tree ingest: arrays, labels, intervals, hydration."""
    with DocumentStore(":memory:") as store:
        stored = store.ingest_document(document)
        assert_indexes_agree(stored.stored_index(), document_index(document))


@settings(max_examples=100, deadline=None)
@given(document=document_strategy())
def test_ingest_text_matches_parse_document(document):
    """Text ingest: the streaming parser and the tree parser agree.

    Both sides consume the *serialized* text (serialization normalizes
    shapes the parser cannot distinguish, e.g. ``''`` PCDATA), so any
    divergence is the streaming event path's fault.
    """
    text = serialize_document(document)
    with DocumentStore(":memory:") as store:
        stored = store.ingest_text(text)
        oracle = document_index(parse_document(text))
        assert_indexes_agree(stored.stored_index(), oracle)


@settings(max_examples=60, deadline=None)
@given(document=document_strategy())
def test_tiny_page_budget_changes_nothing(document):
    """Evictions under a 2x2 page budget must be invisible to readers."""
    policy = StorePolicy(page_size=2, max_pages=2)
    with DocumentStore(":memory:", policy=policy) as store:
        stored = store.ingest_document(document)
        assert_indexes_agree(stored.stored_index(), document_index(document))
        budget = policy.page_size * policy.max_pages
        assert store.cache_info()["resident_rows"] <= budget


@settings(max_examples=60, deadline=None)
@given(document=document_strategy(), query=eval_query_strategy())
def test_queries_over_the_store_match_in_memory(document, query):
    """End to end: evaluate_many over stored handles vs. real trees.

    Beyond equal bytes: the stored answer's picks carry fresh IDs in
    document order, and they are read outside the page cache -- only
    PCDATA conditions probe pages, and nothing hydrates.
    """
    from repro.xmas import evaluate_many
    from repro.xmas.engine import compile_query

    plan = compile_query(query)
    with DocumentStore(":memory:") as store:
        stored = store.ingest_document(document)
        stored_ids = {
            row[1] for row in store.range_rows(stored.doc_id, 0, stored.size())
        }
        before = store.cache_info()
        stored_answer = evaluate_many(query, [stored])
        after = store.cache_info()
        memory_answer = evaluate_many(query, [document])
        assert serialize_document(stored_answer) == serialize_document(
            memory_answer
        )

        ids = [
            element.id
            for pick in stored_answer.root.children
            for element in pick.iter()
        ]
        assert not stored_ids & set(ids)
        numbers = [int(element_id[1:]) for element_id in ids]
        assert numbers == sorted(set(numbers))

        if plan.projectable:
            assert after["hydrations"] == before["hydrations"]
            if all(node.pcdata is None for node in plan.nodes):
                assert (
                    after["page_hits"] + after["page_misses"]
                    == before["page_hits"] + before["page_misses"]
                )

        # a PCDATA probe is the one read that goes through the cache
        # (through a second handle, so the first index's one-page memo
        # cannot answer it)
        probe = store.document(stored.doc_id).stored_index()
        last = len(probe) - 1
        assert probe.pcdata_at(last) == document_index(document).pcdata_at(
            last
        )
        probed = store.cache_info()
        assert (
            probed["page_hits"] + probed["page_misses"]
            == after["page_hits"] + after["page_misses"] + 1
        )


@settings(max_examples=25, deadline=None)
@given(document=document_strategy())
def test_reopened_store_matches_the_oracle(document, tmp_path_factory):
    """Restart: a cold process re-reads the same arrays and counter."""
    path = tmp_path_factory.mktemp("store") / "corpus.db"
    with DocumentStore(path) as store:
        store.ingest_document(document)
        generation = store.generation()
    with DocumentStore(path) as reopened:
        assert reopened.generation() == generation
        (stored,) = reopened.documents()
        assert_indexes_agree(stored.stored_index(), document_index(document))
