"""Tests for the document index cache's mutation-stamp validation.

Regression: ``document_index`` used to trust a cache hit
unconditionally, so a query answered after a document mutation ran
against the *old* tree.  Every mutating API on ``Element`` /
``Document`` now stamps the global mutation clock and the cache
validates hits against it.
"""

import pytest

from repro.obs import clear_caches, kernel_stats
from repro.xmas import evaluate_many, parse_query
from repro.xmlmodel import (
    Document,
    document_index,
    elem,
    mutation_stamp,
    text_elem,
)
from repro.xmlmodel.index import _INDEX_CACHE


@pytest.fixture(autouse=True)
def fresh():
    clear_caches()
    yield
    clear_caches()


def publication(title: str, venue: str = "journal"):
    return elem(
        "publication",
        text_elem("title", title),
        text_elem("author", "a"),
        text_elem(venue, "v"),
    )


def small_document() -> Document:
    return Document(elem("list", publication("one"), publication("two")))


def index_stats() -> dict:
    return kernel_stats()["caches"]["engine.doc_index"]


class TestStampValidation:
    def test_unmutated_hit_is_same_object(self):
        document = small_document()
        first = document_index(document)
        assert document_index(document) is first
        stats = index_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["invalidations"] == 0

    def test_append_child_invalidates(self):
        document = small_document()
        first = document_index(document)
        assert len(first.labelled("publication")) == 2
        document.root.append_child(publication("three"))
        second = document_index(document)
        assert second is not first
        assert len(second.labelled("publication")) == 3
        assert index_stats()["invalidations"] == 1

    def test_set_text_rearms_in_place(self):
        # A content-only edit leaves every structural array exact --
        # the same index object is re-armed instead of rebuilt, and
        # consumers read the new text live through ``order``.
        document = small_document()
        first = document_index(document)
        title = document.root.children[0].children[0]
        title.set_text("renamed")
        second = document_index(document)
        assert second is first
        assert second.stamp == mutation_stamp()
        texts = [
            second.order[pos].content
            for pos in second.labelled("title")
        ]
        assert "renamed" in texts
        stats = index_stats()
        assert stats["invalidations"] == 0
        assert stats["content_rearms"] == 1

    def test_set_content_structural_change_invalidates(self):
        # ``set_content`` swapping a child list is structural: the
        # stamped parent's indexed children no longer match, so the
        # content-only re-arm must refuse and rebuild.
        document = small_document()
        first = document_index(document)
        document.root.children[0].set_content(
            [text_elem("title", "swapped")]
        )
        second = document_index(document)
        assert second is not first
        assert len(second.labelled("author")) == 1
        stats = index_stats()
        assert stats["invalidations"] == 1
        assert stats["content_rearms"] == 0

    def test_remove_child_invalidates(self):
        document = small_document()
        first = document_index(document)
        document.root.remove_child(document.root.children[1])
        second = document_index(document)
        assert second is not first
        assert len(second.labelled("publication")) == 1

    def test_replace_root_invalidates(self):
        document = small_document()
        first = document_index(document)
        document.replace_root(elem("list", publication("only")))
        second = document_index(document)
        assert second is not first
        assert len(second.labelled("publication")) == 1
        assert index_stats()["invalidations"] == 1

    def test_unrelated_mutation_rearms_fast_path(self):
        document = small_document()
        other = small_document()
        index = document_index(document)
        # Mutating a *different* tree moves the global clock but must
        # not invalidate this document's index: one journal check
        # re-arms the O(1) fast path at the new stamp.
        other.root.append_child(publication("noise"))
        assert document_index(document) is index
        assert index.stamp == mutation_stamp()
        assert document_index(document) is index  # O(1) hit again
        stats = index_stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["invalidations"] == 0

    def test_mutating_apis_refuse_pcdata_content(self):
        leaf = text_elem("title", "t")
        with pytest.raises(ValueError):
            leaf.append_child(elem("x"))
        with pytest.raises(ValueError):
            leaf.insert_child(0, elem("x"))
        with pytest.raises(ValueError):
            leaf.remove_child(elem("x"))

    def test_clear_caches_resets_counters(self):
        document = small_document()
        document_index(document)
        clear_caches()
        stats = index_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "content_rearms": 0,
            "size": 0,
        }
        assert len(_INDEX_CACHE) == 0


class TestMutationClockEdgeCases:
    def test_mutation_between_index_grab_and_reuse_invalidates(self):
        # The in-flight shape: an evaluation grabs the index, a
        # mutation lands while it still holds the object, and the next
        # call must not hand the stale index back.  The held object
        # itself stays internally consistent (positions describe the
        # pre-mutation tree it was built from).
        document = small_document()
        held = document_index(document)
        held_order = tuple(held.order)
        document.root.append_child(publication("mid-flight"))
        assert tuple(held.order) == held_order  # snapshot, not a view
        fresh = document_index(document)
        assert fresh is not held
        assert len(fresh.labelled("publication")) == 3
        assert index_stats()["invalidations"] == 1

    def test_detached_subtree_mutation_rearms_not_invalidates(self):
        # Detach a publication, re-index, then mutate the *detached*
        # subtree.  The clock moves, but no indexed element did: the
        # detached tree is not part of the document, so one validating
        # journal check re-arms the same index object.
        document = small_document()
        detached = document.root.children[1]
        document.root.remove_child(detached)
        index = document_index(document)
        detached.children[0].set_text("edited while detached")
        assert document_index(document) is index
        assert index.stamp == mutation_stamp()
        stats = index_stats()
        # the detach preceded the first build: no invalidation at all
        assert stats["invalidations"] == 0

    def test_reattached_mutated_subtree_is_seen(self):
        # ...but re-attaching that mutated subtree touches the (indexed)
        # parent, so the index invalidates and the new one carries the
        # edit made while the subtree was off-tree.
        document = small_document()
        detached = document.root.children[1]
        document.root.remove_child(detached)
        index = document_index(document)
        detached.children[0].set_text("edited while detached")
        document.root.append_child(detached)
        fresh = document_index(document)
        assert fresh is not index
        titles = [
            fresh.order[pos].content for pos in fresh.labelled("title")
        ]
        assert "edited while detached" in titles


class TestEngineSeesMutations:
    QUERY = """
    picks = SELECT P
    WHERE <list>
            P:<publication><journal/></publication>
          </>
    """

    def test_requery_after_mutation_returns_new_answer(self):
        # The end-to-end shape of the bug: answer, mutate, answer again.
        document = small_document()
        query = parse_query(self.QUERY)
        first = evaluate_many(query, [document])
        assert len(first.root.children) == 2
        document.root.append_child(publication("three"))
        second = evaluate_many(query, [document])
        assert len(second.root.children) == 3
        document.root.remove_child(document.root.children[0])
        third = evaluate_many(query, [document])
        assert len(third.root.children) == 2

    def test_requery_after_content_edit_sees_new_text(self):
        # The content-only re-arm must not serve stale text: picks
        # deep-copy content at evaluation time, straight off the tree.
        document = small_document()
        query = parse_query(self.QUERY)
        first = evaluate_many(query, [document])
        title = document.root.children[0].children[0]
        title.set_text("second edition")
        second = evaluate_many(query, [document])
        texts = [
            el.content
            for el in second.root.iter()
            if el.name == "title"
        ]
        assert "second edition" in texts
        old_texts = [
            el.content
            for el in first.root.iter()
            if el.name == "title"
        ]
        assert "second edition" not in old_texts
        assert index_stats()["content_rearms"] == 1
