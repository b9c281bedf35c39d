"""Unit tests for :mod:`repro.store`.

The persistent document store must be a drop-in corpus backend: ingest
streams parser events into SQLite without building trees, stored
handles satisfy the ``Document`` surface, ``document_index`` dispatches
to the store-backed index, and the generation counter plays the role
of the in-process mutation clock -- including across close/reopen.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError, StoreFormatError, StoreStaleError
from repro.store import (
    DocumentStore,
    StoredDocument,
    StoredDocumentIndex,
    StorePolicy,
)
from repro.workloads import paper
from repro.xmas import parse_query
from repro.xmlmodel import (
    Document,
    Element,
    document_index,
    parse_document,
    serialize_document,
)

SAMPLE = (
    "<site><paper><title>caching</title><year>1999</year></paper>"
    "<paper><title>mediators</title><year>1997</year></paper></site>"
)


def sample_document() -> Document:
    return parse_document(SAMPLE)


class TestIngest:
    def test_ingest_text_round_trips(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            assert isinstance(stored, StoredDocument)
            assert stored.root_type == "site"
            assert stored.size() == sample_document().size()
            assert stored.root.structurally_equal(sample_document().root)

    def test_ingest_document_preserves_ids_and_attributes(self):
        root = Element(
            "site",
            [
                Element("paper", "deep", "p1", {"ref": "x"}),
                Element("paper", [], "p2"),
            ],
            "s1",
        )
        with DocumentStore(":memory:") as store:
            stored = store.ingest_document(Document(root))
            hydrated = stored.root
            assert hydrated.id == "s1"
            assert hydrated.content[0].id == "p1"
            assert hydrated.content[0].attributes == {"ref": "x"}
            assert hydrated.content[1].content == []
            assert hydrated.structurally_equal(root)

    def test_ingest_document_keeps_empty_pcdata_distinct(self):
        """'' PCDATA and empty content are different elements (§2)."""
        root = Element(
            "site", [Element("a", ""), Element("b", [])]
        )
        with DocumentStore(":memory:") as store:
            hydrated = store.ingest_document(Document(root)).root
            assert hydrated.content[0].content == ""
            assert hydrated.content[1].content == []

    def test_ingest_file(self, tmp_path):
        xml = tmp_path / "doc.xml"
        xml.write_text(SAMPLE, encoding="utf-8")
        with DocumentStore(tmp_path / "corpus.db") as store:
            stored = store.ingest_file(xml)
            assert stored.root.structurally_equal(sample_document().root)

    def test_deeply_nested_document_ingests_iteratively(self):
        root = leaf = Element("a", [])
        for _ in range(3000):
            child = Element("a", [])
            leaf.append_child(child)
            leaf = child
        with DocumentStore(":memory:") as store:
            stored = store.ingest_document(Document(root))
            assert stored.size() == 3001
            index = stored.stored_index()
            assert index.depth[3000] == 3000
            assert stored.root.structurally_equal(root)

    def test_ingest_tags_source(self):
        with DocumentStore(":memory:") as store:
            store.ingest_text(SAMPLE, source="siteA")
            store.ingest_text(SAMPLE, source="siteB")
            store.ingest_text(SAMPLE, source="siteA")
            assert len(store.documents()) == 3
            assert len(store.documents(source="siteA")) == 2
            assert store.documents(source="siteB")[0].source == "siteB"
            assert store.documents(source="nowhere") == []


class TestHandles:
    def test_documents_and_document_agree(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            again = store.document(stored.doc_id)
            assert again.doc_id == stored.doc_id
            assert again.size() == stored.size()
            assert store.has_document(stored.doc_id)
            assert store.n_documents() == 1
            assert store.n_elements() == stored.size()

    def test_missing_document_is_sto001(self):
        with DocumentStore(":memory:") as store:
            with pytest.raises(StoreError) as excinfo:
                store.document(99)
            assert excinfo.value.code == "STO001"

    def test_stored_documents_are_immutable(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            with pytest.raises(StoreError):
                stored.replace_root(Element("site", []))

    def test_iter_walks_the_hydrated_tree(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            names = sorted(element.name for element in stored.iter())
            expected = sorted(
                element.name for element in sample_document().iter()
            )
            assert names == expected

    def test_repr_names_the_store(self, tmp_path):
        path = tmp_path / "corpus.db"
        with DocumentStore(path) as store:
            stored = store.ingest_text(SAMPLE)
            assert str(path) in repr(stored)
            assert "site" in repr(stored)


class TestRemoveAndStaleness:
    def test_remove_document_drops_everything(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            keep = store.ingest_text(SAMPLE)
            store.remove_document(stored.doc_id)
            assert not store.has_document(stored.doc_id)
            assert store.n_documents() == 1
            assert store.n_elements() == keep.size()

    def test_remove_missing_document_is_sto001(self):
        with DocumentStore(":memory:") as store:
            with pytest.raises(StoreError):
                store.remove_document(42)

    def test_stale_handle_raises_sto003(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            stored.stored_index()  # build once
            store.remove_document(stored.doc_id)
            with pytest.raises(StoreStaleError) as excinfo:
                stored.stored_index()
            assert excinfo.value.code == "STO003"

    def test_remove_bumps_generation(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            before = store.generation()
            store.remove_document(stored.doc_id)
            assert store.generation() == before + 1


class TestGeneration:
    def test_each_ingest_bumps_the_counter(self):
        with DocumentStore(":memory:") as store:
            assert store.generation() == 0
            store.ingest_text(SAMPLE)
            assert store.generation() == 1
            store.ingest_text(SAMPLE)
            assert store.generation() == 2

    def test_generation_survives_reopen(self, tmp_path):
        path = tmp_path / "corpus.db"
        with DocumentStore(path) as store:
            store.ingest_text(SAMPLE)
            store.ingest_text(SAMPLE)
            generation = store.generation()
        with DocumentStore(path) as reopened:
            assert reopened.generation() == generation
            assert reopened.n_documents() == 2

    def test_second_connection_sees_the_bump(self, tmp_path):
        path = tmp_path / "corpus.db"
        with DocumentStore(path) as writer, DocumentStore(path) as reader:
            assert reader.generation() == 0
            writer.ingest_text(SAMPLE)
            # PRAGMA data_version revalidation: the reader notices the
            # other connection's commit without any shared state.
            assert reader.generation() == 1

    def test_stored_index_revalidates_after_ingest(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            index = stored.stored_index()
            assert stored.stored_index() is index  # cached while fresh
            assert index.fresh_at(index.stamp)
            store.ingest_text(SAMPLE)
            assert not index.fresh_at(index.stamp)
            rebuilt = stored.stored_index()
            assert rebuilt is not index
            assert rebuilt.generation == store.generation()


class TestLifecycleAndFormat:
    def test_closed_store_is_sto001(self):
        store = DocumentStore(":memory:")
        store.close()
        with pytest.raises(StoreError) as excinfo:
            store.ingest_text(SAMPLE)
        assert excinfo.value.code == "STO001"
        store.close()  # idempotent

    def test_non_store_file_is_sto002(self, tmp_path):
        path = tmp_path / "not_a_store.db"
        path.write_bytes(b"this is definitely not sqlite\n" * 40)
        with pytest.raises(StoreFormatError) as excinfo:
            DocumentStore(path)
        assert excinfo.value.code == "STO002"

    def test_future_format_version_is_sto002(self, tmp_path):
        import sqlite3

        path = tmp_path / "corpus.db"
        DocumentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'format'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreFormatError):
            DocumentStore(path)

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            StorePolicy(page_size=0)
        with pytest.raises(ValueError):
            StorePolicy(max_pages=0)

    def test_dtd_round_trip(self, tmp_path):
        path = tmp_path / "corpus.db"
        with DocumentStore(path) as store:
            assert store.dtd_text() is None
            store.set_dtd_text("<!ELEMENT site (paper*)>", root="site")
            store.set_dtd_text("<!ELEMENT site (paper+)>", root="site")
        with DocumentStore(path) as reopened:
            assert reopened.dtd_text() == "<!ELEMENT site (paper+)>"
            assert reopened.dtd_root() == "site"


class TestPageCache:
    def test_residency_is_bounded_by_the_budget(self):
        policy = StorePolicy(page_size=8, max_pages=4)
        budget = policy.page_size * policy.max_pages
        with DocumentStore(":memory:", policy=policy) as store:
            big = Document(
                Element(
                    "site",
                    [Element("paper", str(i)) for i in range(500)],
                )
            )
            stored = store.ingest_document(big)
            assert stored.size() > 4 * budget
            index = stored.stored_index()
            for pos in range(stored.size()):  # full payload sweep
                index.pcdata_at(pos)
            info = store.cache_info()
            assert info["resident_rows"] <= budget
            assert info["page_evictions"] > 0

    def test_sweep_peak_is_bounded_by_the_page_budget(self):
        """A full-corpus sweep through the stored index holds one page
        budget of rows, not the corpus: its traced peak stays under
        half the peak of materializing the corpus as trees."""
        import random
        import tracemalloc

        from repro.dtd import generate_document

        policy = StorePolicy(page_size=64, max_pages=8)
        budget = policy.page_size * policy.max_pages
        rng = random.Random(7)
        with DocumentStore(":memory:", policy=policy) as store:
            for _ in range(48):
                store.ingest_document(generate_document(paper.d1(), rng))
            assert store.n_elements() >= 4 * budget
            handles = store.documents()

            def sweep():
                for handle in handles:
                    index = handle.stored_index()
                    for pos in range(len(index)):
                        index.pcdata_at(pos)

            sweep()  # build the indexes: measure steady-state residency
            tracemalloc.start()
            sweep()
            _, sweep_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert store.cache_info()["resident_rows"] <= budget
            tracemalloc.start()
            trees = [handle.root for handle in handles]
            _, materialize_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(trees) == len(handles)
            assert sweep_peak < materialize_peak / 2

    def test_hot_pages_hit_the_cache(self):
        """A second index over the same document reuses the shared LRU."""
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            stored.stored_index().pcdata_at(2)
            misses = store.cache_info()["page_misses"]
            assert misses >= 1
            other = store.document(stored.doc_id)
            other.stored_index().pcdata_at(2)
            info = store.cache_info()
            assert info["page_misses"] == misses
            assert info["page_hits"] >= 1

    def test_drop_caches_and_kernel_registry(self):
        from repro.obs import clear_caches, kernel_stats

        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            index = stored.stored_index()
            index.pcdata_at(2)
            index.labelled("paper")
            assert store.cache_info()["resident_rows"] > 0
            section = kernel_stats()["caches"]["store.pages"]
            assert section["stores"] >= 1
            clear_caches()
            assert store.cache_info()["resident_rows"] == 0
            # still answers correctly after the drop
            assert index.name_at(0) == "site"
            assert index.pcdata_at(2) == "caching"


class TestStoredIndexProtocol:
    def _pair(self, store):
        stored = store.ingest_text(SAMPLE)
        oracle = document_index(sample_document())
        return stored.stored_index(), oracle

    def test_dispatch_builds_a_stored_index(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            assert isinstance(document_index(stored), StoredDocumentIndex)

    def test_arrays_match_the_in_memory_oracle(self):
        with DocumentStore(":memory:") as store:
            index, oracle = self._pair(store)
            assert len(index) == len(oracle)
            for pos in range(len(oracle)):
                assert index.name_at(pos) == oracle.name_at(pos)
                assert index.pcdata_at(pos) == oracle.pcdata_at(pos)
                assert index.parent[pos] == oracle.parent[pos]
                assert index.end[pos] == oracle.end[pos]
                assert index.depth[pos] == oracle.depth[pos]
                assert tuple(index.children[pos]) == tuple(
                    oracle.children[pos]
                )

    def test_labels_and_intervals_match(self):
        with DocumentStore(":memory:") as store:
            index, oracle = self._pair(store)
            for name in ("site", "paper", "title", "year", "absent"):
                assert index.labelled(name) == oracle.labelled(name)
                assert index.labelled_set(name) == oracle.labelled_set(name)
                for pos in range(len(oracle)):
                    assert index.labelled_within(
                        name, pos
                    ) == oracle.labelled_within(name, pos)
            for ancestor in range(len(oracle)):
                for descendant in range(len(oracle)):
                    assert index.is_ancestor_or_self(
                        ancestor, descendant
                    ) == oracle.is_ancestor_or_self(ancestor, descendant)

    def test_element_at_hydrates_the_subtree_only(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            index = stored.stored_index()
            first_paper = index.labelled("paper")[0]
            subtree = index.element_at(first_paper)
            oracle = document_index(sample_document())
            assert subtree.structurally_equal(
                oracle.element_at(
                    oracle.labelled("paper")[0]
                )
            )

    def test_out_of_range_positions_raise(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            index = stored.stored_index()
            with pytest.raises(IndexError):
                index.name_at(stored.size())
            with pytest.raises(IndexError):
                index.pcdata_at(stored.size())
            with pytest.raises(IndexError):
                index.pcdata_at(-1)


class TestSourceIntegration:
    def _query(self):
        return parse_query(
            """
            v = SELECT P
            WHERE <department> <professor>
                    P:<publication><journal/></publication>
                  </> </>
            """,
            source="dept",
        )

    def _corpus(self, n_docs=3, seed=11):
        import random

        from repro.dtd import generate_document

        schema = paper.d1()
        rng = random.Random(seed)
        return schema, [generate_document(schema, rng) for _ in range(n_docs)]

    def test_from_store_answers_like_the_in_memory_source(self):
        from repro.mediator import Source

        schema, documents = self._corpus()
        with DocumentStore(":memory:") as store:
            for document in documents:
                store.ingest_document(document, source="dept")
            stored_source = Source.from_store("dept", schema, store)
            memory_source = Source("dept", schema, documents, validate=False)
            query = self._query()
            assert stored_source.query(query).root.structurally_equal(
                memory_source.query(query).root
            )
            assert stored_source.queries_served == 1

    def test_from_store_filters_by_source_tag(self):
        from repro.mediator import Source

        schema, documents = self._corpus(n_docs=2)
        with DocumentStore(":memory:") as store:
            store.ingest_document(documents[0], source="dept")
            store.ingest_document(documents[1], source="other")
            source = Source.from_store("dept", schema, store, source="dept")
            assert len(source.documents) == 1

    def test_from_store_validate_checks_the_dtd(self):
        from repro.errors import ValidationError
        from repro.mediator import Source

        schema, documents = self._corpus(n_docs=1)
        with DocumentStore(":memory:") as store:
            store.ingest_document(documents[0], source="dept")
            store.ingest_text(SAMPLE, source="junk")
            Source.from_store("dept", schema, store, source="dept",
                              validate=True)
            with pytest.raises(ValidationError):
                Source.from_store("junk", schema, store, source="junk",
                                  validate=True)

    def test_attach_store_loads_the_corpus(self):
        from repro.mediator import Source

        schema, documents = self._corpus(n_docs=2)
        with DocumentStore(":memory:") as store:
            for document in documents:
                store.ingest_document(document)
            source = Source("dept", schema, [], validate=False,
                            attach_store=store)
            assert len(source.documents) == 2
            answer = source.query(self._query())
            assert answer.root.name == "v"

    def test_query_path_never_hydrates(self):
        """The compiled engine answers from the arrays: 0 hydrations."""
        from repro.mediator import Source

        schema, documents = self._corpus()
        with DocumentStore(":memory:") as store:
            for document in documents:
                store.ingest_document(document, source="dept")
            source = Source.from_store("dept", schema, store)
            store.drop_caches()
            source.query(self._query())
            assert store.cache_info()["hydrations"] == 0

    def test_cold_reopen_answers_without_hydrating(self, tmp_path):
        """A reopened file reads the arrays back instead of re-deriving
        them from XML: it answers like the in-memory source, with 0
        hydrations."""
        from repro.mediator import Source

        schema, documents = self._corpus()
        path = tmp_path / "corpus.db"
        with DocumentStore(path) as store:
            for document in documents:
                store.ingest_document(document, source="dept")
        with DocumentStore(path) as store:
            answer = Source.from_store("dept", schema, store).query(
                self._query()
            )
            assert store.cache_info()["hydrations"] == 0
        oracle = Source("dept", schema, documents, validate=False)
        assert answer.root.structurally_equal(
            oracle.query(self._query()).root
        )

    def test_fallback_hydrates_each_document_once(self):
        """A non-projectable plan enumerates over ``.root``, which
        hydrates a whole tree per read: one read per document."""
        from repro.mediator import Source
        from repro.xmas.engine import compile_query

        schema, documents = self._corpus()
        query = parse_query(
            """
            v = SELECT P
            WHERE <department> P:<professor> <lastName id=N/> </> </>
                  AND P != N
            """,
            source="dept",
        )
        assert not compile_query(query).projectable
        with DocumentStore(":memory:") as store:
            for document in documents:
                store.ingest_document(document, source="dept")
            source = Source.from_store("dept", schema, store)
            answer = source.query(query)
            assert store.cache_info()["hydrations"] == len(documents)
            memory = Source("dept", schema, documents, validate=False)
            assert answer.root.structurally_equal(
                memory.query(query).root
            )


class TestSerialization:
    def test_stored_document_serializes_via_hydration(self):
        with DocumentStore(":memory:") as store:
            stored = store.ingest_text(SAMPLE)
            text = serialize_document(stored)
            assert parse_document(text).root.structurally_equal(
                sample_document().root
            )
            assert store.cache_info()["hydrations"] >= 1
