"""Unit tests for the compiled query-execution engine."""

from __future__ import annotations

import pytest

from repro.obs import clear_caches, kernel_stats
from repro.xmas import (
    compile_query,
    cond,
    evaluate,
    legacy_picked_elements,
    parse_query,
    picked_elements,
    query as make_query,
)
from repro.xmas.engine import hopcroft_karp
from repro.xmlmodel import Document, DocumentIndex, document_index, elem, parse_document, text_elem


@pytest.fixture
def dept_doc():
    return parse_document(
        """
        <department>
          <name>CS</name>
          <professor>
            <firstName>Yannis</firstName><lastName>P</lastName>
            <publication><title>a</title><author>x</author><journal>J1</journal></publication>
            <publication><title>b</title><author>x</author><journal>J2</journal></publication>
            <teaches>cse132</teaches>
          </professor>
          <gradStudent>
            <firstName>Pavel</firstName><lastName>V</lastName>
            <publication><title>e</title><author>z</author><conference>C</conference></publication>
          </gradStudent>
        </department>
        """
    )


class TestDocumentIndex:
    def test_preorder_arrays(self, dept_doc):
        index = document_index(dept_doc)
        assert index.order[0] is dept_doc.root
        assert index.parent[0] == -1
        assert index.end[0] == len(index)
        assert [e.name for e in index.order] == [
            e.name for e in dept_doc.iter()
        ]
        # children positions agree with the elements' child lists
        for pos, element in enumerate(index.order):
            assert [
                index.order[c].name for c in index.children[pos]
            ] == element.child_names()

    def test_by_label_document_order(self, dept_doc):
        index = document_index(dept_doc)
        pubs = index.labelled("publication")
        assert pubs == sorted(pubs)
        assert len(pubs) == 3
        assert index.labelled("nosuch") == []

    def test_interval_scan(self, dept_doc):
        index = document_index(dept_doc)
        professor = index.labelled("professor")[0]
        inside = index.labelled_within("publication", professor)
        assert len(inside) == 2
        assert all(
            index.is_ancestor_or_self(professor, pos) for pos in inside
        )

    def test_cache_and_registry(self, dept_doc):
        clear_caches()
        first = document_index(dept_doc)
        assert document_index(dept_doc) is first
        stats = kernel_stats()["caches"]["engine.doc_index"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        clear_caches()
        assert kernel_stats()["caches"]["engine.doc_index"]["size"] == 0

    def test_depth_array(self):
        doc = Document(elem("a", elem("b", text_elem("c", "t"))))
        index = DocumentIndex(doc)
        assert index.depth == [0, 1, 2]


class TestCompilation:
    def test_plan_shape(self):
        q = parse_query(
            "v = SELECT P WHERE <department> P:<professor>"
            " <publication><journal/></publication> </> </>"
        )
        plan = compile_query(q)
        assert plan.projectable
        assert [plan.nodes[i].names for i in plan.pick_path] == [
            frozenset({"department"}),
            frozenset({"professor"}),
        ]
        # preorder numbering with subtree intervals
        assert plan.nodes[0].end == len(plan.nodes)
        assert "pick-projection" in plan.describe()

    def test_plan_cache_idempotent(self):
        clear_caches()
        q = parse_query("v = SELECT P WHERE P:<a/>")
        first = compile_query(q)
        assert compile_query(q) is first
        clear_caches()
        again = compile_query(q)
        assert again is not first and again == first

    def test_repeated_variable_falls_back(self):
        root = cond(
            "a",
            children=(
                cond("b", var="P"),
                cond("c", children=(cond("b", var="X"), cond("d", var="X"))),
            ),
        )
        plan = compile_query(make_query("v", "P", root))
        assert not plan.projectable
        assert "repeated" in plan.fallback_reason

    def test_path_inequality_falls_back(self):
        root = cond(
            "a", var="A", children=(cond("b", var="P"),)
        )
        plan = compile_query(
            make_query("v", "P", root, inequalities=[("A", "P")])
        )
        assert not plan.projectable
        assert "inequality" in plan.fallback_reason

    def test_separated_inequality_stays_projectable(self):
        root = cond(
            "a",
            children=(cond("b", var="P"), cond("b", var="Q")),
        )
        plan = compile_query(
            make_query("v", "P", root, inequalities=[("P", "Q")])
        )
        assert plan.projectable


class TestHopcroftKarp:
    def test_perfect_matching(self):
        assert hopcroft_karp([[0, 1], [0], [2]], 3) == 3

    def test_blocked(self):
        # two conditions fighting over one child
        assert hopcroft_karp([[0], [0]], 1) == 1

    def test_augmenting_path(self):
        # greedy would match left0->0 and starve left1; HK augments
        assert hopcroft_karp([[0, 1], [0]], 2) == 2

    def test_empty_left(self):
        assert hopcroft_karp([], 4) == 0


class TestCompiledEvaluation:
    def test_matches_legacy_on_paper_query(self, dept_doc):
        from repro.workloads.paper import q2

        legacy = legacy_picked_elements(q2(), dept_doc)
        compiled = evaluate(q2(), dept_doc).root.children
        assert len(compiled) == len(legacy)
        assert all(c.structurally_equal(e) for c, e in zip(compiled, legacy))

    def test_sibling_injectivity(self):
        # one journal cannot satisfy two sibling journal conditions
        doc = parse_document(
            "<professor><journal>J</journal></professor>"
        )
        q = parse_query(
            "v = SELECT X WHERE X:<professor> <journal/> <journal/> </>"
        )
        assert picked_elements(q, doc) == []
        doc2 = parse_document(
            "<professor><journal>J1</journal><journal>J2</journal></professor>"
        )
        assert len(picked_elements(q, doc2)) == 1

    def test_recursive_chain_interval_scan(self):
        doc = parse_document(
            "<report><section><title>top</title>"
            "<section><title>deep</title></section></section></report>"
        )
        q = parse_query(
            "v = SELECT S WHERE <report> S:<section*><title>deep</title></> </>"
        )
        picks = picked_elements(q, doc)
        assert [p.children[0].text for p in picks] == ["deep"]

    def test_picked_identity_and_order(self, dept_doc):
        q = parse_query(
            "pubs = SELECT P WHERE <department> <professor | gradStudent>"
            " P:<publication/> </> </>"
        )
        picks = picked_elements(q, dept_doc)
        # the picks are the document's own elements, in document order
        order = [e.id for e in dept_doc.iter()]
        positions = [order.index(p.id) for p in picks]
        assert positions == sorted(positions)
        assert [p.children[0].text for p in picks] == ["a", "b", "e"]

    def test_fallback_counts_events(self):
        clear_caches()
        root = cond("a", var="A", children=(cond("b", var="P"),))
        q = make_query("v", "P", root, inequalities=[("A", "P")])
        doc = Document(elem("a", text_elem("b", "t")))
        assert len(picked_elements(q, doc)) == 1
        assert kernel_stats()["events"].get("engine.fallback", 0) == 1


class TestDeepDocuments:
    """Example 3.5-style recursive chains far past the recursion limit."""

    DEPTH = 6000

    def _chain(self) -> Document:
        node = elem("section", text_elem("leaf", "end"))
        for _ in range(self.DEPTH - 1):
            node = elem("section", node)
        return Document(elem("report", node))

    def test_iter_and_size(self):
        doc = self._chain()
        assert doc.size() == self.DEPTH + 2

    def test_deep_copy(self):
        doc = self._chain()
        copy = doc.root.deep_copy(fresh_ids=True)
        assert copy.size() == doc.size()
        assert copy.structurally_equal(doc.root)

    def test_depth(self):
        assert self._chain().root.depth() == self.DEPTH + 2

    def test_evaluate_deep_chain_round_trip(self):
        doc = self._chain()
        q = parse_query(
            "v = SELECT S WHERE <report> S:<section*><leaf/></> </>"
        )
        answer = evaluate(q, doc)
        # only the innermost section holds the leaf
        assert len(answer.root.children) == 1
        assert answer.root.children[0].name == "section"
        # picking every chain element also works (index-backed)
        q_all = parse_query("v = SELECT S WHERE <report> S:<section*/> </>")
        picks = picked_elements(q_all, doc)
        assert len(picks) == self.DEPTH
