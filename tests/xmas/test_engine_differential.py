"""Differential tests: pick-projection vs. full binding enumeration.

The backtracking matcher's enumeration (``legacy_picked_elements``) is
the oracle: on random documents and random pick-element queries
(wildcards, disjunctions, PCDATA conditions, recursive steps, extra
variables, ID inequalities) the compiled engine must produce
*identical* view documents -- same pick elements, same document order,
same copied structure.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.workloads import paper
from repro.xmas import (
    bindings,
    compile_query,
    evaluate,
    legacy_picked_elements,
    parse_query,
    picked_elements,
)
from repro.xmlmodel import Document, Element, elem, text_elem
from tests.strategies import document_strategy, eval_query_strategy


def _ids(elements):
    return [element.id for element in elements]


@settings(max_examples=200, deadline=None)
@given(document=document_strategy(), query=eval_query_strategy())
def test_picked_elements_agree(document, query):
    """Same pick ids, same order -- the strongest agreement check."""
    legacy = legacy_picked_elements(query, document)
    compiled = picked_elements(query, document)
    assert _ids(compiled) == _ids(legacy)


@settings(max_examples=100, deadline=None)
@given(document=document_strategy(), query=eval_query_strategy())
def test_view_documents_agree(document, query):
    """The constructed views agree in structure and order (fresh IDs
    legitimately differ)."""
    legacy_view = Document(
        Element(
            query.view_name,
            [
                element.deep_copy(fresh_ids=True)
                for element in legacy_picked_elements(query, document)
            ],
        )
    )
    compiled_view = evaluate(query, document)
    assert compiled_view.root.structurally_equal(legacy_view.root)


@settings(max_examples=100, deadline=None)
@given(query=eval_query_strategy())
def test_plan_compilation_idempotent(query):
    """Compiling twice returns the cached plan; recompiling from a
    cleared cache yields an equal plan (compilation is deterministic)."""
    from repro.obs import clear_caches

    first = compile_query(query)
    assert compile_query(query) is first
    clear_caches()
    again = compile_query(query)
    assert again == first


@settings(max_examples=300, deadline=None)
@given(
    document=document_strategy(),
    query=eval_query_strategy(repeat_variables=True),
)
def test_distinct_nodes_never_bind_one_element(document, query):
    """Under injective sibling binding, two condition nodes never bind
    the same element.  So, by enumeration:

    * a variable bound at two nodes leaves no complete environment;
    * an inequality between variables bound at one node each never
      changes the answer.
    """
    counts = Counter(
        node.variable
        for node in query.root.iter_nodes()
        if node.variable is not None
    )
    if max(counts.values()) > 1:
        assert next(bindings(query, document), None) is None
    else:
        unconstrained = replace(query, inequalities=frozenset())
        assert _ids(legacy_picked_elements(query, document)) == _ids(
            legacy_picked_elements(unconstrained, document)
        )


def _fanout_document(n_members: int, n_pubs: int) -> Document:
    """A wide department: (Q2)'s sibling conditions must bind
    injectively over many candidate publications per member."""
    members = []
    for m in range(n_members):
        pubs = [
            elem(
                "publication",
                text_elem("title", f"t{i}"),
                text_elem("author", "a"),
                text_elem("journal", f"J{i}")
                if (i + m) % 3 != 0
                else text_elem("conference", f"C{i}"),
            )
            for i in range(n_pubs)
        ]
        teaches = [text_elem("teaches", "x")] if m % 2 == 0 else []
        members.append(
            elem(
                "professor" if m % 2 == 0 else "gradStudent",
                text_elem("firstName", f"f{m}"),
                text_elem("lastName", f"l{m}"),
                *pubs,
                *teaches,
            )
        )
    return Document(elem("department", text_elem("name", "CS"), *members))


def _section_chain(depth: int, branch_every: int = 8) -> Document:
    """Example 3.5's recursion: the target sits ``depth`` sections down,
    with a side section every ``branch_every`` levels."""
    node = elem("section", text_elem("title", "target"))
    for level in range(depth - 1):
        children = [text_elem("title", f"s{level}"), node]
        if level % branch_every == 0:
            children.append(elem("section", text_elem("title", "side")))
        node = elem("section", *children)
    return Document(elem("report", node))


DEEP = "deep = SELECT S WHERE <report> S:<section*><title>target</title></> </>"


@pytest.mark.parametrize(
    "build, query, size, picked",
    [
        (lambda: _fanout_document(24, 8), paper.q2, 854, 24),
        (lambda: _fanout_document(48, 16), paper.q2, 3242, 48),
        (lambda: _section_chain(400), lambda: parse_query(DEEP), 901, 1),
    ],
    ids=["fanout-24x8", "fanout-48x16", "section-chain-400"],
)
def test_fixed_shapes_agree(build, query, size, picked):
    """The evaluator's stress shapes: wide sibling fan-out and a deep
    recursive chain answer like the enumeration, with pinned counts."""
    document, query = build(), query()
    assert document.size() == size
    compiled = picked_elements(query, document)
    # the enumeration recurses once per section level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))
    try:
        legacy = legacy_picked_elements(query, document)
    finally:
        sys.setrecursionlimit(limit)
    assert _ids(compiled) == _ids(legacy)
    assert len(compiled) == picked
