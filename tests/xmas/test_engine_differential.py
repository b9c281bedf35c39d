"""Differential tests: pick-projection vs. full binding enumeration.

The backtracking matcher's enumeration (``legacy_picked_elements``) is
the oracle: on random documents and random pick-element queries
(wildcards, disjunctions, PCDATA conditions, recursive steps, extra
variables, ID inequalities) the compiled engine must produce
*identical* view documents -- same pick elements, same document order,
same copied structure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings

from repro.xmas import (
    bindings,
    compile_query,
    evaluate,
    legacy_picked_elements,
    picked_elements,
)
from repro.xmlmodel import Document, Element
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
