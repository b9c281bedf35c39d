"""Differential and idempotence properties of collapsing.

``compute_equivalence`` refines by canonical signature grouping (one
minimization per member per round); the oracle in ``tests/oracles.py``
refines by a pairwise pivot scan over product-automaton equivalence.
On every s-DTD they must produce the same partition, and collapsing
must be idempotent under both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.dtd import sdtd
from repro.inference.collapse import collapse_equivalent, compute_equivalence

from tests.oracles import (
    collapse_equivalent_pairwise,
    compute_equivalence_pairwise,
)
from tests.strategies import sdtd_strategy

#: the library's collapse and the oracle's, by parametrize id
COLLAPSES = {
    "signature": collapse_equivalent,
    "pairwise": collapse_equivalent_pairwise,
}


@settings(max_examples=50, deadline=None)
@given(sdtd_strategy())
def test_backends_agree_on_random_sdtds(random_sdtd):
    by_signature = compute_equivalence(random_sdtd)
    by_pairwise = compute_equivalence_pairwise(random_sdtd)
    assert by_signature == by_pairwise


@settings(max_examples=30, deadline=None)
@given(sdtd_strategy())
def test_collapse_agrees_across_backends(random_sdtd):
    collapsed_sig, map_sig = collapse_equivalent(random_sdtd)
    collapsed_pair, map_pair = collapse_equivalent_pairwise(random_sdtd)
    assert map_sig == map_pair
    assert collapsed_sig.types == collapsed_pair.types
    assert collapsed_sig.root == collapsed_pair.root


@pytest.mark.parametrize("backend", sorted(COLLAPSES))
@settings(max_examples=25, deadline=None)
@given(random_sdtd=sdtd_strategy())
def test_collapse_is_idempotent(backend, random_sdtd):
    collapse = COLLAPSES[backend]
    collapsed, mapping = collapse(random_sdtd)
    assert set(mapping) == set(random_sdtd.types)
    again, mapping_again = collapse(collapsed)
    assert mapping_again == {key: key for key in collapsed.types}
    assert again.types == collapsed.types
    assert again.root == collapsed.root


@pytest.mark.parametrize("backend", sorted(COLLAPSES))
def test_example_3_4_publications_collapse(backend):
    # The paper's footnote-8 situation: two specializations with the
    # same type (up to renaming) merge into one.
    source = sdtd(
        {
            "v": "publication^1, publication^2",
            "publication^1": "title, author+",
            "publication^2": "title, author+",
            "title": "#PCDATA",
            "author": "#PCDATA",
        },
        root="v",
    )
    collapsed, mapping = COLLAPSES[backend](source)
    assert mapping[("publication", 1)] == mapping[("publication", 2)]
    assert ("publication", 0) in collapsed.types

