"""The inference walks visit each distinct node of a shared regex once.

Regex nodes are hash-consed, so an inferred type is a DAG whose tree
unfolding can be exponentially larger than the DAG.  The work bound
counts the recursive calls of each walk (by wrapping the module-level
function the walk recurses through) on a DAG whose unfolding doubles
per level; the count must stay linear in the DAG.  The identity
differential compares each walk with its tree-walking oracle in
``tests/oracles.py`` by node identity, on random regexes that reuse
drawn subterms and on whole view inferences.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd import Pcdata, dtd
from repro.errors import ReproError
from repro.inference import InferenceMode, infer_view_dtd, listtype
from repro.inference.classify import Classification
from repro.inference.collapse import collapse_equivalent
from repro.inference.tighten import NodeTyping
from repro.regex import (
    Alt,
    Concat,
    Opt,
    Plus,
    Regex,
    Star,
    alt,
    concat,
    opt,
    plus,
    simplify,
    star,
    substitute,
    sym,
)
from repro.regex import ast as regex_ast
from repro.regex.simplify import prune_subsumed
from repro.xmas import cond

from tests.oracles import (
    project_tree,
    prune_subsumed_tree,
    simplify_tree,
    substitute_tree,
    tree_walks,
)
from tests.strategies import pick_query_strategy, regex_strategy, sdtd_strategy

simplify_module = importlib.import_module("repro.regex.simplify")

DEPTH = 16


def alt_dag(depth: int, leaf: Regex = sym("a")) -> Regex:
    """``r_{i+1} = (b_i, r_i) | (c_i, r_i)``: the unfolding doubles per level."""
    r = leaf
    for i in range(depth):
        r = alt(concat(sym(f"b{i}"), r), concat(sym(f"c{i}"), r))
    return r


def star_dag(depth: int) -> Regex:
    """``r_{i+1} = b_i, r_i*, c_i, r_i?``: doubling, with no alternation.

    Without an alternation no subsumption test runs, so pruning costs
    only its walk (a language test on the unfolding would not).
    """
    r: Regex = sym("a")
    for i in range(depth):
        r = concat(sym(f"b{i}"), star(r), sym(f"c{i}"), opt(r))
    return r


def children(node: Regex) -> tuple[Regex, ...]:
    if isinstance(node, (Concat, Alt)):
        return node.items
    if isinstance(node, (Star, Plus, Opt)):
        return (node.item,)
    return ()


def dag_edges(root: Regex) -> tuple[int, int]:
    """``(distinct nodes, parent-child edges between them)``."""
    seen = {root}
    stack = [root]
    edges = 0
    while stack:
        for child in children(stack.pop()):
            edges += 1
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen), edges


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count every call of ``module.name``, recursive ones included."""
    original = getattr(module, name)
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def a_typing() -> NodeTyping:
    """A step typing that keeps only ``a`` positions, all of them valid."""
    return NodeTyping(
        cond("a"), keys={"a": ("a", 0)}, classes={"a": Classification.VALID}
    )


#: (walk, module it recurses through, recursive function, DAG builder)
WALKS = {
    "substitute": (
        lambda r: substitute(r, {("a", 0): alt(sym("x"), sym("y"))}),
        regex_ast,
        "_substitute",
        alt_dag,
    ),
    "simplify": (simplify, simplify_module, "_rebuild", alt_dag),
    "prune_subsumed": (
        prune_subsumed,
        simplify_module,
        "_prune_subsumed",
        star_dag,
    ),
    "project": (
        lambda r: listtype._project(r, a_typing(), InferenceMode.EXACT, {}),
        listtype,
        "_project",
        alt_dag,
    ),
}


class TestWorkBound:
    @pytest.mark.parametrize("walk_name", sorted(WALKS))
    def test_calls_are_linear_in_distinct_nodes(self, monkeypatch, walk_name):
        walk, module, name, build = WALKS[walk_name]
        dag = build(DEPTH)
        nodes, edges = dag_edges(dag)
        assert dag.n_nodes > 2**DEPTH > 100 * nodes  # the unfolding is huge
        calls = count_calls(monkeypatch, module, name)
        walk(dag)
        # one call for the root plus at most one per edge of the DAG
        assert 0 < calls[0] <= 1 + edges, (walk_name, calls[0], nodes, edges)

    def test_substitute_renames_through_shared_subterms(self):
        dag = alt_dag(DEPTH)
        renamed = substitute(dag, {("a", 0): sym("a", 3)})
        assert renamed is alt_dag(DEPTH, leaf=sym("a", 3))


# -- identity differential -----------------------------------------------------


@st.composite
def shared_regexes(draw):
    """Regexes assembled from a pool, so drawn subterms recur."""
    pool = draw(st.lists(regex_strategy(tags=(0, 1)), min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        left = draw(st.sampled_from(pool))
        right = draw(st.sampled_from(pool))
        combine = draw(
            st.sampled_from(
                (
                    lambda x, y: concat(x, y),
                    lambda x, y: alt(x, y),
                    lambda x, y: concat(star(x), opt(y), x),
                    lambda x, y: alt(concat(x, y), concat(y, x)),
                    lambda x, y: plus(alt(x, y)),
                )
            )
        )
        pool.append(combine(left, right))
    return pool[-1]


def replacements_strategy():
    letters = st.tuples(st.sampled_from(("a", "b", "c")), st.sampled_from((0, 1)))
    targets = st.one_of(
        st.builds(sym, st.sampled_from(("a", "b", "d")), st.sampled_from((0, 2))),
        regex_strategy(names=("b", "d"), max_leaves=4),
    )
    return st.dictionaries(letters, targets, max_size=3)


class TestIdentityDifferential:
    @settings(max_examples=150, deadline=None)
    @given(shared_regexes(), replacements_strategy())
    def test_substitute_matches_the_tree_walk(self, r, replacements):
        assert substitute(r, replacements) is substitute_tree(r, replacements)

    @settings(max_examples=150, deadline=None)
    @given(shared_regexes())
    def test_simplify_matches_the_tree_walk(self, r):
        assert simplify(r) is simplify_tree(r)

    @settings(max_examples=100, deadline=None)
    @given(shared_regexes())
    def test_prune_subsumed_matches_the_tree_walk(self, r):
        assert prune_subsumed(r) is prune_subsumed_tree(r)

    @settings(max_examples=150, deadline=None)
    @given(
        shared_regexes(),
        st.sampled_from(list(InferenceMode)),
        st.sampled_from((Classification.VALID, Classification.SATISFIABLE)),
    )
    def test_project_matches_the_tree_walk(self, r, mode, klass):
        typing = NodeTyping(
            cond("a"), keys={"a": ("a", 1), "b": ("b", 0)},
            classes={"a": klass, "b": Classification.SATISFIABLE},
        )
        projected = listtype._project(r, typing, mode, {})
        assert projected is project_tree(r, typing, mode)

    @settings(max_examples=40, deadline=None)
    @given(sdtd_strategy())
    def test_collapse_matches_under_tree_walks(self, random_sdtd):
        collapsed, mapping = collapse_equivalent(random_sdtd)
        with tree_walks():
            collapsed_tree, mapping_tree = collapse_equivalent(random_sdtd)
        assert mapping == mapping_tree
        assert_same_types(collapsed.types, collapsed_tree.types)

    @settings(max_examples=60, deadline=None)
    @given(sdtd_strategy(tags=(0,)), st.data())
    def test_view_inference_matches_under_tree_walks(self, random_sdtd, data):
        source = dtd(
            {
                ("r" if key == ("v", 0) else key[0]): content
                for key, content in random_sdtd.types.items()
            },
            root="r",
        )
        children_map = {
            name: sorted({n for n, _ in content.letters})
            for name, content in source.types.items()
            if not isinstance(content, Pcdata)
        }
        query = data.draw(pick_query_strategy(children_map, "r"))
        # Both modes in one example: a memo that outlived its call would
        # hand the second mode the first mode's projections.
        memoized = [infer_or_error(source, query, mode) for mode in InferenceMode]
        with tree_walks():
            unfolded = [infer_or_error(source, query, mode) for mode in InferenceMode]
        for mine, theirs in zip(memoized, unfolded):
            if isinstance(mine, ReproError):
                assert type(theirs) is type(mine)
                continue
            assert mine.list_type is theirs.list_type
            assert_same_types(mine.sdtd.types, theirs.sdtd.types)
            assert_same_types(mine.dtd.types, theirs.dtd.types)


def infer_or_error(source, query, mode):
    try:
        return infer_view_dtd(source, query, mode)
    except ReproError as error:
        return error


def assert_same_types(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for key, content in left.items():
        if isinstance(content, Pcdata):
            assert isinstance(right[key], Pcdata), key
        else:
            assert content is right[key], key
