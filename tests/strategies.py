"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from repro.regex import EPSILON, alt, concat, opt, plus, star, sym
from repro.xmas import cond
from repro.xmas import query as make_query
from repro.xmlmodel import Document, Element

#: small alphabet used by the random regex strategies
NAMES = ("a", "b", "c")


def symbols_strategy(names=NAMES, tags=(0,)):
    """Random (possibly tagged) name symbols."""
    return st.builds(
        sym,
        st.sampled_from(names),
        st.sampled_from(tags),
    )


def regex_strategy(names=NAMES, tags=(0,), max_leaves: int = 8):
    """Random regular expressions built through the smart constructors."""
    leaves = st.one_of(
        symbols_strategy(names, tags),
        st.just(EPSILON),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: concat(a, b), children, children),
            st.builds(lambda a, b: alt(a, b), children, children),
            st.builds(star, children),
            st.builds(plus, children),
            st.builds(opt, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def sdtd_strategy(names=("a", "b"), tags=(0, 1, 2), max_leaves: int = 6):
    """Random specialized DTDs, always consistent by construction.

    Every ``(name, tag)`` combination over the given alphabet is
    declared (so content models drawn over the same alphabet can never
    reference an undeclared key), each with either ``#PCDATA`` or a
    random tagged content model; a root ``v`` holds one more random
    model.  Tag collisions are frequent on purpose: the collapse
    differential tests want partitions with real merge opportunities.
    """
    from repro.dtd import PCDATA, SpecializedDtd

    keys = [(name, tag) for name in names for tag in tags]
    contents = st.one_of(
        st.just(PCDATA),
        regex_strategy(names, tags, max_leaves),
    )

    @st.composite
    def _sdtds(draw):
        types = {key: draw(contents) for key in keys}
        types[("v", 0)] = draw(regex_strategy(names, tags, max_leaves))
        return SpecializedDtd(types, ("v", 0))

    return _sdtds()


def words_strategy(names=NAMES, max_size: int = 6):
    """Random words over the alphabet (as Sym lists)."""
    return st.lists(
        symbols_strategy(names), min_size=0, max_size=max_size
    )


def condition_strategy(children_map, name, max_depth: int = 3, max_children: int = 2):
    """Random condition trees over a parent -> candidate-children map.

    The map controls nesting, so callers steer satisfiability: a map
    mirroring the DTD yields satisfiable trees, a map with impossible
    nestings yields unsatisfiable ones (the lint property tests want a
    mix of both).
    """

    @st.composite
    def _tree(draw, node_name, depth):
        options = sorted(children_map.get(node_name, ()))
        n_children = 0
        if options and depth < max_depth:
            n_children = draw(st.integers(min_value=0, max_value=max_children))
        children = []
        for _ in range(n_children):
            child_name = draw(st.sampled_from(options))
            children.append(draw(_tree(child_name, depth + 1)))
        return cond(node_name, children=tuple(children))

    return _tree(name, 0)


def document_strategy(
    names=NAMES,
    texts=("", "x", "y"),
    max_leaves: int = 16,
):
    """Random documents over a small name alphabet.

    Element IDs come from the model's ``fresh_id`` counter, so the
    documents are well-formed (unique IDs) -- the standing assumption
    of the evaluator.
    """
    leaves = st.one_of(
        st.builds(
            lambda name, text: Element(name, text),
            st.sampled_from(names),
            st.sampled_from(texts),
        ),
        st.builds(lambda name: Element(name, []), st.sampled_from(names)),
    )

    def extend(children):
        return st.builds(
            lambda name, kids: Element(name, list(kids)),
            st.sampled_from(names),
            st.lists(children, min_size=1, max_size=3),
        )

    return st.builds(
        Document, st.recursive(leaves, extend, max_leaves=max_leaves)
    )


def eval_query_strategy(
    names=NAMES,
    texts=("", "x", "y"),
    max_depth: int = 3,
    view_name: str = "v",
    pick_variable: str = "P",
    repeat_variables: bool = False,
):
    """Random pick-element queries for evaluator differential tests.

    Covers the full evaluable language: name disjunctions and
    wildcards, PCDATA equality, recursive steps, extra variables, and
    ID inequalities (drawn over arbitrary variable pairs, so some
    queries exercise the compiled engine's enumeration fallback and
    others its pick-projection path).  With ``repeat_variables`` the
    root always has child conditions and draws at least one extra
    variable, about half the queries bind one of their variables (the
    pick variable included) at a second node, and every query with two
    bound variables gets an inequality.
    """

    test_names = st.one_of(
        st.just(None),  # wildcard
        st.lists(
            st.sampled_from(names), min_size=1, max_size=2, unique=True
        ),
    )

    @st.composite
    def _conditions(draw, depth, branch=False):
        chosen = draw(test_names)
        recursive = chosen is not None and draw(st.integers(0, 3)) == 0
        kind = 3 if branch else draw(st.integers(0, 3))
        if kind == 0:
            return cond(
                *(chosen or ()),
                pcdata=draw(st.sampled_from(texts)),
                recursive=recursive,
            )
        n_children = 0
        if depth < max_depth and kind == 3:
            n_children = draw(st.integers(1, 2))
        children = tuple(
            draw(_conditions(depth + 1)) for _ in range(n_children)
        )
        return cond(*(chosen or ()), children=children, recursive=recursive)

    @st.composite
    def _queries(draw):
        root = draw(_conditions(0, branch=repeat_variables))
        nodes = list(root.iter_nodes())
        pick_index = draw(st.integers(0, len(nodes) - 1))
        extra_vars = draw(
            st.sets(
                st.sampled_from(("A", "B", "C")),
                min_size=int(repeat_variables),
                max_size=2,
            )
        )
        variables: list[str | None] = [None] * len(nodes)
        variables[pick_index] = pick_variable
        for extra in sorted(extra_vars):
            slot = draw(st.integers(0, len(nodes) - 1))
            if variables[slot] is None:
                variables[slot] = extra
        unbound = [i for i, v in enumerate(variables) if v is None]
        if repeat_variables and unbound and draw(st.booleans()):
            repeated = draw(st.sampled_from(sorted(set(variables) - {None})))
            variables[draw(st.sampled_from(unbound))] = repeated
        counter = [-1]

        def rebuild(node):
            counter[0] += 1
            variable = variables[counter[0]]
            return replace(
                node,
                variable=variable,
                children=tuple(rebuild(child) for child in node.children),
            )

        rebuilt = rebuild(root)
        bound = sorted({v for v in variables if v is not None})
        inequalities = []
        if len(bound) >= 2 and (repeat_variables or draw(st.booleans())):
            pair = draw(
                st.lists(
                    st.sampled_from(bound), min_size=2, max_size=2, unique=True
                )
            )
            inequalities.append(tuple(pair))
        return make_query(view_name, pick_variable, rebuilt, inequalities)

    return _queries()


def pick_query_strategy(
    children_map,
    root_name,
    view_name: str = "v",
    pick_variable: str = "P",
    max_depth: int = 3,
):
    """Random pick-element queries: a condition tree with one pick node."""

    @st.composite
    def _queries(draw):
        root = draw(condition_strategy(children_map, root_name, max_depth))
        nodes = list(root.iter_nodes())
        pick_index = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        counter = [-1]

        def rebuild(node):
            counter[0] += 1
            variable = pick_variable if counter[0] == pick_index else None
            return replace(
                node,
                variable=variable,
                children=tuple(rebuild(child) for child in node.children),
            )

        return make_query(view_name, pick_variable, rebuild(root))

    return _queries()
