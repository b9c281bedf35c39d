"""Evaluation of pick-element XMAS queries over documents.

Semantics (Section 2.1):

* The tree condition is matched against the *document root*.
* Nesting in the condition means direct-child containment; a
  ``recursive`` step matches a chain of nested elements and applies its
  child conditions at the chain's end.
* Sibling conditions bind to pairwise-distinct children (the paper's
  standing assumption); explicit ``AND v1 != v2`` clauses additionally
  constrain variable bindings to distinct elements (ID inequality, the
  only negation in the language).
* The answer is a new document whose root is named after the view and
  whose content is the elements bound to the pick variable, in document
  order (depth-first left-to-right), each element contributed once.

Pick-element queries run on the compiled engine
(:mod:`repro.xmas.engine`), which projects picks over a document index.
This module's backtracking matcher enumerates complete binding
environments.  It serves the two cases the engine cannot project:
CONSTRUCT queries, which need every environment (:func:`bindings`), and
plans whose variables constrain bindings beyond the injective-sibling
rule (:func:`legacy_picked_elements`).
"""

from __future__ import annotations

from typing import Iterator

from ..xmlmodel import Document, Element
from .ast import Condition, Query

Binding = dict[str, Element]


def _check_inequalities(env: Binding, query: Query) -> bool:
    for pair in query.inequalities:
        first, second = tuple(pair)
        if first in env and second in env and env[first].id == env[second].id:
            return False
    return True


class _Matcher:
    """Backtracking tree-condition matcher with memoized subtree tests."""

    def __init__(self, query: Query) -> None:
        self.query = query
        #: memo[(node id, element id)] -> does the subtree match at all
        #: (ignoring variable constraints)?  Used to prune the search.
        self._memo: dict[tuple[int, str], bool] = {}

    # -- pure structural match (no variables), used for pruning ---------

    def may_match(self, node: Condition, element: Element) -> bool:
        key = (id(node), element.id)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._may_match_here(node, element)
        if not result and node.recursive and node.test.accepts(element.name):
            result = any(
                self.may_match(node, child) for child in element.children
            )
        self._memo[key] = result
        return result

    def _may_match_here(self, node: Condition, element: Element) -> bool:
        if not node.test.accepts(element.name):
            return False
        if node.pcdata is not None:
            return element.is_pcdata and element.text == node.pcdata
        if not node.children:
            return True
        if element.is_pcdata:
            return False
        return self._children_assignable(node.children, element.children)

    def _children_assignable(
        self,
        conditions: tuple[Condition, ...],
        children: list[Element],
    ) -> bool:
        """Injective matching of conditions to children (backtracking)."""

        def assign(index: int, used: frozenset[int]) -> bool:
            if index == len(conditions):
                return True
            condition = conditions[index]
            for position, child in enumerate(children):
                if position in used:
                    continue
                if self.may_match(condition, child):
                    if assign(index + 1, used | {position}):
                        return True
            return False

        return assign(0, frozenset())

    # -- full search producing variable environments --------------------

    def search(
        self,
        node: Condition,
        element: Element,
        env: Binding,
        picked: set[str] | None = None,
    ) -> Iterator[Binding]:
        """All environments extending ``env`` that match ``node`` at
        ``element`` (including chain descents for recursive steps).

        ``picked`` enables the pick-id short-circuit used by
        :func:`legacy_picked_elements`: a branch that binds the pick
        variable to an already-collected element is cut immediately --
        its completions could only re-derive a known pick.  The cut is
        sound unconditionally because it only affects which *pick*
        elements are reported, never whether one is.
        """
        if not self.may_match(node, element):
            return
        if node.test.accepts(element.name):
            yield from self._search_here(node, element, env, picked)
        if node.recursive and node.test.accepts(element.name):
            for child in element.children:
                yield from self.search(node, child, env, picked)

    def _search_here(
        self,
        node: Condition,
        element: Element,
        env: Binding,
        picked: set[str] | None,
    ) -> Iterator[Binding]:
        if not self._may_match_here(node, element):
            return
        if node.variable is not None:
            existing = env.get(node.variable)
            if existing is not None and existing.id != element.id:
                return
            if (
                picked is not None
                and node.variable == self.query.pick_variable
                and element.id in picked
            ):
                return
            env = dict(env)
            env[node.variable] = element
            if not _check_inequalities(env, self.query):
                return
        if not node.children:
            yield env
            return
        yield from self._assign_children(
            node.children, element.children, 0, frozenset(), env, picked
        )

    def _assign_children(
        self,
        conditions: tuple[Condition, ...],
        children: list[Element],
        index: int,
        used: frozenset[int],
        env: Binding,
        picked: set[str] | None,
    ) -> Iterator[Binding]:
        if index == len(conditions):
            yield env
            return
        condition = conditions[index]
        for position, child in enumerate(children):
            if position in used:
                continue
            for extended in self.search(condition, child, env, picked):
                yield from self._assign_children(
                    conditions,
                    children,
                    index + 1,
                    used | {position},
                    extended,
                    picked,
                )


def bindings(query: Query, document: Document) -> Iterator[Binding]:
    """All complete variable environments matching the query.

    Always the full enumeration (no pick short-circuit): construct
    queries and the reference tests consume every environment.
    """
    matcher = _Matcher(query)
    yield from matcher.search(query.root, document.root, {})


def legacy_picked_elements(query: Query, document: Document) -> list[Element]:
    """The pick set by enumeration, document order, no repeats.

    Enumerates binding environments, short-circuiting every branch
    whose pick binding is already collected: once the pick variable's
    element is determined and known, the remaining sibling assignments
    cannot add a new pick id, so they are never enumerated.
    """
    # One read of ``.root``: a stored document hydrates a whole tree
    # on every access.
    root = document.root
    picked_ids: set[str] = set()
    matcher = _Matcher(query)
    for env in matcher.search(query.root, root, {}, picked_ids):
        element = env.get(query.pick_variable)
        if element is not None:
            picked_ids.add(element.id)
    return [element for element in root.iter() if element.id in picked_ids]
