"""Abstract syntax for pick-element XMAS queries (Section 2.1).

A pick-element query has a SELECT clause with a single *pick variable*
and a WHERE clause with one tree condition over one source, plus ID
inequalities (the only permitted negation).  Element-name positions may
hold a constant, a disjunction of constants, or a wildcard variable
(which the preprocessing stage of the paper replaces by the disjunction
of all source names -- :func:`expand_wildcards`).

The elements binding to the pick variable are grouped, in document
order (depth-first left-to-right), under a new root named after the
view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from ..errors import QueryAnalysisError


@dataclass(frozen=True)
class NameTest:
    """The element-name position of a condition.

    ``names`` is a disjunction of constants; ``None`` means a wildcard
    (an element-name variable not otherwise constrained), which must be
    expanded against a DTD before inference.
    """

    names: tuple[str, ...] | None

    def __post_init__(self) -> None:
        if self.names is not None and not self.names:
            raise ValueError("a name test needs at least one name")

    @property
    def is_wildcard(self) -> bool:
        return self.names is None

    def accepts(self, name: str) -> bool:
        """Does this test match the given element name?"""
        return self.names is None or name in self.names

    def __str__(self) -> str:
        if self.names is None:
            return "*"
        return " | ".join(self.names)


def name_test(*names: str) -> NameTest:
    """A constant or disjunctive name test."""
    return NameTest(tuple(names))


WILDCARD = NameTest(None)


@dataclass(frozen=True)
class Condition:
    """A node of the tree condition.

    Matching an element requires: the name test accepts the element's
    name; the PCDATA constraint (if any) equals the element's text; and
    each child condition is matched by a *distinct* direct child
    (the paper's assumption that sibling conditions bind to different
    elements).  A ``recursive`` condition matches a chain of one or
    more nested elements all accepted by the name test, the chain
    length being chosen existentially and the child conditions applying
    at the chain's last element (Example 3.5's ``<section*>``).
    """

    test: NameTest
    variable: str | None = None
    children: tuple["Condition", ...] = ()
    pcdata: str | None = None
    recursive: bool = False

    def __post_init__(self) -> None:
        if self.pcdata is not None and self.children:
            raise ValueError("a condition cannot require both text and children")

    def iter_nodes(self) -> Iterator["Condition"]:
        """Preorder traversal of the condition tree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def variables(self) -> frozenset[str]:
        """All variables bound anywhere in the subtree."""
        return frozenset(
            node.variable for node in self.iter_nodes() if node.variable
        )

    def __str__(self) -> str:
        prefix = f"{self.variable}:" if self.variable else ""
        star = "*" if self.recursive else ""
        if self.pcdata is not None:
            return f"{prefix}<{self.test}{star}>{self.pcdata}</>"
        if not self.children:
            return f"{prefix}<{self.test}{star}/>"
        inner = " ".join(str(child) for child in self.children)
        return f"{prefix}<{self.test}{star}> {inner} </>"


def cond(
    *names: str,
    var: str | None = None,
    children: tuple[Condition, ...] | list[Condition] = (),
    pcdata: str | None = None,
    recursive: bool = False,
) -> Condition:
    """Convenience condition constructor.

    ``cond()`` with no names builds a wildcard test.
    """
    test = WILDCARD if not names else name_test(*names)
    return Condition(test, var, tuple(children), pcdata, recursive)


@dataclass(frozen=True)
class Query:
    """A pick-element XMAS query / view definition.

    ``inequalities`` holds unordered variable pairs constrained by
    ``AND v1 != v2`` (ID inequality, the only negation in the
    language).  ``source`` optionally names the source the condition
    applies to (used by the mediator; inference only needs the DTD).
    :func:`repro.xmas.engine.compile_query` keeps the query's compiled
    plan on the query object itself, outside the compared fields.
    """

    view_name: str
    pick_variable: str
    root: Condition
    inequalities: frozenset[frozenset[str]] = frozenset()
    source: str | None = None

    def __post_init__(self) -> None:
        bound = self.root.variables()
        if self.pick_variable not in bound:
            raise QueryAnalysisError(
                f"pick variable {self.pick_variable!r} is not bound in the "
                f"WHERE clause (bound: {sorted(bound)})"
            )
        for pair in self.inequalities:
            if len(pair) != 2:
                raise QueryAnalysisError(
                    f"inequality must relate two distinct variables: {sorted(pair)}"
                )
            missing = pair - bound
            if missing:
                raise QueryAnalysisError(
                    f"inequality mentions unbound variables {sorted(missing)}"
                )

    def pick_nodes(self) -> list[Condition]:
        """Condition nodes binding the pick variable (normally one)."""
        return [
            node
            for node in self.root.iter_nodes()
            if node.variable == self.pick_variable
        ]

    def __str__(self) -> str:
        lines = [f"{self.view_name} =", f"  SELECT {self.pick_variable}", "  WHERE"]
        lines.append(f"    {self.root}")
        for pair in sorted(tuple(sorted(p)) for p in self.inequalities):
            lines.append(f"  AND {pair[0]} != {pair[1]}")
        return "\n".join(lines)


def query(
    view_name: str,
    pick_variable: str,
    root: Condition,
    inequalities: Iterator[tuple[str, str]] | list[tuple[str, str]] = (),
    source: str | None = None,
) -> Query:
    """Convenience query constructor with pair-tuple inequalities."""
    return Query(
        view_name,
        pick_variable,
        root,
        frozenset(frozenset(pair) for pair in inequalities),
        source,
    )


def expand_wildcards(q: Query, names: frozenset[str] | list[str]) -> Query:
    """Replace wildcard name tests with the disjunction of all names.

    This is the paper's preprocessing step: "we replace each element
    name variable with a disjunction of all names in the source DTDs".
    """
    all_names = tuple(sorted(names))
    if not all_names:
        raise QueryAnalysisError("cannot expand wildcards against an empty DTD")

    def rebuild(node: Condition) -> Condition:
        test = NameTest(all_names) if node.test.is_wildcard else node.test
        return replace(
            node,
            test=test,
            children=tuple(rebuild(child) for child in node.children),
        )

    return replace(q, root=rebuild(q.root))
