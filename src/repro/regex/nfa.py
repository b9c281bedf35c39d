"""Glushkov (position) automaton construction.

The Glushkov automaton of a regular expression has one state per symbol
*occurrence* (position) plus a start state, and no epsilon transitions.
It is the standard construction for DTD content models: XML 1.0's
"deterministic content model" rule is exactly the requirement that the
Glushkov automaton be deterministic.

States are integers: ``0`` is the start state; positions are numbered
``1..n`` in left-to-right occurrence order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Alt, Concat, Empty, Epsilon, Opt, Plus, Regex, Star, Sym, nullable


@dataclass(frozen=True)
class Nfa:
    """A Glushkov automaton.

    Attributes:
        n_positions: number of symbol occurrences in the expression.
        labels: ``labels[i]`` is the (name, tag) letter of position ``i+1``.
        first: positions that can start a word.
        last: positions that can end a word.
        follow: ``follow[p]`` is the set of positions that may follow ``p``.
        accepts_epsilon: whether the empty word is in the language.
    """

    n_positions: int
    labels: tuple[tuple[str, int], ...]
    first: frozenset[int]
    last: frozenset[int]
    follow: tuple[frozenset[int], ...]
    accepts_epsilon: bool

    def label(self, position: int) -> tuple[str, int]:
        """The letter carried by 1-based ``position``."""
        return self.labels[position - 1]

    def follow_of(self, position: int) -> frozenset[int]:
        """Positions reachable in one step from 1-based ``position``."""
        return self.follow[position - 1]

    def is_deterministic(self) -> bool:
        """XML 1.0 determinism: no state has two successors with one letter."""
        sources = [self.first] + [self.follow_of(p) for p in range(1, self.n_positions + 1)]
        for successors in sources:
            seen: set[tuple[str, int]] = set()
            for q in successors:
                letter = self.label(q)
                if letter in seen:
                    return False
                seen.add(letter)
        return True


@dataclass
class _Facts:
    """first/last/follow facts computed during the Glushkov recursion."""

    first: frozenset[int]
    last: frozenset[int]
    nullable: bool


def build_nfa(regex: Regex) -> Nfa:
    """Construct the Glushkov automaton of ``regex``."""
    labels: list[tuple[str, int]] = []
    follow: list[set[int]] = []

    def visit(node: Regex) -> _Facts:
        if isinstance(node, Sym):
            labels.append(node.key())
            follow.append(set())
            position = len(labels)
            singleton = frozenset((position,))
            return _Facts(singleton, singleton, False)
        if isinstance(node, Epsilon):
            return _Facts(frozenset(), frozenset(), True)
        if isinstance(node, Empty):
            return _Facts(frozenset(), frozenset(), False)
        if isinstance(node, Concat):
            facts = [visit(item) for item in node.items]
            # A concat of a nullable item contributes the next item's
            # first set transitively; fold left-to-right.
            combined_first: set[int] = set()
            for fact in facts:
                combined_first |= fact.first
                if not fact.nullable:
                    break
            combined_last: set[int] = set()
            for fact in reversed(facts):
                combined_last |= fact.last
                if not fact.nullable:
                    break
            # last -> first wiring must also skip nullable middles.
            for i, left in enumerate(facts[:-1]):
                reach: set[int] = set()
                for right in facts[i + 1:]:
                    reach |= right.first
                    if not right.nullable:
                        break
                for p in left.last:
                    follow[p - 1] |= reach
            return _Facts(
                frozenset(combined_first),
                frozenset(combined_last),
                all(f.nullable for f in facts),
            )
        if isinstance(node, Alt):
            facts = [visit(item) for item in node.items]
            return _Facts(
                frozenset().union(*(f.first for f in facts)),
                frozenset().union(*(f.last for f in facts)),
                any(f.nullable for f in facts),
            )
        if isinstance(node, (Star, Plus)):
            inner = visit(node.item)
            for p in inner.last:
                follow[p - 1] |= inner.first
            is_nullable = True if isinstance(node, Star) else inner.nullable
            return _Facts(inner.first, inner.last, is_nullable)
        if isinstance(node, Opt):
            inner = visit(node.item)
            return _Facts(inner.first, inner.last, True)
        raise TypeError(f"unknown regex node {node!r}")

    facts = visit(regex)
    return Nfa(
        n_positions=len(labels),
        labels=tuple(labels),
        first=facts.first,
        last=facts.last,
        follow=tuple(frozenset(f) for f in follow),
        accepts_epsilon=facts.nullable or nullable(regex),
    )
