"""Algebraic simplification of regular expressions.

The refinement operators of Section 4.1 produce correct but verbose
expressions (Example 4.3 shows a merged type with four alternatives
that "can be simplified" to D2's type).  This module makes inferred
types readable:

* :func:`simplify` applies safe syntactic rewrites bottom-up until a
  fixpoint (constant folding is already done by the smart constructors;
  here we add factoring and idempotence rules that need a global view).
* :func:`prune_subsumed` additionally uses *exact* language-inclusion
  tests to drop alternation branches already covered by their siblings
  -- semantic, still language-preserving.

Neither changes the described language; property tests assert this.
"""

from __future__ import annotations

from .ast import (
    Alt,
    Concat,
    Empty,
    Epsilon,
    Opt,
    Plus,
    Regex,
    Star,
    Sym,
    alt,
    concat,
    opt,
    plus,
    star,
)
from .language import is_equivalent, is_subset


def _rebuild(node: Regex, memo: dict[Regex, Regex]) -> Regex:
    """One bottom-up pass of local rewrites.

    The pass is pure, so ``memo`` (owned by one :func:`simplify` call)
    maps every node already rebuilt to its result and each distinct
    node of the shared input is rebuilt once.
    """
    if isinstance(node, (Sym, Epsilon, Empty)):
        return node
    done = memo.get(node)
    if done is not None:
        return done
    if isinstance(node, Concat):
        items = [_rebuild(i, memo) for i in node.items]
        out = concat(*_fuse_repetitions(items))
    elif isinstance(node, Alt):
        items = [_rebuild(i, memo) for i in node.items]
        # epsilon | r  ==>  r?   (and drop further epsilons)
        if any(isinstance(i, Epsilon) for i in items):
            rest = [i for i in items if not isinstance(i, Epsilon)]
            out = opt(alt(*rest)) if rest else Epsilon()
        else:
            out = alt(*items)
    elif isinstance(node, Star):
        inner = _rebuild(node.item, memo)
        # (r1? | r2)* == (r1 | r2)*: optionality inside a star is noise.
        out = star(_strip_nullability_markers(inner))
    elif isinstance(node, Plus):
        out = plus(_rebuild(node.item, memo))
    elif isinstance(node, Opt):
        out = opt(_rebuild(node.item, memo))
    else:
        raise TypeError(f"unknown regex node {node!r}")
    memo[node] = out
    return out


def _strip_nullability_markers(node: Regex) -> Regex:
    """Under a star, ``r?`` and ``r+`` may be replaced by ``r``/kept tight.

    ``(a?)* == a*`` and ``(a+)* == a*``; similarly inside a top-level
    alternation under the star.
    """
    if isinstance(node, (Opt, Plus)):
        return _strip_nullability_markers(node.item)
    if isinstance(node, Alt):
        return alt(*(_strip_nullability_markers(i) for i in node.items))
    return node


def _rep_parts(node: Regex) -> tuple[Regex, int, bool]:
    """Decompose an item as (body, min_count, unbounded)."""
    if isinstance(node, Star):
        return (node.item, 0, True)
    if isinstance(node, Plus):
        return (node.item, 1, True)
    if isinstance(node, Opt):
        return (node.item, 0, False)
    return (node, 1, False)


def _fuse_repetitions(items: list[Regex]) -> list[Regex]:
    """Fuse runs of repetitions of one body.

    ``a*, a, a*`` becomes ``a+``; ``a, a+, a*`` becomes ``a, a, a*``;
    bounded-only runs (``a?, a``) are left alone because DTD syntax has
    no counted repetition.
    """
    out: list[Regex] = []
    index = 0
    while index < len(items):
        body, minimum, unbounded = _rep_parts(items[index])
        end = index + 1
        while end < len(items):
            next_body, next_min, next_unbounded = _rep_parts(items[end])
            if next_body != body:
                break
            minimum += next_min
            unbounded = unbounded or next_unbounded
            end += 1
        if end - index > 1 and unbounded:
            if minimum == 0:
                out.append(star(body))
            else:
                out.extend([body] * (minimum - 1))
                out.append(plus(body))
        else:
            out.extend(items[index:end])
        index = end
    return out


def simplify(node: Regex) -> Regex:
    """Apply syntactic rewrites until a fixpoint."""
    memo: dict[Regex, Regex] = {}  # shared by every round: the pass is pure
    current = node
    for _ in range(32):  # fixpoint guard; rewrites strictly shrink
        rebuilt = _rebuild(current, memo)
        if rebuilt == current:
            return current
        current = rebuilt
    return current


def prune_subsumed(node: Regex) -> Regex:
    """Drop alternation branches subsumed by their siblings (exact).

    Applied bottom-up; every drop is justified by a language-inclusion
    test, so the result is equivalent to the input.  Each distinct
    node of the shared input is pruned once per call.
    """
    return _prune_subsumed(node, {})


def _prune_subsumed(node: Regex, memo: dict[Regex, Regex]) -> Regex:
    if isinstance(node, (Sym, Epsilon, Empty)):
        return node
    done = memo.get(node)
    if done is not None:
        return done
    if isinstance(node, Concat):
        out = concat(*(_prune_subsumed(i, memo) for i in node.items))
    elif isinstance(node, Star):
        out = star(_prune_subsumed(node.item, memo))
    elif isinstance(node, Plus):
        out = plus(_prune_subsumed(node.item, memo))
    elif isinstance(node, Opt):
        out = opt(_prune_subsumed(node.item, memo))
    elif isinstance(node, Alt):
        items = [_prune_subsumed(i, memo) for i in node.items]
        kept: list[Regex] = []
        for index, item in enumerate(items):
            others = kept + items[index + 1:]
            if others and is_subset(item, alt(*others)):
                continue
            kept.append(item)
        out = alt(*kept)
    else:
        raise TypeError(f"unknown regex node {node!r}")
    memo[node] = out
    return out


def simplify_deep(node: Regex) -> Regex:
    """Syntactic simplification plus semantic subsumption pruning.

    The result is language-equivalent to the input (asserted in debug
    builds via :func:`repro.regex.language.is_equivalent`).
    """
    result = simplify(prune_subsumed(simplify(node)))
    if __debug__ and not is_equivalent(node, result):  # pragma: no cover
        raise AssertionError(
            f"simplification changed the language: {node} -> {result}"
        )
    return result
