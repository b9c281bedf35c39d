"""Reference implementations kept as differential-testing oracles.

The library answers each question one way.  These are the slower,
independent formulations the property tests compare it against:

* :func:`is_equivalent_pairwise` -- language equality as emptiness of
  the symmetric-difference product automaton, against the signature
  kernel's :func:`repro.regex.is_equivalent`;
* :func:`compute_equivalence_pairwise` / :func:`collapse_equivalent_pairwise`
  -- the collapse fixpoint refined by comparing every member against
  each bucket's pivot, against the signature grouping of
  :mod:`repro.inference.collapse`;
* :func:`matches_by_derivatives` -- regular-language membership by
  iterated Brzozowski derivatives, against the Glushkov/DFA path of
  :func:`repro.regex.matches`: two engines built from different theory
  are unlikely to share a bug.

The compiled engine's oracle, full binding enumeration, stays in the
library (:func:`repro.xmas.legacy_picked_elements`): the engine still
falls back to it for plans it cannot project.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.dtd import Pcdata, SpecializedDtd, TaggedName
from repro.inference.collapse import (
    _classes_to_result,
    _collapse_classes,
    _initial_classes,
    _rep_map,
)
from repro.regex import Regex, Sym, rename
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Alt,
    Concat,
    Empty,
    Epsilon,
    Opt,
    Plus,
    Star,
    alt,
    concat,
    nullable,
    star,
)
from repro.regex.dfa import product
from repro.regex.language import _aligned


@lru_cache(maxsize=None)
def _pairwise_equivalent(left: Regex, right: Regex) -> bool:
    a, b = _aligned(left, right)
    return product(a, b, lambda x, y: x != y).is_empty()


def is_equivalent_pairwise(left: Regex, right: Regex) -> bool:
    """Language equality by the symmetric-difference product.

    The call is symmetric, so arguments are normalized to a canonical
    order and ``(a, b)`` / ``(b, a)`` share one cache entry.
    """
    if left is right:
        return True
    if (right._hash, id(right)) < (left._hash, id(left)):
        left, right = right, left
    return _pairwise_equivalent(left, right)


def _split_pairwise(
    sdtd: SpecializedDtd,
    members: list[TaggedName],
    rep_map: dict[TaggedName, Sym],
) -> list[list[TaggedName]]:
    """One refinement step: compare each member against the pivots."""
    buckets: list[tuple[object, list[TaggedName]]] = []
    for key in members:
        content = sdtd.types[key]
        if not isinstance(content, Pcdata):
            content = rename(content, rep_map)
        for pivot, bucket in buckets:
            if isinstance(content, Pcdata) and isinstance(pivot, Pcdata):
                bucket.append(key)
                break
            if (
                isinstance(content, Regex)
                and isinstance(pivot, Regex)
                and is_equivalent_pairwise(content, pivot)
            ):
                bucket.append(key)
                break
        else:
            buckets.append((content, [key]))
    return [bucket for _, bucket in buckets]


def compute_equivalence_pairwise(
    sdtd: SpecializedDtd,
) -> dict[TaggedName, TaggedName]:
    """:func:`repro.inference.collapse.compute_equivalence`, pairwise."""
    classes = _initial_classes(sdtd)
    while True:
        rep_map = _rep_map(classes)
        new_classes: list[list[TaggedName]] = []
        for members in classes:
            if len(members) == 1:
                new_classes.append(members)
            else:
                new_classes.extend(_split_pairwise(sdtd, members, rep_map))
        if len(new_classes) == len(classes):
            return _classes_to_result(classes)
        classes = new_classes


def collapse_equivalent_pairwise(
    sdtd: SpecializedDtd,
) -> tuple[SpecializedDtd, dict[TaggedName, TaggedName]]:
    """:func:`repro.inference.collapse.collapse_equivalent`, pairwise."""
    return _collapse_classes(sdtd, compute_equivalence_pairwise(sdtd))


@lru_cache(maxsize=65536)
def derivative(regex: Regex, letter: tuple[str, int]) -> Regex:
    """The Brzozowski derivative of ``regex`` by ``letter``.

    The derivative of a language L by a letter a is ``{w : aw in L}``.
    """
    if isinstance(regex, Sym):
        return EPSILON if regex.key() == letter else EMPTY
    if isinstance(regex, (Epsilon, Empty)):
        return EMPTY
    if isinstance(regex, Concat):
        head, *tail = regex.items
        rest = concat(*tail)
        with_head = concat(derivative(head, letter), rest)
        if nullable(head):
            return alt(with_head, derivative(rest, letter))
        return with_head
    if isinstance(regex, Alt):
        return alt(*(derivative(item, letter) for item in regex.items))
    if isinstance(regex, (Star, Plus)):
        # r+ = r, r*
        return concat(derivative(regex.item, letter), star(regex.item))
    if isinstance(regex, Opt):
        return derivative(regex.item, letter)
    raise TypeError(f"unknown regex node {regex!r}")


def matches_by_derivatives(regex: Regex, word: Sequence[Sym]) -> bool:
    """Membership: the iterated derivative by ``word`` is nullable."""
    current = regex
    for symbol in word:
        current = derivative(current, symbol.key())
        if isinstance(current, Empty):
            return False
    return nullable(current)
