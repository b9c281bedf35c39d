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
  are unlikely to share a bug;
* :func:`index_verdict`, :func:`answer_intact` and :func:`matview_peek`
  -- freshness by scanning every element's last-edit stamp (what the
  per-element ``mutation_version`` fields held), against the bounded
  mutation journal of :mod:`repro.xmlmodel.element`.  The stamps come
  from :func:`recording_versions`, which journals nothing itself.

The compiled engine's oracle, full binding enumeration, stays in the
library (:func:`repro.xmas.legacy_picked_elements`): the engine still
falls back to it for plans it cannot project.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Sequence

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
from repro.xmlmodel import element as _element
from repro.xmlmodel.index import _structure_intact


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


# ---------------------------------------------------------------------------
# freshness by per-element scans
# ---------------------------------------------------------------------------

#: the stamp of an object's last journaled edit (0 = never edited)
Version = Callable[[object], int]


@contextmanager
def recording_versions() -> Iterator[Version]:
    """Record every journaled edit's stamp per object, without bound.

    Wraps the journal's recorder for the duration; the yielded
    function plays the deleted ``mutation_version`` fields.  Edited
    objects are kept alive so their ids stay theirs.
    """
    last: dict[int, int] = {}
    alive: list[object] = []
    record = _element._record

    def recording(obj: object) -> None:
        record(obj)
        last[id(obj)] = _element.mutation_stamp()
        alive.append(obj)

    _element._record = recording
    try:
        yield lambda obj: last.get(id(obj), 0)
    finally:
        _element._record = record


def index_fresh_at(index, stamp: int, version: Version) -> bool:
    """``DocumentIndex.fresh_at`` as a scan of every indexed element."""
    return max(map(version, index.order)) <= stamp


def index_is_fresh(document, index, version: Version) -> bool:
    """``repro.xmlmodel.index._index_is_fresh``: root and every element."""
    if version(document) > index.stamp:
        return False
    return index_fresh_at(index, index.stamp, version)


def index_verdict(document, index, stamp: int, version: Version) -> str:
    """``repro.xmlmodel.index._revalidate`` by scans: ``hit``,
    ``rearm``, ``content-rearm`` or ``rebuild``."""
    if stamp == index.stamp:
        return "hit"
    if index_is_fresh(document, index, version):
        return "rearm"
    if version(document) <= index.stamp:
        built = index.stamp
        mutated = [
            pos
            for pos, el in enumerate(index.order)
            if version(el) > built
        ]
        if _structure_intact(index, mutated):
            return "content-rearm"
    return "rebuild"


def answer_intact(entry, version: Version) -> bool:
    """``_Entry.answer_intact`` as a walk over every master element."""
    stamp = entry.stamp
    if (
        version(entry.answer) > stamp
        or version(entry.answer.root) > stamp
    ):
        return False
    for el in entry.answer.root.iter():
        if version(el) > stamp:
            return False
    return True


def doc_fresh_at(state, stamp: int, version: Version) -> bool:
    """A contributing document's freshness, for an in-memory index."""
    if version(state.document) > stamp:
        return False
    return index_fresh_at(state.index, stamp, version)


def matview_peek(cache, view_name, version: Version) -> str:
    """``MatViewCache.peek`` with every freshness question scanned."""
    entry = cache._entries.get(view_name)
    if entry is None:
        return "cold"
    if not cache._docs_unchanged(entry):
        return "recompute"
    if _element.mutation_stamp() == entry.stamp:
        return "hit"
    if not answer_intact(entry, version):
        return "recompute"
    dirty = [
        state
        for state in entry.docs
        if not doc_fresh_at(state, entry.stamp, version)
    ]
    if not dirty:
        return "hit"
    if (
        entry.spliceable
        and len(dirty) == 1
        and entry.legs[dirty[0].leg].delta_query is not None
    ):
        return "delta"
    return "recompute"
