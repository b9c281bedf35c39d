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
* :func:`nfa_accepts` -- membership by simulating the Glushkov automaton
  state set by state set, against the subset-construction DFA of
  :func:`repro.regex.to_dfa`;
* :func:`substitute_tree`, :func:`simplify_tree`,
  :func:`prune_subsumed_tree` and :func:`project_tree` -- the inference
  walks revisiting every shared subterm of a hash-consed regex, against
  the library's walks, which visit each distinct node once per call
  (:func:`tree_walks` runs the whole library on them);
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

import importlib
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from repro.dtd import Pcdata, SpecializedDtd, TaggedName
from repro.inference import listtype as _listtype
from repro.inference.classify import InferenceMode
from repro.inference.collapse import (
    _classes_to_result,
    _collapse_classes,
    _initial_classes,
    _rep_map,
)
from repro.inference.listtype import _project
from repro.inference.tighten import NodeTyping
from repro.regex import Regex, Sym, is_subset, substitute
from repro.regex import ast as _ast
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Alt,
    Concat,
    Empty,
    Epsilon,
    Letter,
    Opt,
    Plus,
    Star,
    alt,
    concat,
    nullable,
    opt,
    plus,
    star,
)
from repro.regex.dfa import product
from repro.regex.nfa import Nfa
from repro.regex.language import _aligned
from repro.regex.simplify import _fuse_repetitions, _strip_nullability_markers
from repro.xmlmodel import element as _element
from repro.xmlmodel.index import _structure_intact

# ``repro.regex`` re-exports the function ``simplify`` under the
# module's own name, so the module is fetched from the import system.
_simplify = importlib.import_module("repro.regex.simplify")


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
            content = substitute(content, rep_map)
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


def nfa_accepts(nfa: Nfa, word: list[tuple[str, int]]) -> bool:
    """Simulate the Glushkov automaton on a word of (name, tag) letters."""
    if not word:
        return nfa.accepts_epsilon
    current: frozenset[int] = frozenset(
        p for p in nfa.first if nfa.label(p) == word[0]
    )
    for letter in word[1:]:
        if not current:
            return False
        next_states: set[int] = set()
        for p in current:
            for q in nfa.follow_of(p):
                if nfa.label(q) == letter:
                    next_states.add(q)
        current = frozenset(next_states)
    return bool(current & nfa.last)


# ---------------------------------------------------------------------------
# inference walks over the unfolded tree
# ---------------------------------------------------------------------------


def substitute_tree(r: Regex, replacements: Mapping[Letter, Regex]) -> Regex:
    """:func:`repro.regex.substitute`, revisiting every shared subterm."""
    if not replacements:
        return r
    keys = set(replacements)

    def walk(node: Regex) -> Regex:
        if node.letters.isdisjoint(keys):
            return node
        if isinstance(node, Sym):
            return replacements.get(node.key(), node)
        if isinstance(node, Concat):
            return concat(*(walk(i) for i in node.items))
        if isinstance(node, Alt):
            return alt(*(walk(i) for i in node.items))
        if isinstance(node, Star):
            return star(walk(node.item))
        if isinstance(node, Plus):
            return plus(walk(node.item))
        if isinstance(node, Opt):
            return opt(walk(node.item))
        return node

    return walk(r)


def rebuild_tree(node: Regex) -> Regex:
    """One pass of :func:`repro.regex.simplify`'s rewrites, unmemoized."""
    if isinstance(node, (Sym, Epsilon, Empty)):
        return node
    if isinstance(node, Concat):
        items = [rebuild_tree(i) for i in node.items]
        return concat(*_fuse_repetitions(items))
    if isinstance(node, Alt):
        items = [rebuild_tree(i) for i in node.items]
        if any(isinstance(i, Epsilon) for i in items):
            rest = [i for i in items if not isinstance(i, Epsilon)]
            return opt(alt(*rest)) if rest else EPSILON
        return alt(*items)
    if isinstance(node, Star):
        return star(_strip_nullability_markers(rebuild_tree(node.item)))
    if isinstance(node, Plus):
        return plus(rebuild_tree(node.item))
    if isinstance(node, Opt):
        return opt(rebuild_tree(node.item))
    raise TypeError(f"unknown regex node {node!r}")


def simplify_tree(node: Regex) -> Regex:
    """:func:`repro.regex.simplify` over :func:`rebuild_tree`."""
    current = node
    for _ in range(32):
        rebuilt = rebuild_tree(current)
        if rebuilt == current:
            return current
        current = rebuilt
    return current


def prune_subsumed_tree(node: Regex) -> Regex:
    """``prune_subsumed`` of :mod:`repro.regex.simplify`, unmemoized."""
    if isinstance(node, (Sym, Epsilon, Empty)):
        return node
    if isinstance(node, Concat):
        return concat(*(prune_subsumed_tree(i) for i in node.items))
    if isinstance(node, Star):
        return star(prune_subsumed_tree(node.item))
    if isinstance(node, Plus):
        return plus(prune_subsumed_tree(node.item))
    if isinstance(node, Opt):
        return opt(prune_subsumed_tree(node.item))
    if isinstance(node, Alt):
        items = [prune_subsumed_tree(i) for i in node.items]
        kept: list[Regex] = []
        for index, item in enumerate(items):
            others = kept + items[index + 1:]
            if others and is_subset(item, alt(*others)):
                continue
            kept.append(item)
        return alt(*kept)
    raise TypeError(f"unknown regex node {node!r}")


def project_tree(r: Regex, typing: NodeTyping, mode: InferenceMode) -> Regex:
    """The list-type ``_project`` (Appendix B), unmemoized.

    A symbol still projects through the library's rule, which no memo
    touches.
    """
    if isinstance(r, Sym):
        return _project(r, typing, mode, {})
    if isinstance(r, (Epsilon, Empty)):
        return r
    if isinstance(r, Concat):
        return concat(*(project_tree(i, typing, mode) for i in r.items))
    if isinstance(r, Alt):
        return alt(*(project_tree(i, typing, mode) for i in r.items))
    if isinstance(r, Star):
        return star(project_tree(r.item, typing, mode))
    if isinstance(r, Plus):
        return plus(project_tree(r.item, typing, mode))
    if isinstance(r, Opt):
        return opt(project_tree(r.item, typing, mode))
    raise TypeError(f"unknown regex node {r!r}")


@contextmanager
def tree_walks() -> Iterator[None]:
    """Run the library with the walks above in place of its memoized ones.

    Swaps the module-level workers that ``substitute``, ``simplify``,
    ``prune_subsumed`` and the list-type inference recurse through, for
    the duration.
    """
    swaps = [
        (_ast, "_substitute", lambda r, repl, keys, memo: substitute_tree(r, repl)),
        (_simplify, "_rebuild", lambda r, memo: rebuild_tree(r)),
        (_simplify, "_prune_subsumed", lambda r, memo: prune_subsumed_tree(r)),
        (_listtype, "_project", lambda r, typing, mode, memo: project_tree(r, typing, mode)),
    ]
    saved = [getattr(module, name) for module, name, _ in swaps]
    for module, name, walk in swaps:
        setattr(module, name, walk)
    try:
        yield
    finally:
        for (module, name, _), original in zip(swaps, saved):
            setattr(module, name, original)


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
    if entry.spliceable and len(dirty) == 1:
        return "delta"
    return "recompute"
