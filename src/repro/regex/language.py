"""Exact language-level decision procedures on regular expressions.

These are the questions the view-DTD inference machinery asks:

* membership   -- does a child-name sequence match a content model?
* emptiness    -- did a refinement produce an unsatisfiable type?
* inclusion    -- is one type *tighter* than another (Definition 3.3)?
* equivalence  -- did a refinement actually change the type (validity)?

All procedures are exact (automata-based), not syntactic approximations.

The layer is organized as a *kernel* around canonical forms rather than
per-call constructions:

* every regex gets a memoized DFA, minimal DFA, and **canonical
  signature** (the trimmed, BFS-renumbered minimal DFA -- a canonical
  form of its language, see :func:`repro.regex.dfa.dfa_signature`);
* :func:`is_equivalent` decides by signature comparison backed by a
  union-find over already-equated expressions, so no per-pair product
  automaton is ever built;
* :func:`is_subset` runs its difference product on cached *minimal*
  automata after an O(1) signature fast path.

Every cache registers with :mod:`repro.regex.kernel`, so
:func:`clear_caches` and the stats surface cover them all.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import kernel
from .ast import Regex, Sym
from .dfa import (
    EMPTY_SIGNATURE,
    Dfa,
    Letter,
    Signature,
    dfa_from_regex,
    dfa_signature,
    minimize,
    product,
    with_alphabet,
)

# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _dfa(regex: Regex) -> Dfa:
    return dfa_from_regex(regex)


kernel.register_lru("language.dfa", _dfa)


@lru_cache(maxsize=None)
def _min_dfa(regex: Regex) -> Dfa:
    return minimize(_dfa(regex))


kernel.register_lru("language.min_dfa", _min_dfa)


#: Interning table for signatures: equal fingerprints become the same
#: object, so signature comparison is a pointer check.
_SIGNATURES: dict[Signature, Signature] = {}


@lru_cache(maxsize=None)
def canonical_signature(regex: Regex) -> Signature:
    """The canonical fingerprint of ``L(regex)`` (interned, cached).

    Two expressions denote the same language iff their canonical
    signatures are the same object.
    """
    sig = dfa_signature(_min_dfa(regex))
    return _SIGNATURES.setdefault(sig, sig)


kernel.register_lru("language.signature", canonical_signature)
kernel.register_cache(
    "language.signature_intern",
    _SIGNATURES.clear,
    lambda: {"size": len(_SIGNATURES)},
)


def to_dfa(regex: Regex) -> Dfa:
    """The (cached) complete DFA of ``regex`` over its own alphabet."""
    return _dfa(regex)


def minimal_dfa(regex: Regex) -> Dfa:
    """The (cached) minimized DFA; its state count is a canonical
    complexity measure."""
    return _min_dfa(regex)


# ---------------------------------------------------------------------------
# equivalence: signature kernel + union-find


#: Union-find parents over regexes already proven equivalent.  Nodes
#: are hash-consed, so identity-keyed path compression is sound.
_EQUIV_PARENT: dict[Regex, Regex] = {}

kernel.register_cache(
    "language.equiv_union_find",
    _EQUIV_PARENT.clear,
    lambda: {"size": len(_EQUIV_PARENT)},
)


def _find(regex: Regex) -> Regex:
    root = regex
    while True:
        parent = _EQUIV_PARENT.get(root)
        if parent is None or parent is root:
            break
        root = parent
    while regex is not root:  # path compression
        parent = _EQUIV_PARENT.get(regex, root)
        _EQUIV_PARENT[regex] = root
        regex = parent
    return root


def is_equivalent(left: Regex, right: Regex) -> bool:
    """Language equality of the two expressions."""
    if left is right:
        kernel.EVENTS["equiv.identity"] += 1
        return True
    root_left, root_right = _find(left), _find(right)
    if root_left is root_right:
        kernel.EVENTS["equiv.union_find_hit"] += 1
        return True
    if canonical_signature(root_left) is canonical_signature(root_right):
        _EQUIV_PARENT[root_left] = root_right
        kernel.EVENTS["equiv.signature_equal"] += 1
        return True
    kernel.EVENTS["equiv.signature_distinct"] += 1
    return False


# ---------------------------------------------------------------------------
# membership / emptiness / inclusion


def matches(regex: Regex, word: Sequence[Sym]) -> bool:
    """Membership: is the symbol sequence in ``L(regex)``?"""
    return _dfa(regex).accepts([s.key() for s in word])


def matches_letters(regex: Regex, word: Sequence[Letter]) -> bool:
    """Membership over raw (name, tag) letters."""
    return _dfa(regex).accepts(list(word))


@lru_cache(maxsize=None)
def is_empty(regex: Regex) -> bool:
    """True when ``L(regex)`` is the empty language."""
    return _dfa(regex).is_empty()


kernel.register_lru("language.is_empty", is_empty)


def _aligned(left: Regex, right: Regex) -> tuple[Dfa, Dfa]:
    letters = left.letters | right.letters
    return (
        with_alphabet(_dfa(left), letters),
        with_alphabet(_dfa(right), letters),
    )


@lru_cache(maxsize=None)
def _subset_of(left: Regex, right: Regex) -> bool:
    letters = left.letters | right.letters
    a = with_alphabet(_min_dfa(left), letters)
    b = with_alphabet(_min_dfa(right), letters)
    difference = product(a, b, lambda x, y: x and not y)
    return difference.is_empty()


kernel.register_lru("language.subset", _subset_of)


def is_subset(left: Regex, right: Regex) -> bool:
    """Inclusion: ``L(left) ⊆ L(right)``.

    This is the paper's "tighter than" relation on types
    (Definition 3.3): ``left`` is tighter than ``right``.  Decided on
    the cached minimal automata, after O(1) fast paths: pointer
    equality, signature equality, and emptiness of the left side.
    """
    if left is right:
        return True
    sig_left = canonical_signature(left)
    if sig_left is EMPTY_SIGNATURE or sig_left is canonical_signature(right):
        kernel.EVENTS["subset.signature_fast_path"] += 1
        return True
    return _subset_of(left, right)


def is_proper_subset(left: Regex, right: Regex) -> bool:
    """Strict inclusion: tighter and not equivalent."""
    return is_subset(left, right) and not is_subset(right, left)


def intersection_dfa(left: Regex, right: Regex) -> Dfa:
    """DFA for ``L(left) ∩ L(right)``."""
    a, b = _aligned(left, right)
    return product(a, b, lambda x, y: x and y)


def difference_witness(left: Regex, right: Regex) -> list[Letter] | None:
    """A shortest word in ``L(left) \\ L(right)``, or None if included.

    Used to produce counterexamples in tightness reports and tests.
    """
    a, b = _aligned(left, right)
    difference = product(a, b, lambda x, y: x and not y)
    return difference.shortest_word()


def clear_caches() -> None:
    """Drop every registered kernel cache (between benchmark rounds).

    Delegates to the central registry in :mod:`repro.regex.kernel`:
    automata, signatures, the union-find, and all event counters are
    registered there, so nothing can be missed by this function going
    stale.
    """
    kernel.clear_all()
