"""Property-based cross-checks of the two language engines.

The Glushkov/DFA path and the Brzozowski-derivative oracle
(:mod:`tests.oracles`) are built from different theory; agreement on
random inputs is strong evidence both are right.  Also checks the
samplers against membership and the counter against brute-force
enumeration.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings

from repro.regex import (
    Sym,
    count_words_by_length,
    is_equivalent,
    is_subset,
    matches,
    minimal_dfa,
    nullable,
    sample_word,
    sample_word_uniform,
    to_dfa,
)
from repro.regex.nfa import build_nfa, nfa_accepts

from tests.oracles import matches_by_derivatives
from tests.strategies import NAMES, regex_strategy, words_strategy

FAST = settings(max_examples=150, deadline=None)


@given(regex_strategy(), words_strategy())
@FAST
def test_dfa_agrees_with_derivatives(r, word):
    assert matches(r, word) == matches_by_derivatives(r, word)


@given(regex_strategy(), words_strategy())
@FAST
def test_nfa_agrees_with_dfa(r, word):
    letters = [s.key() for s in word]
    assert nfa_accepts(build_nfa(r), letters) == to_dfa(r).accepts(letters)


@given(regex_strategy())
@FAST
def test_nullable_agrees_with_membership(r):
    assert nullable(r) == matches(r, [])


@given(regex_strategy())
@FAST
def test_minimized_dfa_equivalent(r):
    original = to_dfa(r)
    minimized = minimal_dfa(r)
    assert minimized.n_states <= original.n_states
    for word in itertools.chain.from_iterable(
        itertools.product([(n, 0) for n in NAMES], repeat=k) for k in range(4)
    ):
        assert original.accepts(list(word)) == minimized.accepts(list(word))


@given(regex_strategy())
@FAST
def test_structural_sampler_produces_members(r):
    rng = random.Random(7)
    word = sample_word(r, rng)
    if word is None:
        assert not matches(r, [])  # empty language has no members
        # the language must really be empty
        from repro.regex import is_empty

        assert is_empty(r)
    else:
        assert matches(r, word)


@given(regex_strategy())
@FAST
def test_uniform_sampler_produces_members(r):
    rng = random.Random(13)
    word = sample_word_uniform(r, 5, rng)
    if word is not None:
        assert len(word) <= 5
        assert matches(r, word)


@given(regex_strategy(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_counting_matches_enumeration(r):
    counts = count_words_by_length(r, 3)
    alphabet_letters = sorted(
        {s.key() for s in _regex_alphabet(r)}
    )
    for length in range(4):
        brute = sum(
            1
            for word in itertools.product(alphabet_letters, repeat=length)
            if to_dfa(r).accepts(list(word))
        )
        assert counts[length] == brute


def _regex_alphabet(r):
    from repro.regex import alphabet

    return alphabet(r)


@given(regex_strategy(max_leaves=5), regex_strategy(max_leaves=5))
@settings(max_examples=80, deadline=None)
def test_subset_consistent_with_membership(r1, r2):
    if is_subset(r1, r2):
        # every sampled member of r1 must be in r2
        rng = random.Random(3)
        for _ in range(5):
            word = sample_word(r1, rng)
            if word is not None:
                assert matches(r2, word)


@given(regex_strategy(max_leaves=5), regex_strategy(max_leaves=5))
@settings(max_examples=80, deadline=None)
def test_equivalence_is_mutual_inclusion(r1, r2):
    assert is_equivalent(r1, r2) == (is_subset(r1, r2) and is_subset(r2, r1))
