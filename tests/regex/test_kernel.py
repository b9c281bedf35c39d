"""The hash-consing / canonical-signature kernel.

Covers the interning semantics of :mod:`repro.regex.ast`, the derived
facts carried on nodes, signature-based equivalence against the
product-automaton oracle in ``tests/oracles.py`` (differential, on
random expressions), and the cache registry / statistics surface of
:mod:`repro.obs.registry` as the kernel reports through it.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings

from repro.regex import (
    EMPTY,
    EPSILON,
    Concat,
    Star,
    Sym,
    canonical_signature,
    concat,
    is_equivalent,
    is_subset,
    letters,
    matches,
    nullable,
    parse_regex,
    size,
    star,
    sym,
)
from repro.obs import clear_caches, kernel_stats, registry
from repro.regex.ast import Alt, Empty, Epsilon, Opt, Plus, Regex, symbols

from tests.oracles import is_equivalent_pairwise
from tests.strategies import regex_strategy


class TestInterning:
    def test_structurally_equal_nodes_are_pointer_equal(self):
        assert sym("a") is sym("a")
        assert sym("a", 1) is sym("a", 1)
        assert sym("a") is not sym("a", 1)
        assert concat(sym("a"), sym("b")) is concat(sym("a"), sym("b"))
        assert star(concat(sym("a"), sym("b"))) is star(
            concat(sym("a"), sym("b"))
        )

    def test_call_spellings_intern_to_one_node(self):
        assert Sym("a") is Sym("a", 0)
        assert Sym("a") is Sym("a", tag=0)
        assert Sym(name="a", tag=0) is Sym("a")

    def test_parsing_interns_too(self):
        assert parse_regex("a, b*") is parse_regex("a, b*")
        assert parse_regex("(a)") is sym("a")

    def test_structural_equality_and_hash_still_hold(self):
        assert sym("a") == sym("a")
        assert sym("a") != sym("b")
        assert hash(sym("a")) == hash(sym("a"))
        assert concat(sym("a"), sym("b")) != concat(sym("b"), sym("a"))

    def test_validation_fires_on_every_construction(self):
        with pytest.raises(ValueError):
            Sym("")
        with pytest.raises(ValueError):
            Sym("a", -1)
        with pytest.raises(ValueError):
            Sym("a", -1)  # invalid spellings are never interned

    def test_pickle_roundtrip_returns_the_interned_node(self):
        node = star(concat(sym("a", 2), sym("b")))
        assert pickle.loads(pickle.dumps(node)) is node

    def test_copy_is_identity(self):
        node = concat(sym("a"), star(sym("b")))
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node

    def test_interning_survives_clear_caches(self):
        before = concat(sym("a"), sym("b"), star(sym("c")))
        clear_caches()
        assert concat(sym("a"), sym("b"), star(sym("c"))) is before


def _walk_count(r: Regex) -> int:
    if isinstance(r, (Sym, Epsilon, Empty)):
        return 1
    if isinstance(r, (Concat, Alt)):
        return 1 + sum(_walk_count(i) for i in r.items)
    assert isinstance(r, (Star, Plus, Opt))
    return 1 + _walk_count(r.item)


class TestDerivedFacts:
    @given(regex_strategy(tags=(0, 1)))
    def test_letters_match_symbol_occurrences(self, r):
        assert letters(r) == frozenset(s.key() for s in symbols(r))

    @given(regex_strategy())
    def test_nullability_matches_the_automaton(self, r):
        assert nullable(r) == matches(r, [])

    @given(regex_strategy(tags=(0, 1)))
    def test_size_matches_a_structural_walk(self, r):
        assert size(r) == _walk_count(r)

    @given(regex_strategy(tags=(0, 2)))
    def test_has_tags_matches_the_letter_set(self, r):
        assert r.has_tags == any(tag != 0 for _, tag in letters(r))


class TestSignatureEquivalence:
    def test_signatures_are_interned_objects(self):
        left = parse_regex("a, a*")
        right = parse_regex("a+")
        assert canonical_signature(left) is canonical_signature(right)
        assert canonical_signature(left) is not canonical_signature(sym("a"))

    def test_signature_ignores_vacuous_letters(self):
        # Raw constructors can mention letters that occur in no
        # accepted word; trimming makes them leave no trace.
        dead_branch = Concat((sym("b"), EMPTY))
        assert canonical_signature(dead_branch) is canonical_signature(EMPTY)
        padded = Alt((sym("a"), dead_branch))
        assert canonical_signature(padded) is canonical_signature(sym("a"))

    @settings(max_examples=60)
    @given(regex_strategy(tags=(0, 1)), regex_strategy(tags=(0, 1)))
    def test_differential_signature_vs_pairwise(self, left, right):
        assert is_equivalent(left, right) == is_equivalent_pairwise(
            left, right
        )

    @given(regex_strategy())
    def test_reflexive_under_both_backends(self, r):
        assert is_equivalent(r, r)
        assert is_equivalent_pairwise(r, r)

    def test_variant_family_pair_counts(self):
        # 12 language classes, each spelled three ways: C(3,2) = 3
        # equivalent pairs per class and none across classes.
        family = []
        for k in range(12):
            prefix = "a, " * (k % 4)
            tail = "c, " * (k // 4) + "c*"
            for body in ("b+", "b, b*", "b, (b, b*)?"):
                family.append(parse_regex(f"{prefix}{body}, {tail}"))
        pairs = sum(
            is_equivalent(left, right)
            for i, left in enumerate(family)
            for right in family[i + 1:]
        )
        assert pairs == (len(family) // 3) * 3
        # b^{>=i} is a subset of b^{>=j} exactly when i >= j
        chain = [parse_regex("b, " * g + "b*") for g in range(9)]
        inclusions = sum(
            is_subset(left, right) for left in chain for right in chain
        )
        assert inclusions == sum(i + 1 for i in range(len(chain)))


class TestKernelRegistry:
    def test_registry_names_cover_the_language_caches(self):
        names = registry.registered_caches()
        for expected in (
            "ast.image",
            "language.dfa",
            "language.min_dfa",
            "language.signature",
            "language.signature_intern",
            "language.equiv_union_find",
            "language.subset",
            "language.is_empty",
        ):
            assert expected in names

    def test_clear_caches_empties_every_registered_cache(self):
        is_equivalent(parse_regex("a, a*"), parse_regex("a+"))
        clear_caches()
        stats = kernel_stats()
        for name, row in stats["caches"].items():
            assert row.get("currsize", row.get("size", 0)) == 0, name
        assert stats["events"] == {}

    def test_stats_count_interning_and_decisions(self):
        clear_caches()
        left, right = parse_regex("a, a*"), parse_regex("a+")
        assert left is not right
        assert is_equivalent(left, right)
        stats = kernel_stats()
        assert sum(r["hits"] for r in stats["interning"].values()) > 0
        assert sum(r["live"] for r in stats["interning"].values()) > 0
        assert stats["events"].get("equiv.signature_equal", 0) >= 1

    def test_inference_run_exercises_the_kernel(self):
        # Acceptance check for the PR: a paper-workload inference run
        # must leave nonzero kernel counters behind.
        from repro.inference import infer_view_dtd
        from repro.workloads import paper

        clear_caches()
        infer_view_dtd(paper.d1(), paper.q2())
        stats = kernel_stats()
        assert sum(r["hits"] for r in stats["interning"].values()) > 0
        assert sum(c.get("hits", 0) for c in stats["caches"].values()) > 0
        assert sum(c.get("misses", 0) for c in stats["caches"].values()) > 0

    def test_render_stats_mentions_every_section(self):
        is_equivalent(parse_regex("a"), parse_regex("a"))
        text = registry.render_stats()
        assert "interned nodes" in text
        assert "caches" in text
        assert "language.signature" in text

    def test_every_stats_section_resets_with_clear_caches(self):
        # Every registered section, and the registry's own obs
        # metrics, must read zero after clear_caches().  Put traffic
        # through every section owner, clear, and demand zeros
        # everywhere.
        from repro import obs
        from repro.mediator import MatViewCache

        def all_zero(value, path):
            if isinstance(value, dict):
                for key, sub in value.items():
                    all_zero(sub, f"{path}.{key}")
            elif isinstance(value, (int, float)):
                assert value == 0, f"{path} = {value!r} after clear"
            # non-numeric leaves (labels etc.) are not counters

        cache = MatViewCache()
        cache.note_bypass()
        obs.REGISTRY.counter("kernel.test.section_reset").inc()
        with obs.span("kernel.test.section_reset"):
            pass
        clear_caches()
        stats = kernel_stats()
        for name in (*registry.registered_sections(), "obs"):
            assert name in stats
            all_zero(stats[name], name)
        assert cache.info()["bypasses"] == 0


class TestConstants:
    def test_constants_are_singletons(self):
        assert Epsilon() is EPSILON
        assert Empty() is not EPSILON
        assert star(EPSILON) is EPSILON
