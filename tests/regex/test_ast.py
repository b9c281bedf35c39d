"""Unit tests for the regex AST and smart constructors."""

import pytest

from repro.regex import (
    EMPTY,
    EPSILON,
    Alt,
    Concat,
    Empty,
    Epsilon,
    Opt,
    Plus,
    Star,
    Sym,
    alphabet,
    alt,
    concat,
    image,
    names,
    nullable,
    opt,
    plus,
    size,
    star,
    substitute,
    sym,
    symbols,
)


class TestSmartConstructors:
    def test_concat_flattens(self):
        r = concat(sym("a"), concat(sym("b"), sym("c")))
        assert isinstance(r, Concat)
        assert [s.name for s in r.items] == ["a", "b", "c"]

    def test_concat_drops_epsilon(self):
        assert concat(sym("a"), EPSILON, sym("b")) == concat(sym("a"), sym("b"))

    def test_concat_absorbs_empty(self):
        assert concat(sym("a"), EMPTY, sym("b")) is EMPTY or isinstance(
            concat(sym("a"), EMPTY, sym("b")), Empty
        )

    def test_concat_empty_args_is_epsilon(self):
        assert isinstance(concat(), Epsilon)

    def test_concat_single_arg_unwrapped(self):
        assert concat(sym("a")) == sym("a")

    def test_alt_flattens_and_dedupes(self):
        r = alt(sym("a"), alt(sym("b"), sym("a")))
        assert isinstance(r, Alt)
        assert [s.name for s in r.items] == ["a", "b"]

    def test_alt_drops_empty(self):
        assert alt(sym("a"), EMPTY) == sym("a")

    def test_alt_no_args_is_empty(self):
        assert isinstance(alt(), Empty)

    def test_alt_keeps_epsilon_branch(self):
        r = alt(sym("a"), EPSILON)
        assert isinstance(r, Alt)
        assert EPSILON in r.items

    def test_star_of_constants(self):
        assert isinstance(star(EPSILON), Epsilon)
        assert isinstance(star(EMPTY), Epsilon)

    def test_star_collapses_nested_repetition(self):
        inner = sym("a")
        assert star(star(inner)) == Star(inner)
        assert star(plus(inner)) == Star(inner)
        assert star(opt(inner)) == Star(inner)

    def test_plus_identities(self):
        inner = sym("a")
        assert plus(star(inner)) == Star(inner)
        assert plus(opt(inner)) == Star(inner)
        assert plus(plus(inner)) == Plus(inner)
        assert isinstance(plus(EMPTY), Empty)
        assert isinstance(plus(EPSILON), Epsilon)

    def test_opt_identities(self):
        inner = sym("a")
        assert opt(star(inner)) == Star(inner)
        assert opt(opt(inner)) == Opt(inner)
        assert opt(plus(inner)) == Star(inner)
        assert isinstance(opt(EMPTY), Epsilon)


class TestSym:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Sym("")

    def test_rejects_negative_tag(self):
        with pytest.raises(ValueError):
            Sym("a", -1)

    def test_image_strips_tag(self):
        assert Sym("a", 3).image() == Sym("a", 0)
        assert Sym("a", 0).image() == Sym("a", 0)

    def test_is_tagged(self):
        assert Sym("a", 1).is_tagged
        assert not Sym("a").is_tagged

    def test_key(self):
        assert Sym("pub", 2).key() == ("pub", 2)


class TestQueries:
    def test_nullable(self):
        assert nullable(EPSILON)
        assert not nullable(EMPTY)
        assert not nullable(sym("a"))
        assert nullable(star(sym("a")))
        assert nullable(opt(sym("a")))
        assert not nullable(plus(sym("a")))
        assert nullable(concat(star(sym("a")), opt(sym("b"))))
        assert not nullable(concat(star(sym("a")), sym("b")))
        assert nullable(alt(sym("a"), EPSILON))

    def test_symbols_in_order(self):
        r = concat(sym("a"), alt(sym("b"), sym("c")), star(sym("d")))
        assert [s.name for s in symbols(r)] == ["a", "b", "c", "d"]

    def test_alphabet_and_names(self):
        r = concat(sym("a", 1), sym("a"), sym("b"))
        assert alphabet(r) == frozenset({Sym("a", 1), Sym("a"), Sym("b")})
        assert names(r) == frozenset({"a", "b"})

    def test_size(self):
        r = concat(sym("a"), star(alt(sym("b"), sym("c"))))
        # concat + a + star + alt + b + c
        assert size(r) == 6

    def test_image_recursive(self):
        r = concat(sym("a", 1), star(sym("b", 2)))
        assert image(r) == concat(sym("a"), star(sym("b")))

    def test_rename(self):
        r = concat(sym("a", 1), sym("b"))
        renamed = substitute(r, {("a", 1): Sym("a", 9)})
        assert renamed == concat(sym("a", 9), sym("b"))

    def test_substitute(self):
        r = concat(sym("a"), sym("b"))
        result = substitute(r, {("a", 0): alt(sym("x"), sym("y"))})
        assert result == concat(alt(sym("x"), sym("y")), sym("b"))
