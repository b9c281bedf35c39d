"""Regular-expression abstract syntax over element names.

DTD content models are regular expressions over element names
(Definition 2.2 of the paper).  Specialized DTDs (Definition 3.8) use
*tagged* names ``n^i``; we represent both uniformly with :class:`Sym`
carrying an integer ``tag`` where tag ``0`` means "unspecialized" and is
printed bare.

The node set mirrors XML 1.0 content-model syntax:

========== =====================================
node       XML / paper notation
========== =====================================
``Sym``    ``name`` or tagged ``name^i``
``Epsilon``the empty sequence (paper's ``e``)
``Empty``  the empty language (paper's ``fail``)
``Concat`` ``r1, r2``
``Alt``    ``r1 | r2``
``Star``   ``r*``
``Plus``   ``r+``
``Opt``    ``r?``
========== =====================================

All nodes are immutable, hashable and **hash-consed**: constructing a
node structurally equal to a live one returns the live one, so
structurally equal expressions are pointer-equal.  Each node carries
facts computed once at interning time -- its hash, its letter set
(``letters``), nullability (``null``), whether it mentions a proper
specialization (``has_tags``) and its node count (``n_nodes``) -- which
makes every downstream memoization key O(1) instead of a deep
structural walk.  The intern tables hold strong references (the node
universe of a mediator run is small and heavily reused, so a
process-wide canonical store beats weak tables that would let hot
nodes die between inference rounds and force re-derivation); they
survive :func:`repro.obs.clear_caches` on purpose, which keeps
pointer-equality stable across cache resets.  See
:mod:`repro.obs.registry` for the cache registry and interning
statistics.

Use the smart constructors :func:`concat`, :func:`alt`, :func:`star`,
:func:`plus` and :func:`opt` rather than the dataclass constructors:
they apply the *safe local* normalizations (flattening, identity and
absorption laws for ``Epsilon`` and ``Empty``) that keep the paper's
``⊕`` / ``∥`` operators trivial, while never changing the described
language.

``Plus`` and ``Opt`` are first-class (not desugared) so that inferred
types print the way the paper writes them; the automata layer desugars
them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping

from ..obs import registry

#: An automaton letter: a (element name, specialization tag) pair.
Letter = tuple[str, int]


def _rebuild(cls: type, args: tuple) -> "Regex":
    """Pickle/copy support: reconstruct through the interning constructor."""
    return cls(*args)


class _InternMeta(type):
    """Metaclass that hash-conses every node construction.

    ``Cls(*args)`` looks the argument tuple up in the class's intern
    table first; on a hit the live node is returned **without running
    ``__init__`` at all**, so re-constructing an existing node costs
    one dict probe.  On a miss the node is built normally (running the
    dataclass field assignment, validation and fact derivation once)
    and then published.  Tables hold strong references: the canonical
    store is process-wide and survives :func:`clear_caches`, which is
    what keeps pointer-equality stable across cache resets.
    """

    def __init__(cls, name: str, bases: tuple, namespace: dict, **kwargs: Any) -> None:
        super().__init__(name, bases, namespace, **kwargs)
        table: dict[tuple, "Regex"] = {}
        cls._intern_table = table
        registry.register_intern_table(name, lambda t=table: len(t))

    def __call__(cls, *args: Any, **kwargs: Any) -> "Regex":
        if kwargs or len(args) != cls._n_fields():
            args = cls._intern_key(args, kwargs)
        table = cls._intern_table
        node = table.get(args)
        if node is not None:
            registry.INTERN_HITS[cls.__name__] += 1
            return node
        registry.INTERN_MISSES[cls.__name__] += 1
        node = super().__call__(*args)
        table[args] = node
        return node

    def _n_fields(cls) -> int:
        spec = cls.__dict__.get("_intern_spec")
        if spec is None:
            spec = cls._build_intern_spec()
        return len(spec[0])

    def _build_intern_spec(cls) -> tuple:
        from dataclasses import MISSING

        fields = dataclass_fields(cls)
        spec = (
            tuple(f.name for f in fields),
            tuple(f.default for f in fields),
            MISSING,
        )
        cls._intern_spec = spec
        return spec

    def interned(cls) -> int:
        """Number of live nodes in this class's intern table."""
        return len(cls._intern_table)

    def _intern_key(cls, args: tuple, kwargs: dict) -> tuple:
        """Normalize a mixed/partial call to the full positional tuple."""
        names, defaults, missing = cls.__dict__.get(
            "_intern_spec"
        ) or cls._build_intern_spec()
        full = list(args)
        for name, default in zip(names[len(args):], defaults[len(args):]):
            if name in kwargs:
                full.append(kwargs[name])
            elif default is not missing:
                full.append(default)
            else:
                raise TypeError(
                    f"{cls.__name__}() missing required argument {name!r}"
                )
        return tuple(full)


@dataclass(frozen=True, eq=False)
class Regex(metaclass=_InternMeta):
    """Base class for hash-consed regular-expression nodes.

    Derived facts, set once when a node is first interned:

    ``letters``
        the frozenset of ``(name, tag)`` letters occurring in the node;
    ``null``
        whether the empty sequence belongs to the node's language;
    ``has_tags``
        whether any letter is a proper specialization (tag != 0);
    ``n_nodes``
        the AST node count.
    """

    def __post_init__(self) -> None:
        letters, null, has_tags, n_nodes = self._derive()
        put = object.__setattr__
        put(self, "letters", letters)
        put(self, "null", null)
        put(self, "has_tags", has_tags)
        put(self, "n_nodes", n_nodes)
        put(self, "_hash", hash((type(self).__name__, self._fields())))

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        raise TypeError(f"cannot instantiate abstract node {type(self).__name__}")

    def _fields(self) -> tuple:
        return ()

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # Interning makes structurally equal live nodes identical; the
        # structural fallback only matters for nodes resurrected through
        # pickling boundaries or constructed with unusual call shapes.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[union-attr]

    def __copy__(self) -> "Regex":
        return self

    def __deepcopy__(self, memo: dict) -> "Regex":
        return self

    def __reduce__(self) -> tuple:
        return (_rebuild, (type(self), self._fields()))

    def __str__(self) -> str:  # pragma: no cover - thin delegation
        from .printer import to_string

        return to_string(self)


@dataclass(frozen=True, eq=False)
class Sym(Regex):
    """A (possibly tagged) element name.

    ``Sym("publication")`` is the plain name; ``Sym("publication", 1)``
    is the specialization ``publication^1`` of Definition 3.8.
    """

    name: str
    tag: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("element name must be non-empty")
        if self.tag < 0:
            raise ValueError("specialization tag must be non-negative")
        super().__post_init__()

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return frozenset(((self.name, self.tag),)), False, self.tag != 0, 1

    def _fields(self) -> tuple:
        return (self.name, self.tag)

    @property
    def is_tagged(self) -> bool:
        """True when this symbol is a proper specialization (tag != 0)."""
        return self.tag != 0

    def image(self) -> "Sym":
        """The untagged symbol, per Definition 3.9."""
        return self if self.tag == 0 else Sym(self.name, 0)

    def key(self) -> Letter:
        """Hashable (name, tag) pair used as an automaton alphabet letter."""
        return (self.name, self.tag)


@dataclass(frozen=True, eq=False)
class Epsilon(Regex):
    """The language containing only the empty sequence."""

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return frozenset(), True, False, 1


@dataclass(frozen=True, eq=False)
class Empty(Regex):
    """The empty language -- the paper's ``fail`` value."""

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return frozenset(), False, False, 1


@dataclass(frozen=True, eq=False)
class Concat(Regex):
    """Sequence ``r1, r2, ..., rk`` (k >= 2 after normalization)."""

    items: tuple[Regex, ...]

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return (
            frozenset().union(*(i.letters for i in self.items)),
            all(i.null for i in self.items),
            any(i.has_tags for i in self.items),
            1 + sum(i.n_nodes for i in self.items),
        )

    def _fields(self) -> tuple:
        return (self.items,)


@dataclass(frozen=True, eq=False)
class Alt(Regex):
    """Alternation ``r1 | r2 | ... | rk`` (k >= 2 after normalization)."""

    items: tuple[Regex, ...]

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return (
            frozenset().union(*(i.letters for i in self.items)),
            any(i.null for i in self.items),
            any(i.has_tags for i in self.items),
            1 + sum(i.n_nodes for i in self.items),
        )

    def _fields(self) -> tuple:
        return (self.items,)


@dataclass(frozen=True, eq=False)
class Star(Regex):
    """Kleene closure ``r*``."""

    item: Regex

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return self.item.letters, True, self.item.has_tags, 1 + self.item.n_nodes

    def _fields(self) -> tuple:
        return (self.item,)


@dataclass(frozen=True, eq=False)
class Plus(Regex):
    """One-or-more ``r+`` (equivalent to ``r, r*``)."""

    item: Regex

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return (
            self.item.letters,
            self.item.null,
            self.item.has_tags,
            1 + self.item.n_nodes,
        )

    def _fields(self) -> tuple:
        return (self.item,)


@dataclass(frozen=True, eq=False)
class Opt(Regex):
    """Zero-or-one ``r?`` (equivalent to ``r | epsilon``)."""

    item: Regex

    def _derive(self) -> tuple[frozenset[Letter], bool, bool, int]:
        return self.item.letters, True, self.item.has_tags, 1 + self.item.n_nodes

    def _fields(self) -> tuple:
        return (self.item,)


#: Singletons for the two constant languages.
EPSILON = Epsilon()
EMPTY = Empty()


def sym(name: str, tag: int = 0) -> Sym:
    """Construct a (possibly tagged) name symbol."""
    return Sym(name, tag)


def concat(*parts: Regex) -> Regex:
    """Sequence the given expressions.

    Applies the identities ``r, epsilon = r`` and ``r, fail = fail`` and
    flattens nested concatenations.  With zero arguments returns
    ``EPSILON``.  This is exactly the paper's ``⊕`` operator extended to
    n-ary form: ``fail`` is absorbing.
    """
    flat: list[Regex] = []
    for part in parts:
        if isinstance(part, Empty):
            return EMPTY
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, Concat):
            flat.extend(part.items)
        else:
            flat.append(part)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(*parts: Regex) -> Regex:
    """Alternate the given expressions.

    Applies ``r | fail = r`` (the paper's ``∥`` operator: ``fail`` is the
    identity), flattens nested alternations, and drops syntactic
    duplicates (keeping first occurrence order).  With zero arguments
    returns ``EMPTY``.
    """
    flat: list[Regex] = []
    seen: set[Regex] = set()
    for part in parts:
        if isinstance(part, Empty):
            continue
        members = part.items if isinstance(part, Alt) else (part,)
        for member in members:
            if member not in seen:
                seen.add(member)
                flat.append(member)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Alt(tuple(flat))


def star(item: Regex) -> Regex:
    """Kleene closure with the identities on constants and idempotence."""
    if isinstance(item, (Epsilon, Empty)):
        return EPSILON
    if isinstance(item, (Star, Plus)):
        return Star(item.item)
    if isinstance(item, Opt):
        return Star(item.item)
    return Star(item)


def plus(item: Regex) -> Regex:
    """One-or-more with the identities on constants."""
    if isinstance(item, (Epsilon, Empty)):
        return item
    if isinstance(item, (Star, Opt)):
        return star(item.item)
    if isinstance(item, Plus):
        return item
    return Plus(item)


def opt(item: Regex) -> Regex:
    """Zero-or-one with the identities on constants."""
    if isinstance(item, Epsilon):
        return EPSILON
    if isinstance(item, Empty):
        return EPSILON
    if isinstance(item, (Star, Opt)):
        return item
    if isinstance(item, Plus):
        return star(item.item)
    return Opt(item)


def symbols(r: Regex) -> Iterator[Sym]:
    """Yield every symbol occurrence in ``r`` in left-to-right order."""
    stack: list[Regex] = [r]
    out: list[Sym] = []
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.append(node)
        elif isinstance(node, (Concat, Alt)):
            stack.extend(reversed(node.items))
        elif isinstance(node, (Star, Plus, Opt)):
            stack.append(node.item)
    # The stack discipline above visits in order already because we push
    # children reversed; collect then yield to keep the generator simple.
    yield from out


def letters(r: Regex) -> frozenset[Letter]:
    """The set of distinct (name, tag) letters of ``r`` (precomputed)."""
    return r.letters


def alphabet(r: Regex) -> frozenset[Sym]:
    """The set of distinct symbols appearing in ``r``."""
    return frozenset(Sym(name, tag) for name, tag in r.letters)


def names(r: Regex) -> frozenset[str]:
    """The set of distinct element names (tags ignored) appearing in ``r``."""
    return frozenset(name for name, _ in r.letters)


@lru_cache(maxsize=None)
def image(r: Regex) -> Regex:
    """Project specialization tags away, per Definition 3.9.

    The image of a tagged regular expression replaces every ``n^i``
    with ``n``.
    """
    if not r.has_tags:
        return r
    if isinstance(r, Sym):
        return r.image()
    if isinstance(r, Concat):
        return concat(*(image(i) for i in r.items))
    if isinstance(r, Alt):
        return alt(*(image(i) for i in r.items))
    if isinstance(r, Star):
        return star(image(r.item))
    if isinstance(r, Plus):
        return plus(image(r.item))
    if isinstance(r, Opt):
        return opt(image(r.item))
    return r


registry.register_lru("ast.image", image)


def substitute(r: Regex, replacements: Mapping[Letter, Regex]) -> Regex:
    """Replace symbols of ``r`` by whole expressions.

    This implements the *one-level extension* substitution of
    Definition 4.3: replacing a name by its (parenthesized) type.  A
    replacement may be a single :class:`Sym`, which renames it.

    Symbols whose key is not replaced are kept unchanged, and subtrees
    whose letter set is disjoint from the replaced keys are returned
    as-is (pointer-shared), not rebuilt.  The walk visits each distinct
    node of the (hash-consed, hence shared) input once: a memo local to
    this call maps each rebuilt node to its result.
    """
    if not replacements:
        return r
    return _substitute(r, replacements, set(replacements), {})


def _substitute(
    node: Regex,
    replacements: Mapping[Letter, Regex],
    keys: set[Letter],
    memo: dict[Regex, Regex],
) -> Regex:
    if node.letters.isdisjoint(keys):
        return node
    done = memo.get(node)
    if done is not None:
        return done
    if isinstance(node, Sym):
        out = replacements.get(node.key(), node)
    elif isinstance(node, Concat):
        out = concat(
            *(_substitute(i, replacements, keys, memo) for i in node.items)
        )
    elif isinstance(node, Alt):
        out = alt(
            *(_substitute(i, replacements, keys, memo) for i in node.items)
        )
    elif isinstance(node, Star):
        out = star(_substitute(node.item, replacements, keys, memo))
    elif isinstance(node, Plus):
        out = plus(_substitute(node.item, replacements, keys, memo))
    elif isinstance(node, Opt):
        out = opt(_substitute(node.item, replacements, keys, memo))
    else:
        out = node
    memo[node] = out
    return out


def nullable(r: Regex) -> bool:
    """True when the empty sequence belongs to ``L(r)`` (precomputed)."""
    return r.null


def size(r: Regex) -> int:
    """Number of AST nodes; a convenient complexity measure for benches."""
    return r.n_nodes


def is_tagged(r: Regex) -> bool:
    """True when ``r`` mentions at least one proper specialization."""
    return r.has_tags


def from_word(word: Iterable[Sym]) -> Regex:
    """The regex denoting exactly the given sequence of symbols."""
    return concat(*word)
