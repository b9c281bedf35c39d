"""Result-list type inference (Section 4.4 and Appendix B).

The tightening algorithm types the *picked elements*; this module
derives the content model of the view's top element -- how many picks
appear and in what order (Example 3.1's observation that professors
precede gradStudents).

The algorithm walks the pick path ``L_0 ... L_k``.  The list type of
level 0 is the root's (specialized) key, optional unless the whole
condition is valid.  Each subsequent level is obtained by the
*one-level extension* (Definition 4.3) -- substituting each key by its
content model, which describes the concatenated child sequences of the
current level's elements -- followed by *projection* onto the next
step's keys (Appendix B's ``project``).

Two modes (DESIGN.md §3):

* ``EXACT`` extends with the *refined* types from the tightening
  result (marked occurrences are known to match: they project to
  exactly one pick) and projects could-match positions to ``key?``.
  This is sound and tighter than the paper's derivations.
* ``PAPER`` follows Appendix B: extension substitutes the *base*
  source types (wrapped in ``?`` when the step's condition is not
  valid) and projection maps could-match positions to a bare key.
  It reproduces the paper's ``(title, author*)*`` for Example 4.4
  where EXACT proves ``(title, author*)+``.
"""

from __future__ import annotations

from .. import obs
from ..dtd import Dtd, Pcdata
from ..regex import (
    EPSILON,
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
    substitute,
)
from ..xmas import Query
from ..xmas.analysis import pick_path
from .classify import Classification, InferenceMode
from .simplifytype import simplify_list_type
from .tighten import NodeTyping, TightenResult


def _project(
    r: Regex, typing: NodeTyping, mode: InferenceMode, memo: dict[Regex, Regex]
) -> Regex:
    """Appendix B's ``project``: keep only positions that can be picks.

    * a position carrying a *proper* pick mark contributes exactly one
      pick (the mark witnesses the pick's constraints, and sibling
      marks sit on other positions);
    * an unmarked position contributes one pick when the step's
      condition is valid for its name, otherwise ``key?`` in EXACT
      mode / a bare ``key`` in PAPER mode (could-match semantics);
    * a position marked by a *different* condition contributes ``key?``
      even when the step's condition is valid: sibling distinctness may
      exclude that witness from ever being picked;
    * any other position contributes nothing (``ε``).

    ``typing`` and ``mode`` are fixed for one projection, so ``memo``
    (owned by the caller, for that projection only) maps every
    composite node already projected to its result: each distinct node
    of the shared list type is projected once.
    """
    if isinstance(r, Sym):
        key = typing.keys.get(r.name)
        if key is None:
            return EPSILON
        key_sym = Sym(*key)
        klass = typing.classes[r.name]
        if r.key() == key:
            if key[1] != 0:
                return key_sym
            # The pick's tag collapsed into the base (its constraints
            # are implied by the type), so unmarked positions land
            # here too; a PCDATA value condition keeps them optional.
            if klass.is_valid or mode is InferenceMode.PAPER:
                return key_sym
            return opt(key_sym)
        if r.tag != 0:
            # Marked by a different sibling condition: distinctness may
            # exclude this witness from every pick binding.
            if mode is InferenceMode.PAPER:
                return key_sym
            return opt(key_sym)
        if klass.is_valid or mode is InferenceMode.PAPER:
            return key_sym
        return opt(key_sym)
    if isinstance(r, (Epsilon, Empty)):
        return r
    done = memo.get(r)
    if done is not None:
        return done
    if isinstance(r, Concat):
        out = concat(*(_project(item, typing, mode, memo) for item in r.items))
    elif isinstance(r, Alt):
        out = alt(*(_project(item, typing, mode, memo) for item in r.items))
    elif isinstance(r, Star):
        out = star(_project(r.item, typing, mode, memo))
    elif isinstance(r, Plus):
        out = plus(_project(r.item, typing, mode, memo))
    elif isinstance(r, Opt):
        out = opt(_project(r.item, typing, mode, memo))
    else:
        raise TypeError(f"unknown regex node {r!r}")
    memo[r] = out
    return out


def _extend(
    ltype: Regex,
    result: TightenResult,
    dtd: Dtd,
    prev_typing: NodeTyping,
    mode: InferenceMode,
) -> Regex:
    """One-level extension of the current list type (Definition 4.3).

    ``prev_typing`` is the typing of the level being expanded (its keys
    are the symbols of ``ltype``); in PAPER mode its classification
    decides whether the substituted base type is wrapped in ``?``.
    """
    replacements: dict[tuple[str, int], Regex] = {}
    for key_sym in _symbols_of(ltype):
        key = key_sym.key()
        if mode is InferenceMode.EXACT:
            content = result.sdtd.types.get(key)
            if content is None:
                content = dtd.type_of(key[0])
            expansion = (
                EPSILON if isinstance(content, Pcdata) else content
            )
        else:
            base = dtd.type_of(key[0])
            expansion = EPSILON if isinstance(base, Pcdata) else base
            step_class = prev_typing.classes.get(
                key[0], Classification.VALID
            )
            if not step_class.is_valid:
                expansion = opt(expansion)
        replacements[key] = expansion
    return substitute(ltype, replacements)


def _symbols_of(r: Regex) -> list[Sym]:
    from ..regex import alphabet

    return sorted(alphabet(r), key=lambda s: (s.name, s.tag))


def infer_list_type(
    dtd: Dtd,
    query: Query,
    result: TightenResult,
    mode: InferenceMode | None = None,
) -> Regex:
    """The content model of the view's top element.

    The expression is over the specialized keys of the pick step (use
    :func:`repro.regex.image` for the plain-DTD rendering).  Returns
    ``ε`` (empty content) when the condition is unsatisfiable.
    """
    with obs.span("inference.infer_list_type") as sp:
        ltype = _infer_list_type(dtd, query, result, mode)
        sp.set_attribute("empty", ltype is EPSILON)
    return ltype


def _infer_list_type(
    dtd: Dtd,
    query: Query,
    result: TightenResult,
    mode: InferenceMode | None = None,
) -> Regex:
    if mode is None:
        mode = result.mode
    # Use the resolved query whose nodes key the typings (wildcard
    # expansion rebuilds condition nodes).
    if result.query is not None:
        query = result.query
    path = pick_path(query)
    root_typing = result.typing_of(path.steps[0])

    # Level 0: the document root.
    if dtd.root is not None:
        feasible = [n for n in root_typing.keys if n == dtd.root]
    else:
        feasible = sorted(root_typing.keys)
    if not feasible:
        return EPSILON
    level_types: list[Regex] = []
    for name in feasible:
        key_sym = Sym(*root_typing.keys[name])
        if mode is InferenceMode.PAPER:
            # The paper defers the root's optionality to the first
            # extension; a root-level pick applies it directly below.
            level_types.append(key_sym)
        elif root_typing.classes[name].is_valid:
            level_types.append(key_sym)
        else:
            level_types.append(opt(key_sym))
    ltype = alt(*level_types) if len(level_types) > 1 else level_types[0]

    prev_typing = root_typing
    for step in path.steps[1:]:
        step_typing = result.typing_of(step)
        if not step_typing.feasible:
            return EPSILON
        ltype = _extend(ltype, result, dtd, prev_typing, mode)
        ltype = _project(ltype, step_typing, mode, {})
        prev_typing = step_typing

    if mode is InferenceMode.PAPER:
        # Apply the deferred optionality when the pick is the root
        # itself (no extension step ever wrapped it).
        if len(path.steps) == 1:
            name = feasible[0]
            if not root_typing.classes[name].is_valid:
                ltype = opt(ltype)
        else:
            root_class = root_typing.classification
            if not root_class.is_valid and not _is_nullable_safe(ltype):
                ltype = opt(ltype)
    return simplify_list_type(ltype)


def _is_nullable_safe(r: Regex) -> bool:
    from ..regex import nullable

    return nullable(r)
