"""Collapsing equivalent specializations of an s-DTD.

The tightening algorithm gives every condition node a fresh
specialization tag; many end up equivalent -- the paper notes this for
Example 3.4 ("the third one, named publication^2, has essentially the
same type with publication^1", footnote 8) and merges them by hand.
This module does it systematically.

Two tagged names of the same element name are *equivalent* when their
types describe the same element trees; we compute the coarsest
partition of keys such that, renaming every key to its class
representative, equivalent-class members have language-equivalent
content models (a bisimulation-style greatest fixpoint; exact for
non-recursive s-DTDs, sound for recursive ones).

Classes containing the base key are renumbered to tag 0, the rest to
1, 2, ... in order of first use, and all content models are rewritten.
Collapsing a specialization into the base key is harmless even for
counting constraints: a position in a content model is a position
regardless of its tag, so ``j*, j^1, j*, j^2, j*`` still demands two
``j`` children after both tags collapse to the base.

Each refinement round maps every member's renamed content model to its
canonical minimal-DFA signature (:func:`repro.regex.canonical_signature`)
and groups members by signature: one minimization per member per round,
O(n) instead of O(n^2) pairwise equivalence tests.  The pairwise
formulation is kept in ``tests/oracles.py`` as the differential oracle.
"""

from __future__ import annotations

from .. import obs
from ..dtd import Pcdata, SpecializedDtd, TaggedName
from ..regex import Sym, canonical_signature, substitute
from .tighten import NodeTyping, TightenResult


def _representative(members: list[TaggedName]) -> TaggedName:
    """Canonical member of a class: the base key if present, else min tag."""
    return min(members, key=lambda key: key[1])


def _initial_classes(sdtd: SpecializedDtd) -> list[list[TaggedName]]:
    """Initial partition: by (name, PCDATA-or-regex kind)."""
    by_group: dict[tuple[str, bool], list[TaggedName]] = {}
    for key, content in sdtd.types.items():
        group = (key[0], isinstance(content, Pcdata))
        by_group.setdefault(group, []).append(key)
    return [sorted(members) for members in by_group.values()]


def _rep_map(classes: list[list[TaggedName]]) -> dict[TaggedName, Sym]:
    """Renaming to class representatives, identity entries omitted.

    A key that is its own representative renames to itself; leaving it
    out keeps the map small and lets :func:`repro.regex.substitute` return
    untouched subtrees by pointer instead of walking them.
    """
    rep_map: dict[TaggedName, Sym] = {}
    for members in classes:
        rep = _representative(members)
        for key in members:
            if key != rep:
                rep_map[key] = Sym(rep[0], rep[1])
    return rep_map


def _classes_to_result(
    classes: list[list[TaggedName]],
) -> dict[TaggedName, TaggedName]:
    result: dict[TaggedName, TaggedName] = {}
    for members in classes:
        rep = _representative(members)
        for key in members:
            result[key] = rep
    return result


def _split_by_signature(
    sdtd: SpecializedDtd,
    members: list[TaggedName],
    rep_map: dict[TaggedName, Sym],
) -> list[list[TaggedName]]:
    """One refinement step: group members by canonical signature.

    The initial partition already separates PCDATA from regex kinds
    and refinement only ever splits, so a non-singleton class is
    homogeneous: either all PCDATA (nothing to split) or all regexes.
    """
    first = sdtd.types[members[0]]
    if isinstance(first, Pcdata):
        return [members]
    buckets: dict[object, list[TaggedName]] = {}
    for key in members:
        content = substitute(sdtd.types[key], rep_map)
        buckets.setdefault(canonical_signature(content), []).append(key)
    return list(buckets.values())


def compute_equivalence(sdtd: SpecializedDtd) -> dict[TaggedName, TaggedName]:
    """Map each key to its equivalence-class representative."""
    classes = _initial_classes(sdtd)

    while True:
        rep_map = _rep_map(classes)
        new_classes: list[list[TaggedName]] = []
        changed = False
        for members in classes:
            if len(members) == 1:
                new_classes.append(members)
                continue
            split_members = _split_by_signature(sdtd, members, rep_map)
            if len(split_members) > 1:
                changed = True
            new_classes.extend(split_members)
        classes = new_classes
        if not changed:
            break

    return _classes_to_result(classes)


def _renumber(
    equivalence: dict[TaggedName, TaggedName],
    sdtd: SpecializedDtd,
) -> dict[TaggedName, TaggedName]:
    """Final key map: base classes to tag 0, others to 1, 2, ... per name."""
    final: dict[TaggedName, TaggedName] = {}
    next_tag: dict[str, int] = {}
    rep_target: dict[TaggedName, TaggedName] = {}
    base_taken: set[str] = set()
    # Classes containing a declared base key claim tag 0 first.
    for key in sorted(sdtd.types):
        rep = equivalence[key]
        name = rep[0]
        if (name, 0) in equivalence and equivalence[(name, 0)] == rep:
            rep_target[rep] = (name, 0)
            base_taken.add(name)
    # Remaining classes: the first class of a name whose base is not
    # declared also takes tag 0 (the paper's D3 writes the refined
    # ``publication`` untagged because the base never appears); others
    # get 1, 2, ... in deterministic (name, tag) order.
    for key in sorted(sdtd.types):
        rep = equivalence[key]
        name = rep[0]
        if rep not in rep_target:
            if name not in base_taken:
                rep_target[rep] = (name, 0)
                base_taken.add(name)
            else:
                tag = next_tag.get(name, 0) + 1
                next_tag[name] = tag
                rep_target[rep] = (name, tag)
        final[key] = rep_target[rep]
    return final


def collapse_equivalent(
    sdtd: SpecializedDtd,
) -> tuple[SpecializedDtd, dict[TaggedName, TaggedName]]:
    """Collapse equivalent specializations; returns (s-DTD, key map)."""
    return _collapse_classes(sdtd, compute_equivalence(sdtd))


def _collapse_classes(
    sdtd: SpecializedDtd,
    equivalence: dict[TaggedName, TaggedName],
) -> tuple[SpecializedDtd, dict[TaggedName, TaggedName]]:
    """Merge each class of ``equivalence`` into one renumbered key."""
    final = _renumber(equivalence, sdtd)
    sym_map = {
        key: Sym(*target) for key, target in final.items() if key != target
    }

    new_types: dict[TaggedName, object] = {}
    for key, content in sdtd.types.items():
        target = final[key]
        if target in new_types:
            continue
        if isinstance(content, Pcdata):
            new_types[target] = content
        else:
            new_types[target] = substitute(content, sym_map)
    new_root = final[sdtd.root] if sdtd.root is not None else None
    collapsed = SpecializedDtd(new_types, new_root)
    collapsed.check_consistency()
    return collapsed, final


def collapse_result(result: TightenResult) -> TightenResult:
    """Apply collapsing to a :class:`TightenResult`, remapping typings."""
    with obs.span("inference.collapse") as sp:
        sp.set_attribute("types_before", len(result.sdtd.types))
        collapsed, final = collapse_equivalent(result.sdtd)
        sp.set_attribute("types_after", len(collapsed.types))
    new_typings: dict[int, NodeTyping] = {}
    for node_id, typing in result.typings.items():
        new_typings[node_id] = NodeTyping(
            typing.node,
            {name: final[key] for name, key in typing.keys.items()},
            dict(typing.classes),
        )
    return TightenResult(
        collapsed,
        new_typings,
        new_typings[id(result.root.node)],
        result.mode,
        result.query,
    )
