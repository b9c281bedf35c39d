"""View DTD inference for multi-source union views.

Section 1 motivates mediators that integrate many sources ("a view
that unions the structures exported by 100 sites") -- TSIMMIS could
only do this *loosely*, with no structure information at all.  With
DTDs the union view gets a precise description: each branch is
inferred against its own source DTD, and the branches' specialized
types are combined.

Name collisions across sources are where specialized DTDs shine: if
two sources both declare ``publication`` with different types, the
union s-DTD keeps them apart as ``publication^i`` / ``publication^j``
(collapsing them only when genuinely equivalent), while the merged
plain DTD unions them and signals the tightness loss -- making the
intro's "loose integration" story measurable.

Union semantics: the view's content is branch 1's picks followed by
branch 2's picks, etc. (each branch in its own document order), so the
view list type is the concatenation of the branch list types.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dtd import Dtd, Pcdata, SpecializedDtd, TaggedName, prune_unreachable_sdtd
from ..errors import QueryAnalysisError
from ..regex import Regex, Sym, concat, substitute
from ..xmas import Query
from .classify import Classification, InferenceMode
from .collapse import collapse_equivalent
from .listtype import infer_list_type
from .merge import MergeResult, merge_sdtd
from .simplifytype import simplify_list_type, simplify_type
from .tighten import tighten


@dataclass
class UnionBranch:
    """One branch of a union view: a query over one source DTD."""

    dtd: Dtd
    query: Query


@dataclass
class UnionInferenceResult:
    """The inferred description of a union view.

    Mirrors :class:`repro.inference.pipeline.InferenceResult` for the
    union case; ``branch_list_types`` holds the per-branch list types
    (over the combined key namespace) whose concatenation is
    ``list_type``.
    """

    view_name: str
    sdtd: SpecializedDtd
    dtd: Dtd
    list_type: Regex
    branch_list_types: list[Regex]
    classification: Classification
    merge: MergeResult
    mode: InferenceMode


def _combine_classifications(parts: list[Classification]) -> Classification:
    if all(c is Classification.UNSATISFIABLE for c in parts):
        return Classification.UNSATISFIABLE
    if any(c is Classification.VALID for c in parts):
        return Classification.VALID
    return Classification.SATISFIABLE


def infer_union_view_dtd(
    branches: list[UnionBranch],
    view_name: str,
    mode: InferenceMode = InferenceMode.EXACT,
) -> UnionInferenceResult:
    """Infer the (specialized and plain) DTD of a union view."""
    if not branches:
        raise QueryAnalysisError("a union view needs at least one branch")
    for branch in branches:
        if view_name in branch.dtd:
            raise QueryAnalysisError(
                f"view name {view_name!r} collides with a source element "
                "name"
            )

    combined_types: dict[TaggedName, object] = {}
    branch_list_types: list[Regex] = []
    classifications: list[Classification] = []
    counters: dict[str, int] = {}

    for branch in branches:
        result = tighten(branch.dtd, branch.query, mode)
        list_type = infer_list_type(branch.dtd, branch.query, result, mode)
        classifications.append(result.classification)

        # Re-tag this branch's keys into the combined namespace so that
        # same-named types from different sources stay distinct until
        # the equivalence collapse proves them equal.
        remap: dict[TaggedName, Sym] = {}
        for key in sorted(result.sdtd.types):
            name = key[0]
            counters[name] = counters.get(name, 0) + 1
            remap[key] = Sym(name, counters[name])
        for key, content in result.sdtd.types.items():
            target = remap[key].key()
            combined_types[target] = (
                content
                if isinstance(content, Pcdata)
                else substitute(content, remap)
            )
        branch_list_types.append(substitute(list_type, remap))

    view_key = (view_name, 0)
    combined_types[view_key] = concat(*branch_list_types)
    combined = SpecializedDtd(combined_types, view_key)
    combined.check_consistency()

    # Prune first so the collapse renumbers only the surviving keys
    # (dense tags in the final s-DTD).
    combined = prune_unreachable_sdtd(combined)
    collapsed, final = collapse_equivalent(combined)
    collapsed = prune_unreachable_sdtd(collapsed)
    # Simplify for readability (language-preserving).
    collapsed = SpecializedDtd(
        {
            key: (
                content
                if isinstance(content, Pcdata)
                else simplify_type(content)
            )
            for key, content in collapsed.types.items()
        },
        collapsed.root,
    )
    collapsed.check_consistency()

    merge = merge_sdtd(collapsed)
    view_type = collapsed.types[final[view_key]]
    final_list = (
        view_type
        if isinstance(view_type, Pcdata)
        else simplify_list_type(view_type)
    )
    renamed_branches = [
        simplify_list_type(
            substitute(lt, {k: Sym(*v) for k, v in final.items()})
        )
        for lt in branch_list_types
    ]
    return UnionInferenceResult(
        view_name=view_name,
        sdtd=collapsed,
        dtd=merge.dtd,
        list_type=final_list,
        branch_list_types=renamed_branches,
        classification=_combine_classifications(classifications),
        merge=merge,
        mode=mode,
    )


def evaluate_union(
    branches: list[UnionBranch],
    documents: list[list],
    view_name: str,
):
    """Evaluate a union view: branch picks concatenated in branch order.

    ``documents[i]`` is the document list of branch ``i``'s source.
    Each branch's picks are the answer copies ``evaluate_many`` builds.
    """
    from ..xmas import evaluate_many
    from ..xmlmodel import Document, Element, fresh_id

    picks = [
        pick
        for branch, docs in zip(branches, documents)
        for pick in evaluate_many(branch.query, docs).root.children
    ]
    return Document(Element(view_name, picks, fresh_id()))
