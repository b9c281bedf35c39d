"""XMAS query-vs-DTD rules: MIX1xx.

The load-bearing analyses come straight from the inference layer: one
(uncollapsed) run of Algorithm Tighten per query classifies every
condition node as valid / satisfiable / unsatisfiable (Section 4.2's
side effect), and the lint rules turn that into findings -- a
provably-empty query is an *error* (the mediator's simplifier answers
it on the same verdict without a fan-out), an always-true sub-condition is a simplification
hint, recursion and wildcard blowup are scope/cost warnings.
"""

from __future__ import annotations

from typing import Iterable

from ..inference.classify import Classification, anchored_classification
from ..xmas.analysis import has_recursive_steps
from ..xmas.ast import Condition, Query
from .diagnostics import Diagnostic, Severity
from .locate import condition_path, query_span
from .registry import LintContext, LintRule, register_rule


def _span_for(ctx: LintContext, root: Condition, node: Condition):
    token = None
    if node.test.names:
        token = node.test.names[0]
    return query_span(ctx.query_text, condition_path(root, node), token)


def query_classification(ctx: LintContext) -> Classification | None:
    """The overall verdict, shared across rules.

    The query simplifier's own verdict
    (:func:`~repro.inference.classify.anchored_classification`), so
    ``MIX101`` fires exactly when the mediator answers empty.  ``None``
    when the query is outside the pick-element class.
    """
    if "classification" in ctx.cache:
        return ctx.cache["classification"]
    result = ctx.tightening()
    verdict: Classification | None = None
    if result is not None:
        assert ctx.dtd is not None
        verdict = anchored_classification(result, ctx.dtd)
    ctx.cache["classification"] = verdict
    return verdict


@register_rule
class ClassificationRule(LintRule):
    code = "MIX100"
    name = "classification"
    severity = Severity.INFO
    scope = "query"
    anchor = "Section 4.2 (Tighten's valid/satisfiable/unsatisfiable)"
    description = "reports the Tighten classification of the query"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None
        verdict = query_classification(ctx)
        if verdict is None:
            return
        yield self.finding(
            ctx,
            f"query {ctx.query.view_name!r} is {verdict.value} against "
            "the source DTD",
            classification=verdict.value,
        )


@register_rule
class DeadPathRule(LintRule):
    code = "MIX101"
    name = "dead-path"
    severity = Severity.ERROR
    scope = "query"
    anchor = "Section 1 / 4.2 (query simplifier: provably empty queries)"
    description = "query is unsatisfiable: no valid document matches"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None and ctx.dtd is not None
        verdict = query_classification(ctx)
        if verdict is not Classification.UNSATISFIABLE:
            return
        result = ctx.tightening()
        if result is None:  # pragma: no cover - verdict implies a result
            return
        resolved_root = result.query.root if result.query else ctx.query.root
        origins = self._dead_origins(resolved_root, result)
        if origins:
            for node in origins:
                yield self.finding(
                    ctx,
                    f"condition <{node.test}> can never be satisfied by "
                    "an element valid under the source DTD (dead path); "
                    "the answer is provably empty",
                    span=_span_for(ctx, resolved_root, node),
                    classification=verdict.value,
                )
        else:
            # Every node is individually feasible, but the root test
            # cannot match the document type.
            yield self.finding(
                ctx,
                f"root condition <{resolved_root.test}> cannot match the "
                f"document type {ctx.dtd.root!r}; the answer is provably "
                "empty",
                span=_span_for(ctx, resolved_root, resolved_root),
                classification=verdict.value,
            )

    @staticmethod
    def _dead_origins(root: Condition, result) -> list[Condition]:
        """Deepest infeasible nodes: infeasible, all children feasible."""

        def feasible(node: Condition) -> bool:
            typing = result.typings.get(id(node))
            return typing is not None and typing.feasible

        origins = []
        for node in root.iter_nodes():
            if not feasible(node) and all(
                feasible(child) for child in node.children
            ):
                origins.append(node)
        return origins


@register_rule
class RedundantConditionRule(LintRule):
    code = "MIX102"
    name = "redundant-condition"
    severity = Severity.INFO
    scope = "query"
    anchor = "Section 1 (simplifier prunes valid sub-conditions)"
    description = "sub-condition always holds; an existence test suffices"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None
        result = ctx.tightening()
        if result is None:
            return
        verdict = query_classification(ctx)
        if verdict is Classification.UNSATISFIABLE:
            return  # dead queries get MIX101, not simplification hints
        resolved_root = result.query.root if result.query else ctx.query.root
        for node in resolved_root.iter_nodes():
            if not node.children:
                continue  # bare existence tests are already minimal
            typing = result.typings.get(id(node))
            if typing is None or not typing.classification.is_valid:
                continue
            yield self.finding(
                ctx,
                f"condition <{node.test}> with its {len(node.children)} "
                "child condition(s) holds for every matching element; "
                "a bare existence test is equivalent and cheaper",
                span=_span_for(ctx, resolved_root, node),
                children=len(node.children),
            )


@register_rule
class RecursivePathRule(LintRule):
    code = "MIX103"
    name = "recursive-path-step"
    severity = Severity.WARNING
    scope = "query"
    anchor = "Section 4.4 footnote 9; Example 3.5"
    description = "recursive path steps are outside inference's scope"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None
        if not has_recursive_steps(ctx.query):
            return
        root = ctx.query.root
        for node in root.iter_nodes():
            if node.recursive:
                yield self.finding(
                    ctx,
                    f"recursive path step <{node.test}*>: view-DTD "
                    "inference and the DTD-based simplifier do not apply "
                    "(evaluation still works)",
                    span=_span_for(ctx, root, node),
                )


@register_rule
class WildcardBlowupRule(LintRule):
    code = "MIX104"
    name = "wildcard-expansion-blowup"
    severity = Severity.WARNING
    scope = "query"
    anchor = "Section 2.1 preprocessing (wildcard -> all-names disjunction)"
    description = "wildcard expansion multiplies the condition tree"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None and ctx.dtd is not None
        wildcards = [
            node
            for node in ctx.query.root.iter_nodes()
            if node.test.is_wildcard
        ]
        if not wildcards:
            return
        width = len(ctx.dtd.names)
        if width <= ctx.config.wildcard_expansion_limit:
            return
        yield self.finding(
            ctx,
            f"{len(wildcards)} wildcard name test(s) expand to a "
            f"{width}-way disjunction each (DTD declares {width} names); "
            "inference cost grows with the expansion -- consider naming "
            "the intended elements",
            span=_span_for(ctx, ctx.query.root, wildcards[0]),
            wildcard_nodes=len(wildcards),
            dtd_names=width,
        )


@register_rule
class UndeclaredQueryNameRule(LintRule):
    code = "MIX105"
    name = "undeclared-query-name"
    severity = Severity.WARNING
    scope = "query"
    anchor = "Section 2.1 (conditions over the source DTD's names)"
    description = "query mentions element names the DTD does not declare"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None and ctx.dtd is not None
        root = ctx.query.root
        for node in root.iter_nodes():
            if node.test.names is None:
                continue
            missing = [n for n in node.test.names if n not in ctx.dtd]
            if not missing:
                continue
            all_missing = len(missing) == len(node.test.names)
            yield self.finding(
                ctx,
                f"condition <{node.test}> mentions undeclared element "
                f"name(s) {missing}; "
                + (
                    "the condition can never match"
                    if all_missing
                    else "those disjuncts can never match"
                ),
                span=_span_for(ctx, root, node),
                names=missing,
            )


@register_rule
class PickClassRule(LintRule):
    code = "MIX106"
    name = "outside-pick-element-class"
    severity = Severity.WARNING
    scope = "query"
    anchor = "Section 4.4 (single pick node per query)"
    description = "query is outside the pick-element class"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        assert ctx.query is not None
        picks = ctx.query.pick_nodes()
        if len(picks) == 1:
            return
        yield self.finding(
            ctx,
            f"pick variable {ctx.query.pick_variable!r} is bound at "
            f"{len(picks)} nodes; the DTD-based analyses need exactly "
            "one pick node",
            pick_nodes=len(picks),
        )
