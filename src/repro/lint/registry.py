"""The plugin-style rule registry and the shared lint context.

A rule is a :class:`LintRule` subclass with a stable code (claimed in
the unified namespace of :mod:`repro.errors`), a scope saying which
inputs it needs, and a ``check`` method yielding diagnostics.  Rules
register themselves with the :func:`register_rule` decorator at import
time; :func:`repro.lint.engine.run_lint` selects the applicable ones.

The :class:`LintContext` carries the inputs of one run plus a shared
cache so expensive analyses (one Tighten run per query) are computed
once and reused by every rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..errors import QueryAnalysisError, register_diagnostic_code
from .diagnostics import Diagnostic, Severity, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dtd import Dtd, SpecializedDtd
    from ..inference.classify import InferenceMode
    from ..inference.pipeline import InferenceResult
    from ..inference.tighten import TightenResult
    from ..xmas import Query


@dataclass
class LintConfig:
    """Tunable thresholds for advisory rules."""

    #: warn when wildcard expansion multiplies the condition tree by
    #: more than this many names (MIX104)
    wildcard_expansion_limit: int = 16


@dataclass
class LintContext:
    """Everything a rule may look at during one run."""

    dtd: "Dtd | None" = None
    query: "Query | None" = None
    sdtd: "SpecializedDtd | None" = None
    inference: "InferenceResult | None" = None
    mode: "InferenceMode | None" = None
    #: source texts, when available, for best-effort line/column spans
    dtd_text: str | None = None
    query_text: str | None = None
    config: LintConfig = field(default_factory=LintConfig)
    #: shared per-run computations, keyed by analysis name
    cache: dict[str, Any] = field(default_factory=dict)
    #: label attached to every diagnostic (multi-input runs)
    origin: str = ""

    def tightening(self) -> "TightenResult | None":
        """The (uncollapsed) Tighten run of query-vs-DTD, shared.

        ``None`` when the query is outside the pick-element class the
        algorithm handles (recursive steps, several pick nodes) -- the
        scope rules report those cases instead.
        """
        if "tighten" in self.cache:
            return self.cache["tighten"]
        result: "TightenResult | None" = None
        if self.query is not None and self.dtd is not None:
            from ..inference.classify import InferenceMode
            from ..inference.tighten import tighten

            mode = self.mode if self.mode is not None else InferenceMode.EXACT
            try:
                result = tighten(
                    self.dtd, self.query, mode, collapse=False, strict=False
                )
            except QueryAnalysisError:
                result = None
        self.cache["tighten"] = result
        return result


class LintRule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` names the inputs the rule needs: ``"dtd"``, ``"query"``
    (implies a DTD to check against), ``"sdtd"``, or ``"view"`` (an
    :class:`~repro.inference.pipeline.InferenceResult`).
    """

    code: str = ""
    name: str = ""
    severity: Severity = Severity.WARNING
    scope: str = "dtd"
    anchor: str = ""
    description: str = ""

    def applicable(self, ctx: LintContext) -> bool:
        if self.scope == "dtd":
            return ctx.dtd is not None
        if self.scope == "query":
            return ctx.query is not None and ctx.dtd is not None
        if self.scope == "sdtd":
            return ctx.sdtd is not None
        if self.scope == "view":
            return ctx.inference is not None
        raise ValueError(f"unknown rule scope {self.scope!r}")

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def finding(
        self,
        ctx: LintContext,
        message: str,
        span: Span | None = None,
        severity: Severity | None = None,
        **data: Any,
    ) -> Diagnostic:
        """Build a diagnostic pre-filled from the rule's attributes."""
        return Diagnostic(
            code=self.code,
            severity=severity if severity is not None else self.severity,
            message=message,
            span=span,
            rule=self.name,
            anchor=self.anchor,
            data=data,
            origin=ctx.origin,
        )


#: code -> rule instance, in registration order (dicts preserve it)
_REGISTRY: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: instantiate and register a rule.

    The rule's code is claimed in the unified diagnostic-code namespace
    (collisions with exception codes or other rules raise).
    """
    rule = cls()
    if not rule.code or not rule.name:
        raise ValueError(f"rule {cls.__name__} needs a code and a name")
    if rule.code in _REGISTRY:
        raise ValueError(f"lint rule code {rule.code!r} already registered")
    register_diagnostic_code(rule.code, rule.description or rule.name)
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> list[LintRule]:
    """Every registered rule, in registration order."""
    return list(_REGISTRY.values())


def rules_for_scopes(scopes: Iterable[str]) -> list[LintRule]:
    wanted = set(scopes)
    return [rule for rule in _REGISTRY.values() if rule.scope in wanted]


def rule_by_code(code: str) -> LintRule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"no lint rule with code {code!r}")


def iter_rule_catalog() -> Iterator[tuple[str, str, str, str, str]]:
    """(code, name, severity, scope, anchor) rows for documentation."""
    for rule in _REGISTRY.values():
        yield (
            rule.code,
            rule.name,
            rule.severity.value,
            rule.scope,
            rule.anchor,
        )
