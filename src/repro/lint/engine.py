"""The lint driver: select rules, run them, collect a report.

:func:`run_lint` is the programmatic entry point; the CLI's ``repro
lint``, ``Mediator.preflight``, and the inference pipeline all go
through it.  Rule selection takes exact codes or prefixes (``MIX``
selects every query rule), mirroring familiar linters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from .diagnostics import DiagnosticReport
from .registry import LintConfig, LintContext, all_rules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dtd import Dtd, SpecializedDtd
    from ..inference.classify import InferenceMode
    from ..inference.pipeline import InferenceResult
    from ..xmas import Query


def _selected(code: str, patterns: Iterable[str] | None) -> bool:
    if patterns is None:
        return True
    return any(code == p or code.startswith(p) for p in patterns)


def run_lint(
    dtd: "Dtd | None" = None,
    query: "Query | None" = None,
    sdtd: "SpecializedDtd | None" = None,
    inference: "InferenceResult | None" = None,
    *,
    mode: "InferenceMode | None" = None,
    config: LintConfig | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    scopes: Iterable[str] | None = None,
    dtd_text: str | None = None,
    query_text: str | None = None,
    cache: dict[str, Any] | None = None,
    origin: str = "",
) -> DiagnosticReport:
    """Run every applicable registered rule and collect the findings.

    Inputs are all optional; a rule runs when the inputs its scope
    needs are present (query rules additionally need the DTD to check
    against).  ``select``/``ignore`` filter by code or code prefix;
    ``scopes`` restricts to rule scopes (:func:`lint_query` runs only
    ``{"query"}``).  ``cache`` may be a caller-owned dict: shared
    analyses (the Tighten run) land in it, so callers can reuse them
    after the lint pass.
    """
    ctx = LintContext(
        dtd=dtd,
        query=query,
        sdtd=sdtd,
        inference=inference,
        mode=mode,
        dtd_text=dtd_text,
        query_text=query_text,
        config=config if config is not None else LintConfig(),
        cache=cache if cache is not None else {},
        origin=origin,
    )
    ignore = list(ignore) if ignore is not None else None
    select = list(select) if select is not None else None
    scope_set = set(scopes) if scopes is not None else None
    report = DiagnosticReport()
    for rule in all_rules():
        if scope_set is not None and rule.scope not in scope_set:
            continue
        if not _selected(rule.code, select):
            continue
        if ignore is not None and _selected(rule.code, ignore):
            continue
        if not rule.applicable(ctx):
            continue
        report.extend(rule.check(ctx))
    return report


def lint_query(
    query: "Query",
    dtd: "Dtd",
    *,
    mode: "InferenceMode | None" = None,
    config: LintConfig | None = None,
    cache: dict[str, Any] | None = None,
    query_text: str | None = None,
    origin: str = "",
) -> DiagnosticReport:
    """Query form: only query-scope rules, no DTD re-audit.

    This is the report ``Mediator.preflight`` returns.  It stays cheap:
    one uncollapsed Tighten run, shared by every rule via ``cache``.
    """
    return run_lint(
        dtd=dtd,
        query=query,
        mode=mode,
        config=config,
        scopes={"query"},
        cache=cache,
        query_text=query_text,
        origin=origin,
    )


def lint_dtd(
    dtd: "Dtd",
    *,
    config: LintConfig | None = None,
    dtd_text: str | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    origin: str = "",
) -> DiagnosticReport:
    """Audit a DTD alone (no query)."""
    return run_lint(
        dtd=dtd,
        config=config,
        dtd_text=dtd_text,
        select=select,
        ignore=ignore,
        origin=origin,
    )
