"""Static diagnostics for XMAS queries, DTDs, and s-DTDs.

``repro lint`` -- a rule-based static analyzer in the spirit of static
query analysis over XML views: it reuses the inference layer's
classifications (Algorithm Tighten's valid / satisfiable /
unsatisfiable side effect, Section 4.2) and the DTD structural
analyses (reachability, recursion, XML 1.0 determinism,
one-unambiguity) as cheap *pre-flight* checks with stable diagnostic
codes, severities, source spans, and JSON output.

Three integration layers:

* the ``repro lint`` CLI command (:mod:`repro.cli`), nonzero exit
  exactly when an error-severity finding is present;
* :meth:`repro.mediator.Mediator.preflight`, the lint report of a
  query against a view DTD (its ``MIX101`` error is exactly the
  simplifier verdict on which the mediator answers without a source
  fan-out);
* the inference pipeline
  (:meth:`repro.inference.InferenceResult.diagnostics`), attaching
  findings to every inferred view DTD.

Rule modules register themselves on import; importing this package is
what populates the registry.
"""

from .diagnostics import Diagnostic, DiagnosticReport, Severity, Span
from .engine import lint_dtd, lint_query, run_lint
from .registry import (
    LintConfig,
    LintContext,
    LintRule,
    all_rules,
    iter_rule_catalog,
    register_rule,
    rule_by_code,
    rules_for_scopes,
)

# importing the rule modules populates the registry
from . import rules_dtd as _rules_dtd  # noqa: E402,F401
from . import rules_query as _rules_query  # noqa: E402,F401
from . import rules_sdtd as _rules_sdtd  # noqa: E402,F401
from . import rules_view as _rules_view  # noqa: E402,F401

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "LintConfig",
    "LintContext",
    "LintRule",
    "Severity",
    "Span",
    "all_rules",
    "iter_rule_catalog",
    "lint_dtd",
    "lint_query",
    "register_rule",
    "rule_by_code",
    "rules_for_scopes",
    "run_lint",
]
