"""The diagnostics framework: severities, spans, findings, reports.

A :class:`Diagnostic` is one static finding with a stable code from the
unified namespace of :mod:`repro.errors`, a severity, a human message,
an optional source :class:`Span`, and machine-readable extras.  A
:class:`DiagnosticReport` aggregates the findings of one lint run and
renders them as text (CLI default) or JSON (``--format json``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make ``repro lint`` exit nonzero (a ``MIX101``
    query is one the mediator answers empty without a source fan-out);
    warnings and infos are advice.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Errors first: ERROR=0, WARNING=1, INFO=2."""
        return _SEVERITY_ORDER.index(self)


_SEVERITY_ORDER = [Severity.ERROR, Severity.WARNING, Severity.INFO]


@dataclass(frozen=True)
class Span:
    """Where a finding points.

    ``subject`` is a structural locator that always exists -- an element
    name for DTD findings, a ``/``-joined condition path for query
    findings.  ``line``/``column`` (1-based) are filled in best-effort
    when the lint run was given source text (see
    :mod:`repro.lint.locate`).
    """

    subject: str
    line: int | None = None
    column: int | None = None

    def __str__(self) -> str:
        if self.line is None:
            return self.subject
        if self.column is None:
            return f"{self.subject} (line {self.line})"
        return f"{self.subject} (line {self.line}, column {self.column})"

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"subject": self.subject}
        if self.line is not None:
            data["line"] = self.line
        if self.column is not None:
            data["column"] = self.column
        return data


@dataclass(frozen=True)
class Diagnostic:
    """One static finding."""

    code: str
    severity: Severity
    message: str
    span: Span | None = None
    #: the kebab-case rule name that produced this finding
    rule: str = ""
    #: where in the paper the underlying analysis comes from
    anchor: str = ""
    #: machine-readable extras (classification verdicts, name lists, ...)
    data: dict[str, Any] = field(default_factory=dict)
    #: which workload/input the finding belongs to (multi-input runs)
    origin: str = ""

    def render(self) -> str:
        """The CLI text form: ``error[MIX101] at span: message``."""
        parts = [f"{self.severity.value}[{self.code}]"]
        if self.origin:
            parts.append(f"({self.origin})")
        if self.span is not None:
            parts.append(f"at {self.span}:")
        parts.append(self.message)
        return " ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "rule": self.rule,
        }
        if self.span is not None:
            data["span"] = self.span.to_dict()
        if self.anchor:
            data["anchor"] = self.anchor
        if self.data:
            data["data"] = self.data
        if self.origin:
            data["origin"] = self.origin
        return data


@dataclass
class DiagnosticReport:
    """All findings of one lint run, ordered by severity then code."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.diagnostics)

    def sorted(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.code, d.origin, d.message),
        )

    def by_code(self, code: str) -> list[Diagnostic]:
        """Findings with the given code."""
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> frozenset[str]:
        return frozenset(d.code for d in self.diagnostics)

    def with_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.with_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.with_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.with_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        """True exactly when an error-severity finding is present."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def exit_code(self) -> int:
        """The process exit code ``repro lint`` should use."""
        return 1 if self.has_errors else 0

    def summary(self) -> str:
        """``2 errors, 1 warning, 3 infos`` (omitting zero buckets)."""
        parts = []
        for label, bucket in (
            ("error", self.errors),
            ("warning", self.warnings),
            ("info", self.infos),
        ):
            if bucket:
                plural = "" if len(bucket) == 1 else "s"
                parts.append(f"{len(bucket)} {label}{plural}")
        return ", ".join(parts) if parts else "clean"

    def render(self, show_anchors: bool = True) -> str:
        """The multi-line text report."""
        lines = []
        for diagnostic in self.sorted():
            lines.append(diagnostic.render())
            if show_anchors and diagnostic.anchor:
                lines.append(f"  = paper: {diagnostic.anchor}")
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self, indent: int | None = None) -> str:
        """Machine-readable form for ``repro lint --format json``."""
        payload = {
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
                "exit_code": self.exit_code,
            },
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def merged_with(self, other: "DiagnosticReport") -> "DiagnosticReport":
        """A new report holding both runs' findings."""
        return DiagnosticReport(list(self.diagnostics) + list(other.diagnostics))
