"""Exception hierarchy and the diagnostic-code namespace.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.

Every exception class additionally carries a stable *diagnostic code*
(``DTD002``, ``MIX002``, ...).  Lint rules (:mod:`repro.lint`) register
their rule codes in the same namespace via
:func:`register_diagnostic_code`, so a code printed by the CLI -- be it
from a runtime failure or a static finding -- identifies exactly one
condition, catalogued in ``docs/DIAGNOSTICS.md``.
"""

from __future__ import annotations

#: The unified code namespace: code -> one-line description.  Exception
#: codes are registered below; lint rules add theirs on import of
#: :mod:`repro.lint`.
DIAGNOSTIC_CODES: dict[str, str] = {}


def register_diagnostic_code(code: str, description: str) -> str:
    """Claim a diagnostic code; collisions are programming errors.

    Returns the code so registrations can double as assignments.
    """
    if not code or not code[-1].isdigit():
        raise ValueError(f"malformed diagnostic code {code!r}")
    existing = DIAGNOSTIC_CODES.get(code)
    if existing is not None and existing != description:
        raise ValueError(
            f"diagnostic code {code!r} already registered for {existing!r}"
        )
    DIAGNOSTIC_CODES[code] = description
    return code


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    code = register_diagnostic_code("REPRO001", "library failure")


class RegexSyntaxError(ReproError):
    """A DTD content-model expression could not be parsed."""

    code = register_diagnostic_code(
        "REX001", "content-model expression syntax error"
    )

    def __init__(self, message: str, text: str, position: int) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


class XmlSyntaxError(ReproError):
    """An XML document could not be parsed."""

    code = register_diagnostic_code("XML001", "XML document syntax error")

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DtdSyntaxError(ReproError):
    """A DTD declaration could not be parsed."""

    code = register_diagnostic_code("DTD001", "DTD declaration syntax error")


class DtdConsistencyError(ReproError):
    """A DTD references undeclared names or is otherwise malformed."""

    code = register_diagnostic_code(
        "DTD002", "DTD references undeclared names / malformed"
    )


class ValidationError(ReproError):
    """A document does not satisfy a DTD.

    Raised by the ``require_valid`` helpers; the non-raising validators
    return a report object instead.
    """

    code = register_diagnostic_code(
        "VAL001", "document does not satisfy its DTD"
    )


class QuerySyntaxError(ReproError):
    """An XMAS query could not be parsed."""

    code = register_diagnostic_code("MIX001", "XMAS query syntax error")

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class QueryAnalysisError(ReproError):
    """A query is outside the class handled by an algorithm.

    For example, the view-DTD inference pipeline raises this for queries
    with recursive path steps (Section 4.4, footnote 9 of the paper).
    """

    code = register_diagnostic_code(
        "MIX002", "query outside the class an algorithm handles"
    )


class UnknownNameError(ReproError):
    """A query or document mentions an element name absent from the DTD."""

    code = register_diagnostic_code(
        "MIX003", "undeclared element name mentioned"
    )


class MediatorError(ReproError):
    """A mediator operation failed (unknown view, unknown source, ...)."""

    code = register_diagnostic_code("MED001", "mediator operation failed")


class SourceTimeout(MediatorError):
    """A source call exceeded its timeout or the fan-out deadline.

    The transport layer (:mod:`repro.mediator.transport`) detects
    overruns cooperatively: it charges each call's elapsed time (on
    the injectable clock) against the per-call timeout and the shared
    deadline budget, and converts overruns into this exception.
    """

    code = register_diagnostic_code(
        "MED002", "source call exceeded its timeout or deadline budget"
    )


class SourceUnavailable(MediatorError):
    """A source could not answer: retries exhausted or breaker open.

    Carries the terminal condition of the retry/breaker policy; the
    last underlying failure, when there is one, is attached as
    ``__cause__``.
    """

    code = register_diagnostic_code(
        "MED003", "source unavailable (retries exhausted or breaker open)"
    )


class DegradedAnswer(MediatorError):
    """A partial answer exists but cannot be returned soundly.

    Raised by the mediator's degradation mode when skipping the failed
    sources would yield an answer that violates the inferred view DTD
    (degradation never trades soundness for availability).  The
    partial document and the degradation report are attached as
    ``.document`` and ``.report`` so callers can still inspect them.
    """

    code = register_diagnostic_code(
        "MED004", "degraded answer refused: partial answer violates view DTD"
    )

    def __init__(self, message: str, document=None, report=None) -> None:
        super().__init__(message)
        self.document = document
        self.report = report


class FaultInjected(MediatorError):
    """A deterministic injected wrapper fault (testing/benchmarks only).

    Raised by :class:`repro.mediator.faults.FaultySource` on scheduled
    error outcomes; the transport layer treats it like any transient
    wrapper failure.
    """

    code = register_diagnostic_code(
        "MED005", "injected source fault (fault-injection harness)"
    )


#: Informational codes for the materialized-view answer cache
#: (:mod:`repro.mediator.matview`).  Nothing raises these: they label
#: span events, stats counters, and serve responses so operators can
#: grep one namespace for every cache decision (docs/DIAGNOSTICS.md).
CACHE_BYPASSED = register_diagnostic_code(
    "MED006", "materialized-view cache bypassed for this request"
)
STALE_DELTA_FALLBACK = register_diagnostic_code(
    "MED007",
    "delta maintenance unsound for this mutation; full recompute",
)


class ShardConfigError(MediatorError):
    """A sharded source's fragmentation is invalid.

    Raised by :class:`repro.mediator.sharding.ShardedSource` for
    structural misconfiguration: no fragments, duplicate fragment
    names, a fragment DTD that is no specialization of the logical
    DTD, or a routed document that fits no fragment DTD.
    """

    code = register_diagnostic_code(
        "MED009", "invalid shard fragmentation (sharded-source config)"
    )


class StoreError(ReproError):
    """A persistent document-store operation failed.

    Raised by :mod:`repro.store` for operational failures: using a
    closed store, a missing document id, or mutating a store-backed
    document (stored documents are immutable; re-ingest instead).
    """

    code = register_diagnostic_code(
        "STO001", "document store operation failed"
    )


class StoreFormatError(StoreError):
    """The file is not a repro document store (or a newer format).

    Raised when opening a SQLite file without the expected store
    tables/meta rows, or one written by an incompatible format
    version.
    """

    code = register_diagnostic_code(
        "STO002", "not a document store / incompatible format version"
    )


class StoreStaleError(StoreError):
    """A stored row vanished under a live index.

    Raised when a :class:`~repro.store.StoredDocumentIndex` reads a
    row that no longer exists -- its document was removed by another
    handle after the index was built (the on-disk generation counter
    catches this on the next ``document_index`` probe; this error
    covers reads racing the removal itself).
    """

    code = register_diagnostic_code(
        "STO003", "stored document changed under a live index"
    )
