"""Sources and wrappers.

A :class:`Source` models a wrapped repository: it exports XML documents
together with the DTD describing them (the paper's premise is that XML
sources, unlike OEM sources, ship a DTD).  The wrapper's job --
translating native data to XML -- is outside our scope; a source here
simply holds valid documents and answers pick-element queries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dtd import Dtd, validate_document
from ..errors import ValidationError
from ..xmas import Query, evaluate_many
from ..xmlmodel import Document

if TYPE_CHECKING:
    from ..store import DocumentStore


@dataclass
class Source:
    """A wrapped XML repository with a DTD.

    Documents are validated on insertion; a source never holds a
    document that violates its own DTD (that is what makes the view
    DTD inference sound end-to-end).
    """

    name: str
    dtd: Dtd
    documents: list[Document] = field(default_factory=list)
    #: set False to skip validation for trusted bulk loads (benchmarks)
    validate: bool = True
    #: how many queries this source has answered (fan-out accounting:
    #: the mediator pre-flight is measured by what *never* gets here)
    queries_served: int = 0
    #: a :class:`~repro.store.DocumentStore` whose documents this
    #: source serves in addition to ``documents`` (loaded as handles in
    #: ``__post_init__``; validated per ``validate`` like any other)
    attach_store: "DocumentStore | None" = None
    #: guards ``queries_served``: concurrent ``repro serve`` handler
    #: threads hit the same source, and an unguarded ``+= 1`` is a
    #: read-modify-write that loses increments under contention
    _served_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        existing, self.documents = self.documents, []
        for document in existing:
            self.add_document(document)
        if self.attach_store is not None:
            for document in self.attach_store.documents():
                self.add_document(document)

    @classmethod
    def from_store(
        cls,
        name: str,
        dtd: Dtd,
        store: "DocumentStore",
        *,
        source: str | None = None,
        validate: bool = False,
    ) -> "Source":
        """A source backed by a persistent :class:`~repro.store.DocumentStore`.

        Loads the store's document handles (all of them, or only those
        ingested under ``source=``) without hydrating any trees; the
        compiled engine answers queries straight from the stored
        preorder arrays.  ``validate=True`` checks each document
        against ``dtd`` up front -- that hydrates every tree once, so
        leave it off for large corpora that were validated at ingest.
        """
        documents = store.documents(source=source)
        src = cls(name, dtd, [], validate=validate)
        for document in documents:
            src.add_document(document)
        return src

    def add_document(self, document: Document) -> None:
        """Add a document, validating it against the source DTD."""
        if self.validate:
            report = validate_document(document, self.dtd)
            if not report.ok:
                raise ValidationError(
                    f"document rejected by source {self.name!r}: {report}"
                )
        self.documents.append(document)

    def query(self, query: Query) -> Document:
        """Answer a pick-element query over all documents.

        An empty source is a degenerate *healthy* source, not an
        error: the answer is the empty-but-valid view document (no
        picks), exactly what evaluating over zero documents yields.
        Failing here used to conflate "nothing to say" with "cannot
        answer", which the fault-tolerant transport layer must keep
        apart (docs/RELIABILITY.md).
        """
        with self._served_lock:
            self.queries_served += 1
        return evaluate_many(query, self.documents)

    def warm_indexes(self) -> int:
        """Pre-build the document indexes the compiled engine uses.

        Serving latency work moved to load time; returns the number of
        documents indexed.
        """
        from ..xmlmodel import document_index

        for document in self.documents:
            document_index(document)
        return len(self.documents)

    def size(self) -> int:
        """Total number of elements across all documents."""
        return sum(document.size() for document in self.documents)
