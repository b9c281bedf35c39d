"""Persistent, larger-than-memory document store (ROADMAP item 4).

The in-memory pipeline parses every source document into an
:class:`~repro.xmlmodel.element.Element` tree and flattens it into a
:class:`~repro.xmlmodel.index.DocumentIndex`; both live in RAM for the
life of the process, which caps corpus size at available memory and
makes every cold start re-parse everything.  This package spills the
same preorder arrays into a single SQLite file (stdlib ``sqlite3``,
zero external dependencies -- the SDIF blueprint of one container
holding heterogeneous data plus structural metadata):

* :class:`DocumentStore` -- the container.  ``ingest_text`` feeds the
  streaming parser events (:func:`repro.xmlmodel.parser.iter_document_events`)
  straight into the ``elements`` / ``labels`` tables without ever
  materializing the tree; memory during ingest is O(one document).
* :class:`StoredDocument` -- a :class:`~repro.xmlmodel.element.Document`
  handle over one stored document.  Holds no tree; ``.root`` hydrates
  on demand (enumeration fallback and validation only).
* :class:`StoredDocumentIndex` -- satisfies the engine's index
  protocol (``labelled``, ``labelled_set``, plus the narrow accessors
  ``name_at`` / ``pcdata_at`` / ``element_at`` / ``copy_at``): PCDATA
  probes read through a bounded page/LRU layer, so query memory is
  O(working set), not O(corpus); picks are built from one key-range
  read each.
* :class:`StorePolicy` -- the page size and resident-page budget.

Freshness extends the in-process mutation clock with an **on-disk
generation counter**: every ingest/removal bumps it, cross-connection
changes are detected via ``PRAGMA data_version``, and
``document_index`` revalidates a stored index against it -- so indexes
survive process restarts (``repro serve --store`` warm starts skip the
parse entirely).

See docs/PERSISTENCE.md.
"""

from .document import StoredDocument, StoredDocumentIndex
from .store import DocumentStore, StorePolicy

__all__ = [
    "DocumentStore",
    "StorePolicy",
    "StoredDocument",
    "StoredDocumentIndex",
]
