"""The SQLite container behind :mod:`repro.store`.

One file holds any number of documents as preorder arrays:

``meta``
    ``key``/``value`` rows: ``format`` (schema version), ``generation``
    (the on-disk mutation counter), optionally ``dtd`` / ``dtd_root``
    (a DTD stored alongside the corpus by ``repro ingest --dtd``).
``documents``
    One row per document: ``doc_id`` (rowid), the ``source`` tag it
    was ingested under, ``root_name``, ``n_elements``, and the
    generation that wrote it.
``structure``
    One row per document: the structural skeleton as packed
    ``array('q')`` blobs -- ``parent`` / ``end`` / ``depth`` mirror
    :class:`~repro.xmlmodel.index.DocumentIndex`'s arrays -- plus the
    ``names`` column (NUL-joined).  A
    :class:`~repro.store.document.StoredDocumentIndex` loads this row
    once at build time, so candidate generation and structural joins
    run on plain resident sequences (~tens of bytes per element).
``elements``
    One **payload** row per element, keyed ``(doc_id, pos)`` WITHOUT
    ROWID so the preorder position *is* the clustered key: ``text`` is
    the PCDATA string (NULL for element content), ``elem_id`` /
    ``attrs`` carry identity and Appendix A attributes.  This is the
    bulk of a corpus, and it stays on disk until asked for.
``labels``
    Per ``(doc_id, name)``: the document-order positions of every
    element with that name, packed the same way -- the label lists the
    engine's leaf lookups and interval scans run on.  Loaded with the
    skeleton (they are positions, skeleton-sized).

Payload is read two ways.  A subtree -- an answer's pick, or a whole
document for ``.root`` -- is one contiguous preorder range, read with
one ``(doc_id, pos)`` primary-key range query
(:meth:`DocumentStore.range_rows`) outside any cache, since its rows
are built into elements once.
PCDATA probes go through a **page cache**: rows are fetched
``policy.page_size`` at a time and at most ``policy.max_pages`` pages
stay resident (LRU), so the payload memory of a query sweep is bounded
by ``page_size * max_pages`` rows regardless of corpus size.  The
cache registers with the :mod:`repro.obs.registry`
(``store.pages``): ``clear_caches()`` drops it and ``kernel_stats()``
reports hits/misses/evictions.

All connection access is serialized behind one lock
(``check_same_thread=False``): ``repro serve`` handler threads share a
store the same way they share the in-memory caches.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import weakref
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import StoreError, StoreFormatError, StoreStaleError
from ..obs import registry
from ..xmlmodel.element import fresh_id
from ..xmlmodel.parser import XmlEvent, iter_document_events
from .document import StoredDocument

if TYPE_CHECKING:
    from ..xmlmodel import Document

_FORMAT_VERSION = 1

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE documents (
    doc_id     INTEGER PRIMARY KEY,
    source     TEXT,
    root_name  TEXT NOT NULL,
    n_elements INTEGER NOT NULL,
    generation INTEGER NOT NULL
);
CREATE TABLE structure (
    doc_id INTEGER PRIMARY KEY,
    parent BLOB NOT NULL,
    end    BLOB NOT NULL,
    depth  BLOB NOT NULL,
    names  TEXT NOT NULL
);
CREATE TABLE elements (
    doc_id   INTEGER NOT NULL,
    pos      INTEGER NOT NULL,
    text     TEXT,
    elem_id  TEXT NOT NULL,
    attrs    TEXT,
    PRIMARY KEY (doc_id, pos)
) WITHOUT ROWID;
CREATE TABLE labels (
    doc_id    INTEGER NOT NULL,
    name      TEXT NOT NULL,
    positions BLOB NOT NULL,
    PRIMARY KEY (doc_id, name)
) WITHOUT ROWID;
"""

#: rows inserted per executemany batch during ingest
_INSERT_CHUNK = 4096


def _pack(positions: Iterable[int]) -> bytes:
    return array("q", positions).tobytes()


def _unpack(blob: bytes | None) -> tuple[int, ...]:
    if not blob:
        return ()
    values = array("q")
    values.frombytes(blob)
    return tuple(values)


@dataclass(frozen=True)
class StorePolicy:
    """Residency budget for a store's payload page cache.

    ``page_size * max_pages`` bounds the number of payload element
    rows held in memory at once (the benchmark's memory gate measures
    exactly this).  The defaults keep a store's payload under a few MB
    resident while serving pointed queries from cache; the structural
    skeleton of each *live index* (packed positions and names, ~tens
    of bytes per element) is resident by design.
    """

    page_size: int = 256
    max_pages: int = 64

    def __post_init__(self) -> None:
        if self.page_size < 1 or self.max_pages < 1:
            raise ValueError("page_size and max_pages must be positive")


class _Lru:
    """A lock-guarded LRU mapping with hit/miss/eviction counters."""

    __slots__ = ("capacity", "data", "lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.data: OrderedDict = OrderedDict()
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        with self.lock:
            value = self.data.get(key)
            if value is None:
                self.misses += 1
                return None
            self.data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self.lock:
            self.data[key] = value
            self.data.move_to_end(key)
            while len(self.data) > self.capacity:
                self.data.popitem(last=False)
                self.evictions += 1

    def drop_doc(self, doc_id: int) -> None:
        with self.lock:
            for key in [k for k in self.data if k[0] == doc_id]:
                del self.data[key]

    def clear(self) -> None:
        with self.lock:
            self.data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


class DocumentStore:
    """A persistent corpus of documents in one SQLite file.

    ``path`` may be a filesystem path or ``":memory:"`` (tests).  The
    file is created and initialized on first open; reopening an
    existing store validates its format version (``STO002``).  Use as
    a context manager or call :meth:`close`.
    """

    def __init__(self, path, policy: StorePolicy | None = None) -> None:
        self.path = str(path)
        self.policy = policy or StorePolicy()
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            self.path, check_same_thread=False
        )
        self._pages = _Lru(self.policy.max_pages)
        self.hydrations = 0  # full-tree materializations (fallback path)
        try:
            self._initialize()
        except sqlite3.DatabaseError as error:
            self._conn.close()
            self._conn = None
            raise StoreFormatError(
                f"{self.path!r} is not a document store: {error}"
            ) from error
        _LIVE_STORES.add(self)

    # -- lifecycle ------------------------------------------------------

    def _initialize(self) -> None:
        conn = self._conn
        assert conn is not None
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "meta" not in tables:
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('format', ?)",
                (str(_FORMAT_VERSION),),
            )
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('generation', '0')"
            )
            conn.commit()
        else:
            fmt = self._meta_value("format")
            if fmt is None or int(fmt) != _FORMAT_VERSION:
                raise StoreFormatError(
                    f"{self.path!r} has store format {fmt!r}; this build "
                    f"reads format {_FORMAT_VERSION}"
                )
        self._data_version = self._pragma_data_version()
        self._generation = int(self._meta_value("generation") or 0)

    def close(self) -> None:
        """Close the connection; further operations raise ``STO001``."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "DocumentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> sqlite3.Connection:
        conn = self._conn
        if conn is None:
            raise StoreError(f"document store {self.path!r} is closed")
        return conn

    # -- meta / generation ---------------------------------------------

    def _meta_value(self, key: str) -> str | None:
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _pragma_data_version(self) -> int:
        return self._connection().execute("PRAGMA data_version").fetchone()[0]

    def generation(self) -> int:
        """The on-disk mutation counter (bumped by ingest/removal).

        Cheap by design: revalidated against ``PRAGMA data_version``,
        which SQLite bumps when *another connection* commits -- so the
        common no-writer probe is one pragma, not a table read.  This
        is the stored analogue of the in-process mutation clock:
        ``document_index`` compares a stored index's build generation
        against it.
        """
        with self._lock:
            data_version = self._pragma_data_version()
            if data_version != self._data_version:
                self._data_version = data_version
                self._generation = int(self._meta_value("generation") or 0)
            return self._generation

    def _write_generation(self, value: int) -> None:
        # Caller holds the lock and the surrounding transaction; the
        # cached ``self._generation`` is only advanced after commit so
        # a rolled-back ingest leaves the counter consistent.
        self._connection().execute(
            "UPDATE meta SET value = ? WHERE key = 'generation'",
            (str(value),),
        )

    def set_dtd_text(self, text: str, root: str | None = None) -> None:
        """Store a DTD (and optional root type) alongside the corpus."""
        with self._lock:
            conn = self._connection()
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('dtd', ?) "
                "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                (text,),
            )
            if root is not None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('dtd_root', ?) "
                    "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                    (root,),
                )
            conn.commit()
            self._data_version = self._pragma_data_version()

    def dtd_text(self) -> str | None:
        """The DTD stored by :meth:`set_dtd_text`, if any."""
        with self._lock:
            return self._meta_value("dtd")

    def dtd_root(self) -> str | None:
        with self._lock:
            return self._meta_value("dtd_root")

    # -- ingest ---------------------------------------------------------

    def ingest_text(self, text: str, source: str | None = None) -> StoredDocument:
        """Stream-parse an XML string straight into the store.

        The tree is never materialized: parser events fill per-element
        rows and per-label position lists, holding O(one document) --
        not O(corpus) -- in memory, then one transaction writes rows,
        labels, the document row, and the generation bump.
        """
        return self._ingest_events(iter_document_events(text), source)

    def ingest_file(self, path, source: str | None = None) -> StoredDocument:
        """:meth:`ingest_text` over a file's contents."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.ingest_text(handle.read(), source)

    def ingest_document(
        self, document: "Document", source: str | None = None
    ) -> StoredDocument:
        """Ingest an already-built in-memory document."""
        return self._ingest_events(_document_events(document), source)

    def _ingest_events(
        self, events: Iterator[XmlEvent], source: str | None
    ) -> StoredDocument:
        rows: list[list] = []  # [text, elem_id, attrs] payload rows
        parents = array("q")
        ends = array("q")
        depths = array("q")
        names: list[str] = []
        labels: dict[str, array] = {}
        stack: list[int] = []
        for event in events:
            kind = event[0]
            if kind == "start":
                pos = len(rows)
                _, name, element_id, attributes = event
                rows.append(
                    [
                        None,
                        element_id or fresh_id(),
                        json.dumps(attributes) if attributes else None,
                    ]
                )
                parents.append(stack[-1] if stack else -1)
                ends.append(-1)
                depths.append(len(stack))
                names.append(name)
                labels.setdefault(name, array("q")).append(pos)
                stack.append(pos)
            elif kind == "pcdata":
                rows[stack[-1]][0] = event[1]
            else:
                ends[stack.pop()] = len(rows)
        root_name = names[0]
        with self._lock:
            conn = self._connection()
            with conn:  # one transaction: all-or-nothing ingest
                cursor = conn.execute(
                    "INSERT INTO documents "
                    "(source, root_name, n_elements, generation) "
                    "VALUES (?, ?, ?, ?)",
                    (source, root_name, len(rows), self._generation + 1),
                )
                doc_id = cursor.lastrowid
                assert doc_id is not None
                conn.execute(
                    "INSERT INTO structure "
                    "(doc_id, parent, end, depth, names) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        doc_id,
                        parents.tobytes(),
                        ends.tobytes(),
                        depths.tobytes(),
                        "\x00".join(names),
                    ),
                )
                element_rows = (
                    (doc_id, pos, row[0], row[1], row[2])
                    for pos, row in enumerate(rows)
                )
                while True:
                    chunk = list(
                        row
                        for _, row in zip(range(_INSERT_CHUNK), element_rows)
                    )
                    if not chunk:
                        break
                    conn.executemany(
                        "INSERT INTO elements VALUES (?, ?, ?, ?, ?)",
                        chunk,
                    )
                conn.executemany(
                    "INSERT INTO labels (doc_id, name, positions) "
                    "VALUES (?, ?, ?)",
                    [
                        (doc_id, name, _pack(positions))
                        for name, positions in labels.items()
                    ],
                )
                self._write_generation(self._generation + 1)
            self._generation += 1
            return StoredDocument(self, doc_id, root_name, len(rows), source)

    def remove_document(self, doc_id: int) -> None:
        """Drop one document (rows, labels, document row); bump generation.

        Live :class:`StoredDocument` handles for it fail their next
        index probe with ``STO003``.
        """
        with self._lock:
            conn = self._connection()
            with conn:
                gone = conn.execute(
                    "DELETE FROM documents WHERE doc_id = ?", (doc_id,)
                ).rowcount
                if not gone:
                    raise StoreError(
                        f"no document {doc_id} in store {self.path!r}"
                    )
                conn.execute(
                    "DELETE FROM structure WHERE doc_id = ?", (doc_id,)
                )
                conn.execute(
                    "DELETE FROM elements WHERE doc_id = ?", (doc_id,)
                )
                conn.execute("DELETE FROM labels WHERE doc_id = ?", (doc_id,))
                self._write_generation(self._generation + 1)
            self._generation += 1
            self._pages.drop_doc(doc_id)

    # -- handles ---------------------------------------------------------

    def documents(self, source: str | None = None) -> list[StoredDocument]:
        """Handles for every stored document (optionally one ``source``).

        Handles hold no tree data -- loading a million-document corpus
        is a million tiny rows, not a million parses.
        """
        query = (
            "SELECT doc_id, root_name, n_elements, source FROM documents"
        )
        args: tuple = ()
        if source is not None:
            query += " WHERE source = ?"
            args = (source,)
        with self._lock:
            rows = self._connection().execute(
                query + " ORDER BY doc_id", args
            ).fetchall()
        return [
            StoredDocument(self, doc_id, root_name, n_elements, src)
            for doc_id, root_name, n_elements, src in rows
        ]

    def document(self, doc_id: int) -> StoredDocument:
        """The handle for one document id (``STO001`` when absent)."""
        with self._lock:
            row = self._connection().execute(
                "SELECT doc_id, root_name, n_elements, source "
                "FROM documents WHERE doc_id = ?",
                (doc_id,),
            ).fetchone()
        if row is None:
            raise StoreError(f"no document {doc_id} in store {self.path!r}")
        return StoredDocument(self, row[0], row[1], row[2], row[3])

    def has_document(self, doc_id: int) -> bool:
        with self._lock:
            return (
                self._connection().execute(
                    "SELECT 1 FROM documents WHERE doc_id = ?", (doc_id,)
                ).fetchone()
                is not None
            )

    def n_documents(self) -> int:
        with self._lock:
            return self._connection().execute(
                "SELECT COUNT(*) FROM documents"
            ).fetchone()[0]

    def n_elements(self) -> int:
        with self._lock:
            return self._connection().execute(
                "SELECT COALESCE(SUM(n_elements), 0) FROM documents"
            ).fetchone()[0]

    # -- row access (page cache) -----------------------------------------

    def structure(self, doc_id: int) -> tuple[tuple, tuple, tuple, list]:
        """The packed structural skeleton of one document, decoded.

        Returns ``(parent, end, depth, names)``; the int arrays come
        back as tuples, ``names`` as a list.  One blob read per index
        build -- this is what makes a cold reopen serve without
        re-parsing.  Not cached at the store layer: the index that
        asked holds the result for its lifetime.
        """
        with self._lock:
            row = self._connection().execute(
                "SELECT parent, end, depth, names FROM structure "
                "WHERE doc_id = ?",
                (doc_id,),
            ).fetchone()
        if row is None:
            raise StoreStaleError(
                f"document {doc_id} is gone from {self.path!r} "
                "(removed by another handle?)"
            )
        parent, end, depth, names = row
        return (
            _unpack(parent),
            _unpack(end),
            _unpack(depth),
            names.split("\x00"),
        )

    def labels_for(self, doc_id: int) -> dict[str, list[int]]:
        """Every label's position list for one document, decoded.

        Loaded alongside :meth:`structure` when an index builds --
        label lists are positions, so they belong to the resident
        skeleton, and serving candidate generation from a per-index
        dict keeps the query hot path off the store's lock.
        """
        with self._lock:
            rows = self._connection().execute(
                "SELECT name, positions FROM labels WHERE doc_id = ?",
                (doc_id,),
            ).fetchall()
        return {name: list(_unpack(blob)) for name, blob in rows}

    def page_rows(self, doc_id: int, page_no: int) -> list[str | None]:
        """The PCDATA column of one page's rows (cached, LRU-bounded).

        The PCDATA probes' read, so a page keeps only the text of each
        row (None for element content), in position order.
        """
        key = (doc_id, page_no)
        cached = self._pages.get(key)
        if cached is not None:
            return cached
        size = self.policy.page_size
        start = page_no * size
        rows = self.range_rows(doc_id, start, start + size)
        texts = [row[0] for row in rows]
        self._pages.put(key, texts)
        return texts

    def range_rows(self, doc_id: int, start: int, stop: int) -> list[tuple]:
        """The raw payload rows of positions ``[start, stop)``, uncached.

        One ``elements (doc_id, pos)`` primary-key range scan.  Rows are
        ``(text, elem_id, attrs)`` with ``attrs`` still the stored JSON
        text (or None): the caller builds each row into an element
        once, so decoding belongs there.  A short result means the rows
        are gone; the caller decides how to report it.
        """
        with self._lock:
            return self._connection().execute(
                "SELECT text, elem_id, attrs FROM elements "
                "WHERE doc_id = ? AND pos >= ? AND pos < ? ORDER BY pos",
                (doc_id, start, stop),
            ).fetchall()

    # -- cache registry ---------------------------------------------------

    def drop_caches(self) -> None:
        self._pages.clear()
        self.hydrations = 0

    def cache_info(self) -> dict:
        return {
            "page_hits": self._pages.hits,
            "page_misses": self._pages.misses,
            "page_evictions": self._pages.evictions,
            "resident_rows": sum(
                len(rows) for rows in self._pages.data.values()
            ),
            "hydrations": self.hydrations,
        }


def _document_events(document: "Document") -> Iterator[XmlEvent]:
    """Parser-shaped events for an in-memory tree (``ingest_document``).

    Iterative preorder walk with explicit close markers; IDs and
    attributes are preserved verbatim (``pcdata`` here includes the
    empty string, which the element model distinguishes from empty
    content).
    """
    from ..xmlmodel.element import Element

    stack: list = [document.root]
    while stack:
        node = stack.pop()
        if not isinstance(node, Element):
            yield ("end",)
            continue
        yield ("start", node.name, node.id, dict(node.attributes))
        if isinstance(node.content, str):
            yield ("pcdata", node.content)
            yield ("end",)
        else:
            stack.append(None)  # close marker
            stack.extend(reversed(node.content))


# ---------------------------------------------------------------------------
# stats registry: one entry aggregating every live store
# ---------------------------------------------------------------------------

_LIVE_STORES: "weakref.WeakSet[DocumentStore]" = weakref.WeakSet()


def _clear_store_caches() -> None:
    for store in list(_LIVE_STORES):
        store.drop_caches()


def _store_cache_info() -> dict:
    totals = {
        "stores": 0,
        "page_hits": 0,
        "page_misses": 0,
        "page_evictions": 0,
        "resident_rows": 0,
        "hydrations": 0,
    }
    for store in list(_LIVE_STORES):
        totals["stores"] += 1
        for key, value in store.cache_info().items():
            totals[key] += value
    return totals


registry.register_cache("store.pages", _clear_store_caches, _store_cache_info)
