"""Store-backed documents and their engine-protocol index.

A :class:`StoredDocument` is a :class:`~repro.xmlmodel.element.Document`
whose tree lives in a :class:`~repro.store.store.DocumentStore` rather
than in memory; a :class:`StoredDocumentIndex` answers the compiled
engine's index protocol straight from the stored preorder arrays.

The split follows the index/payload line: the **structural skeleton**
(parent / end / depth positions and the name column, ~tens of bytes
per element) loads once per live index as packed arrays, so candidate
generation and structural joins run at plain-list speed; the
**payload** (PCDATA text, element IDs, Appendix A attributes -- the
bulk of a corpus) stays on disk and hydrates through the store's
bounded page/LRU cache.  Trees materialize only for the final picks
(:meth:`StoredDocumentIndex.element_at`, subtree-sized) or the
engine's enumeration fallback (``.root``, document-sized, counted as a
``hydration`` in the store's cache stats).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from ..errors import StoreStaleError
from ..xmlmodel.element import Document, Element, mutation_stamp

if TYPE_CHECKING:
    from .store import DocumentStore

# payload row tuple layout produced by DocumentStore.page_rows
_TEXT, _ELEM_ID, _ATTRS = range(3)


class _Children:
    """``index.children[pos]`` computed from the ``end`` intervals.

    The child positions of ``pos`` are exactly the chain ``pos + 1``,
    ``end[pos + 1]``, ... up to ``end[pos]``, so no child lists are
    stored or kept resident: each probe is an O(#children) walk over
    the resident ``end`` array.
    """

    __slots__ = ("_end",)

    def __init__(self, end: tuple) -> None:
        self._end = end

    def __getitem__(self, pos: int) -> list[int]:
        end = self._end
        stop = end[pos]
        kids: list[int] = []
        child = pos + 1
        while child < stop:
            kids.append(child)
            child = end[child]
        return kids

    def __len__(self) -> int:
        return len(self._end)

    def __iter__(self):
        return (self[pos] for pos in range(len(self._end)))


class StoredDocumentIndex:
    """The engine's index protocol over one stored document.

    Mirrors :class:`~repro.xmlmodel.index.DocumentIndex` -- ``parent``
    / ``end`` / ``depth`` / ``children`` positional arrays, label
    lists, interval scans -- with the skeleton resident (loaded packed
    from the ``structure`` table at build time) and the payload
    hydrated lazily through the store's page cache.  ``generation``
    records the store's on-disk counter at build time; :meth:`fresh_at`
    compares it against the live counter, which is what lets
    ``document_index`` trust an index across process restarts and
    reject one after a concurrent ingest/removal.
    """

    __slots__ = (
        "store",
        "doc_id",
        "n",
        "root_name",
        "generation",
        "stamp",
        "parent",
        "end",
        "depth",
        "names",
        "children",
        "_labels",
        "_label_sets",
        "_page_size",
        "_page_memo",
    )

    def __init__(
        self,
        store: "DocumentStore",
        doc_id: int,
        n: int,
        root_name: str,
        generation: int,
    ) -> None:
        self.store = store
        self.doc_id = doc_id
        self.n = n
        self.root_name = root_name
        self.generation = generation
        self.stamp = mutation_stamp()
        self.parent, self.end, self.depth, self.names = store.structure(
            doc_id
        )
        self.children = _Children(self.end)
        self._labels = store.labels_for(doc_id)
        self._label_sets: dict[str, frozenset] = {}
        self._page_size = store.policy.page_size
        # (page_no, rows) of the payload page touched last: PCDATA
        # probes are overwhelmingly sequential, so this one-tuple memo
        # answers most row reads without taking the shared LRU's lock.
        # One extra resident page per live index; replaced atomically,
        # so racing readers at worst re-fetch.
        self._page_memo: tuple[int, list] | None = None

    def __len__(self) -> int:
        return self.n

    def _row(self, pos: int) -> tuple:
        if not 0 <= pos < self.n:
            raise IndexError(pos)
        page_no, offset = divmod(pos, self._page_size)
        memo = self._page_memo
        if memo is not None and memo[0] == page_no:
            rows = memo[1]
        else:
            rows = self.store.page_rows(self.doc_id, page_no)
            self._page_memo = (page_no, rows)
        if offset >= len(rows):
            raise StoreStaleError(
                f"element {pos} of document {self.doc_id} is gone from "
                f"{self.store.path!r} (removed by another handle?)"
            )
        return rows[offset]

    # -- narrow accessors ------------------------------------------------

    def name_at(self, pos: int) -> str:
        return self.names[pos]

    def pcdata_at(self, pos: int) -> str | None:
        return self._row(pos)[_TEXT]

    def element_at(self, pos: int) -> Element:
        """Hydrate the subtree rooted at ``pos`` (children-first).

        The only place the projection path builds Elements: the picks
        themselves.
        """
        stop = self.end[pos]
        rows = self._rows_range(pos, stop)
        names = self.names
        children = self.children
        copies: list[Element | None] = [None] * (stop - pos)
        for offset in range(stop - pos - 1, -1, -1):
            row = rows[offset]
            text = row[_TEXT]
            content: list[Element] | str
            if text is not None:
                content = text
            else:
                content = [
                    copies[child - pos]  # type: ignore[misc]
                    for child in children[pos + offset]
                ]
            element = Element(
                names[pos + offset],
                content,
                row[_ELEM_ID],
                dict(row[_ATTRS]) if row[_ATTRS] else {},
            )
            copies[offset] = element
        assert copies[0] is not None
        return copies[0]

    def _rows_range(self, start: int, stop: int) -> list[tuple]:
        page_size = self._page_size
        rows: list[tuple] = []
        pos = start
        while pos < stop:
            page_no, offset = divmod(pos, page_size)
            page = self.store.page_rows(self.doc_id, page_no)
            chunk = page[offset : offset + (stop - pos)]
            if not chunk:
                raise StoreStaleError(
                    f"element {pos} of document {self.doc_id} is gone "
                    f"from {self.store.path!r}"
                )
            rows.extend(chunk)
            pos += len(chunk)
        return rows

    def fresh_at(self, stamp: int) -> bool:
        """Stored rows never mutate in place; freshness is the counter."""
        return self.generation == self.store.generation()

    # -- label lists and intervals ----------------------------------------

    def labelled(self, name: str) -> list[int]:
        return self._labels.get(name, [])

    def labelled_set(self, name: str) -> frozenset:
        cached = self._label_sets.get(name)
        if cached is None:
            cached = frozenset(self._labels.get(name, ()))
            self._label_sets[name] = cached
        return cached

    def labelled_within(self, name: str, pos: int) -> list[int]:
        positions = self.labelled(name)
        lo = bisect_left(positions, pos)
        hi = bisect_left(positions, self.end[pos], lo)
        return positions[lo:hi]

    def is_ancestor_or_self(self, ancestor: int, descendant: int) -> bool:
        return ancestor <= descendant < self.end[ancestor]


class StoredDocument(Document):
    """A document handle whose tree lives in the store.

    Satisfies the :class:`~repro.xmlmodel.element.Document` surface --
    ``root_type``, ``size()``, ``iter()`` -- without holding a tree.
    ``document_index`` dispatches to :meth:`stored_index` (duck-typed),
    so the compiled engine runs on the stored arrays; anything that
    touches ``.root`` (the enumeration fallback, DTD validation,
    serialization) hydrates the full tree *per access* and is counted
    in the store's ``hydrations`` stat -- correctness fallback, not the
    fast path.  Stored documents are immutable: edit by re-ingesting,
    which bumps the generation counter and invalidates live indexes.
    """

    def __init__(
        self,
        store: "DocumentStore",
        doc_id: int,
        root_name: str,
        n_elements: int,
        source: str | None = None,
    ) -> None:
        # No super().__init__: the dataclass initializer assigns
        # ``self.root``, which is a read-only property here.
        self.mutation_version = 0
        self.store = store
        self.doc_id = doc_id
        self.source = source
        self._root_name = root_name
        self._n = n_elements
        self._index: StoredDocumentIndex | None = None

    def stored_index(self) -> StoredDocumentIndex:
        """The (generation-validated) index; ``document_index``'s target.

        Rebuilding loads the packed structural skeleton -- no payload
        rows, no parse -- so a cold process reopening a warm store is
        serving queries after one blob read per document.  A racing
        rebuild after a generation bump is benign: both threads build
        equivalent indexes and the last assignment wins.
        """
        index = self._index
        generation = self.store.generation()
        if index is not None and index.generation == generation:
            return index
        if not self.store.has_document(self.doc_id):
            raise StoreStaleError(
                f"document {self.doc_id} was removed from "
                f"{self.store.path!r}"
            )
        index = StoredDocumentIndex(
            self.store, self.doc_id, self._n, self._root_name, generation
        )
        self._index = index
        return index

    # -- Document surface -------------------------------------------------

    @property
    def root(self) -> Element:  # type: ignore[override]
        """The fully hydrated tree (fallback path; see class docstring).

        Hydrates on every access -- holding the result is the
        caller's choice, the handle itself stays tree-free.
        """
        self.store.hydrations += 1
        return self.stored_index().element_at(0)

    @property
    def root_type(self) -> str:
        return self._root_name

    def size(self) -> int:
        return self._n

    def iter(self):
        return self.root.iter()

    def replace_root(self, root: Element) -> None:
        from ..errors import StoreError

        raise StoreError(
            "stored documents are immutable; re-ingest to change "
            f"document {self.doc_id} of {self.store.path!r}"
        )

    def __repr__(self) -> str:
        return (
            f"StoredDocument(doc_id={self.doc_id}, "
            f"root={self._root_name!r}, n={self._n}, "
            f"store={self.store.path!r})"
        )
