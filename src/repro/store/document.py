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
bulk of a corpus) stays on disk.  PCDATA probes read it through the
store's bounded page/LRU cache.  Trees materialize only for the final
picks (:meth:`StoredDocumentIndex.copy_at`, subtree-sized, built
straight into the answer with fresh IDs) or for ``.root``
(document-sized: the enumeration fallback, validation, serialization;
counted as a ``hydration`` in the store's cache stats).  Both read
their preorder range with one primary-key range query, outside the
page cache: a subtree is read once, so caching its rows would only
evict the pages that probes reuse.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from ..errors import StoreStaleError
from ..xmlmodel.element import Document, Element, fresh_id

if TYPE_CHECKING:
    from .store import DocumentStore


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
    from the ``structure`` table at build time) and the payload read
    lazily: PCDATA probes through the store's page cache, subtrees by
    one key-range read each.  ``generation``
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
        "parent",
        "end",
        "depth",
        "names",
        "children",
        "_labels",
        "_label_sets",
        "_page_size",
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
        self.parent, self.end, self.depth, self.names = store.structure(
            doc_id
        )
        self.children = _Children(self.end)
        self._labels = store.labels_for(doc_id)
        self._label_sets: dict[str, frozenset] = {}
        self._page_size = store.policy.page_size

    def __len__(self) -> int:
        return self.n

    # -- narrow accessors ------------------------------------------------

    def name_at(self, pos: int) -> str:
        return self.names[pos]

    def pcdata_at(self, pos: int) -> str | None:
        """The PCDATA at ``pos``, read through the store's page cache
        (every probe counts there as a page hit or miss)."""
        if not 0 <= pos < self.n:
            raise IndexError(pos)
        page_no, offset = divmod(pos, self._page_size)
        texts = self.store.page_rows(self.doc_id, page_no)
        if offset >= len(texts):
            raise StoreStaleError(
                f"element {pos} of document {self.doc_id} is gone from "
                f"{self.store.path!r} (removed by another handle?)"
            )
        return texts[offset]

    def element_at(self, pos: int) -> Element:
        """The subtree rooted at ``pos``, with its stored element IDs."""
        return self._subtree(pos, fresh_ids=False)

    def copy_at(self, pos: int) -> Element:
        """The subtree rooted at ``pos`` as an answer copy: fresh IDs
        in document order, as ``deep_copy(fresh_ids=True)`` assigns
        them."""
        return self._subtree(pos, fresh_ids=True)

    def _subtree(self, pos: int, fresh_ids: bool) -> Element:
        """Build the subtree at ``pos`` from one key-range read.

        A subtree is the contiguous preorder range ``[pos, end[pos])``.
        Preorder rows arrive parent-first, so each element appends
        itself to its already-built parent.
        """
        stop = self.end[pos]
        rows = self.store.range_rows(self.doc_id, pos, stop)
        if len(rows) != stop - pos:
            raise StoreStaleError(
                f"elements {pos}..{stop - 1} of document {self.doc_id} "
                f"are gone from {self.store.path!r} (removed by another "
                "handle?)"
            )
        names = self.names
        parent = self.parent
        built: list[Element] = []
        for offset, (text, elem_id, attrs) in enumerate(rows):
            at = pos + offset
            element = Element(
                names[at],
                [] if text is None else text,
                fresh_id() if fresh_ids else elem_id,
                json.loads(attrs) if attrs else {},
            )
            if offset:
                siblings = built[parent[at] - pos].content
                siblings.append(element)  # type: ignore[union-attr]
            built.append(element)
        return built[0]

    def fresh_at(self, stamp: int) -> bool:
        """Stored rows never mutate in place; freshness is the counter."""
        return self.generation == self.store.generation()

    # -- label lists -----------------------------------------------------

    def labelled(self, name: str) -> list[int]:
        return self._labels.get(name, [])

    def labelled_set(self, name: str) -> frozenset:
        cached = self._label_sets.get(name)
        if cached is None:
            cached = frozenset(self._labels.get(name, ()))
            self._label_sets[name] = cached
        return cached


class StoredDocument(Document):
    """A document handle whose tree lives in the store.

    Satisfies the :class:`~repro.xmlmodel.element.Document` surface --
    ``root_type``, ``size()``, ``iter()`` -- without holding a tree.
    ``document_index`` dispatches to :meth:`stored_index` (duck-typed),
    so the compiled engine runs on the stored arrays; anything that
    touches ``.root`` (the enumeration fallback, DTD validation,
    serialization) hydrates the full tree, with its stored IDs, *per
    access* from one range read and is counted in the store's
    ``hydrations`` stat -- correctness fallback, not the fast path.
    Stored documents are immutable: edit by re-ingesting, which bumps
    the generation counter and invalidates live indexes.
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

        Hydrates on every access, outside the page cache -- holding
        the result is the caller's choice, the handle itself stays
        tree-free.
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
