"""Document-side index for the compiled query engine.

A :class:`DocumentIndex` is a one-pass, preorder flattening of a
document into parallel arrays: element order, parent pointers, depths,
descendant intervals, per-label position lists, and child-position
lists.  It turns the two expensive primitives of tree matching into
array operations:

* *label lookup* -- "all elements named ``n`` in document order" is a
  precomputed list instead of a full traversal, and
* *recursive steps* -- "descendants of ``e`` named ``n``" is a binary
  search over that list against ``e``'s descendant interval
  ``[pos, end)`` instead of a re-descent.

The build is iterative (explicit stack), so documents nested
arbitrarily deep -- the Example 3.5 recursive-chain shape -- index
without ``RecursionError``.

Indexes are cached per document object (weakly, so dropping a document
drops its index) and the cache registers with the
:mod:`repro.obs.registry`: ``clear_caches()`` empties it and
``kernel_stats()`` reports its hit/miss/size counters.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from operator import attrgetter

from ..obs import registry
from .element import Document, Element, mutation_stamp

_VERSION_OF = attrgetter("mutation_version")


class DocumentIndex:
    """Preorder arrays over one document.

    ``order[i]`` is the ``i``-th element in document order;
    ``parent[i]`` its parent's position (``-1`` for the root);
    ``end[i]`` the exclusive end of its descendant interval (the
    subtree of ``order[i]`` is exactly ``order[i:end[i]]``);
    ``depth[i]`` its depth (root ``0``); ``children[i]`` the positions
    of its child elements in order; and ``by_label[name]`` the
    document-order positions of all elements named ``name``.

    The index reflects the document at build time; documents served by
    a :class:`~repro.mediator.source.Source` are immutable in practice,
    which is what makes caching sound.
    """

    __slots__ = (
        "order",
        "parent",
        "end",
        "depth",
        "children",
        "by_label",
        "_label_sets",
        "stamp",
    )

    def __init__(self, document: Document) -> None:
        self.stamp = mutation_stamp()
        order: list[Element] = []
        parent: list[int] = []
        depth: list[int] = []
        children: list[list[int]] = []
        by_label: dict[str, list[int]] = {}
        stack: list[tuple[Element, int, int]] = [(document.root, -1, 0)]
        while stack:
            element, parent_pos, level = stack.pop()
            pos = len(order)
            order.append(element)
            parent.append(parent_pos)
            depth.append(level)
            children.append([])
            by_label.setdefault(element.name, []).append(pos)
            if parent_pos >= 0:
                children[parent_pos].append(pos)
            kids = element.children
            for child in reversed(kids):
                stack.append((child, pos, level + 1))
        end = [0] * len(order)
        for pos in range(len(order) - 1, -1, -1):
            kids = children[pos]
            end[pos] = end[kids[-1]] if kids else pos + 1
        self.order = order
        self.parent = parent
        self.end = end
        self.depth = depth
        self.children = children
        self.by_label = by_label
        self._label_sets: dict[str, frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.order)

    # -- narrow accessors (the index protocol) --------------------------
    #
    # The engine's hot paths go through these instead of dereferencing
    # ``order[pos]`` directly, so an index that does NOT hold Element
    # objects at all -- repro.store's StoredDocumentIndex hydrates rows
    # lazily from SQLite -- can satisfy the same protocol.

    def name_at(self, pos: int) -> str:
        """The element name at a preorder position."""
        return self.order[pos].name

    def pcdata_at(self, pos: int) -> str | None:
        """The PCDATA string at a position, or None for element content."""
        content = self.order[pos].content
        return content if isinstance(content, str) else None

    def element_at(self, pos: int) -> Element:
        """The :class:`Element` at a position (here: the indexed object)."""
        return self.order[pos]

    def fresh_at(self, stamp: int) -> bool:
        """Whether no indexed element mutated after ``stamp``."""
        return max(map(_VERSION_OF, self.order)) <= stamp

    def labelled(self, name: str) -> list[int]:
        """Positions of all elements named ``name``, document order."""
        return self.by_label.get(name, [])

    def labelled_set(self, name: str) -> frozenset[int]:
        """``labelled`` as a frozenset, built lazily and kept.

        The engine's satisfaction sets for leaf conditions are exactly
        these; sharing them across runs (the index is cached per
        document) turns a per-evaluation set build into a dict probe.
        Unlocked on purpose: a racing rebuild produces an identical
        frozenset and the dict store is atomic — last writer wins.
        """
        cached = self._label_sets.get(name)
        if cached is None:
            cached = frozenset(self.by_label.get(name, ()))
            self._label_sets[name] = cached
        return cached

    def labelled_within(self, name: str, pos: int) -> list[int]:
        """Positions named ``name`` inside the subtree of ``pos``.

        This is the interval scan that replaces a recursive re-descent:
        two binary searches over the label's position list against the
        descendant interval ``[pos, end[pos])``.
        """
        positions = self.by_label.get(name, [])
        lo = bisect_left(positions, pos)
        hi = bisect_left(positions, self.end[pos], lo)
        return positions[lo:hi]

    def is_ancestor_or_self(self, ancestor: int, descendant: int) -> bool:
        """Interval containment test on preorder positions."""
        return ancestor <= descendant < self.end[ancestor]


_INDEX_CACHE: "weakref.WeakKeyDictionary[Document, DocumentIndex]" = (
    weakref.WeakKeyDictionary()
)
# Parallel fan-out legs and concurrent server requests index documents
# from worker threads; the lock keeps the stamp-validation/re-arm
# sequence atomic, the counters exact, and the WeakKeyDictionary safe
# (its internals are not guaranteed atomic under mutation + GC).
_INDEX_LOCK = threading.RLock()
_index_hits = 0
_index_misses = 0
_index_invalidations = 0
_index_content_rearms = 0


def _clear_index_cache() -> None:
    global _index_hits, _index_misses, _index_invalidations
    global _index_content_rearms
    with _INDEX_LOCK:
        _INDEX_CACHE.clear()
        _index_hits = 0
        _index_misses = 0
        _index_invalidations = 0
        _index_content_rearms = 0


registry.register_cache(
    "engine.doc_index",
    _clear_index_cache,
    lambda: {
        "hits": _index_hits,
        "misses": _index_misses,
        "invalidations": _index_invalidations,
        "content_rearms": _index_content_rearms,
        "size": len(_INDEX_CACHE),
    },
)


def _index_is_fresh(document: Document, index: DocumentIndex) -> bool:
    """Whether a cached index still reflects its document.

    An index built at mutation stamp ``s`` is stale iff the document
    (``replace_root``) or any element *it indexed* mutated after ``s``.
    Elements added after the build necessarily hang off a mutated
    indexed parent (or a replaced root), so scanning ``index.order``
    plus the document stamp is complete.
    """
    if document.mutation_version > index.stamp:
        return False
    return index.fresh_at(index.stamp)


def _structure_intact(index: DocumentIndex, mutated: list[int]) -> bool:
    """Whether the mutated elements kept their indexed child lists.

    Every structural edit (``append_child`` / ``insert_child`` /
    ``remove_child`` / ``set_content``) stamps the parent whose child
    list changed, and element names are immutable -- so if each
    mutated element's current children are identity-equal to the
    positions the index recorded, only *content* changed
    (``set_text`` / ``set_attribute``) and every structural array and
    label list is still exact.  Content is read live from the elements
    by all index consumers, so such an index can be re-armed in place
    instead of rebuilt.
    """
    order = index.order
    children = index.children
    for pos in mutated:
        kids = order[pos].content
        kid_positions = children[pos]
        if isinstance(kids, str):
            if kid_positions:
                return False
            continue
        if len(kids) != len(kid_positions):
            return False
        for child, child_pos in zip(kids, kid_positions):
            if order[child_pos] is not child:
                return False
    return True


def document_index(document: Document) -> DocumentIndex:
    """The (cached, mutation-validated) index of a document.

    Keyed weakly on the document object: re-indexing the same held
    document is a dict probe, and dropped documents free their index.
    A hit is validated against the global mutation clock -- O(1) when
    nothing in the process mutated since the build (the overwhelmingly
    common case); one scan re-arms that fast path after unrelated
    mutations.  An edit of this document invalidates and rebuilds
    (counted as ``invalidations``) unless it was content-only
    (``set_text`` / ``set_attribute``), in which case the structural
    arrays are still exact and the index re-arms in place (counted as
    ``content_rearms``).
    """
    global _index_hits, _index_misses, _index_invalidations
    global _index_content_rearms
    # Store-backed documents carry their own index (validated against
    # the store's on-disk generation counter, not the in-process
    # mutation clock); dispatch via duck typing so repro.xmlmodel never
    # imports repro.store.
    stored = getattr(document, "stored_index", None)
    if stored is not None:
        return stored()
    with _INDEX_LOCK:
        index = _INDEX_CACHE.get(document)
        if index is not None:
            stamp = mutation_stamp()
            if stamp == index.stamp:
                _index_hits += 1
                return index
            if _index_is_fresh(document, index):
                # Mutations elsewhere in the process; this document is
                # untouched.  Re-arm the O(1) fast path at today's stamp.
                index.stamp = stamp
                _index_hits += 1
                return index
            if document.mutation_version <= index.stamp:
                built = index.stamp
                mutated = [
                    pos
                    for pos, el in enumerate(index.order)
                    if el.mutation_version > built
                ]
                if _structure_intact(index, mutated):
                    index.stamp = stamp
                    _index_content_rearms += 1
                    return index
            _index_invalidations += 1
        else:
            _index_misses += 1
        index = DocumentIndex(document)
        _INDEX_CACHE[document] = index
        return index
