"""Materialized-view answer cache with provenance-based maintenance.

The mediator of the paper is *on-demand*: every ``materialize_union``
call fans out to the sources and re-evaluates, even when nothing
changed.  Two earlier pieces make materialization sound:

* the inferred view DTD says what a valid answer looks like, and
* the mutation journal (:mod:`repro.xmlmodel.element`) records every
  document edit under a global stamp, so "nothing changed" is an O(1)
  question and "what changed?" costs O(edits since).

A mediator's :class:`MatViewCache` keeps the validated answers of that
mediator's own union views, keyed by view name: a name is registered
once and its definition never changes.  The cache is never shared: the
key does not name the federation, and an entry is checked against the
sources of the mediator that stored it, so a second mediator would be
served the first one's answer.  Ad-hoc ``query_view`` answers are not
cached.
Each entry carries the stamp at which it was last validated, and a
probe revalidates it with the same fast-path/re-arm discipline as
:func:`repro.xmlmodel.index.document_index`:

1. **O(1) fast path** -- the global clock has not moved since the
   entry's stamp: serve the answer.
2. **Re-arm** -- the clock moved, but no object edited since the
   stamp (the journal suffix) is in the served master or in a
   contributing document's index: re-stamp the entry and serve.
3. **Delta maintenance** -- exactly one contributing document was
   edited and the entry knows which slice of the answer that document
   produced (the answer's ``pick_counts``: how many picks each
   document contributed): re-run that source's union branch over
   that one document, splice the fresh picks into the materialized
   answer, re-validate the spliced answer against the inferred view
   DTD, re-stamp.
   Validation failure (``MED007``) falls back to a full recompute.
4. **Invalidate** -- anything else (several dirty documents, changed
   document lists, no pick counts, or a journal that no longer reaches
   back to the entry's stamp -- unknown, which recomputes and never
   scans): drop the entry and recompute.

Served answers are **shared snapshots**: a hit returns the cached
master document itself rather than a per-hit deep copy (the copy would
cost more than the recompute it saves on small answers, and dominates
the hit path on large ones).  This is sound under the model's own
mutation contract -- edits MUST go through the journaled ``Element``
APIs -- because each entry keeps the ids of its master's elements
(root and document included), so the next probe sees an edit to a
served answer in the journal: a poisoned master is invalidated, never
served.  Delta maintenance never edits a served master in place
either; it builds a *new* root sharing the untouched pick subtrees,
so answers held from earlier hits stay stable.

A snapshot also keeps its **cached bytes**, the answer in the form
the serve protocol sends: one serialized fragment per top-level pick
(as a JSON string body) and, assembled from them by the document
writer's own join, the whole answer as a JSON string literal.  Both
are built on the first :meth:`MatViewCache.answer_json` -- for a served
miss, right after it is stored -- and handed out only for the entry's
current master, under the same freshness test as
a hit (clock unmoved, or the master intact), so a caller edit, a
journal overflow, a delta, an eviction or a ``MED007`` fallback each
refuses them.  A delta splice swaps the fragments of the slice it
swaps, rendering only the fresh picks.

Entries are LRU-bounded by a byte budget (answer-size estimate plus
cached bytes) and the cache is thread-safe: one warm cache is shared
by ``ParallelTransport`` workers and ``MediatorServer`` handler
threads.  Counters fold into
``kernel_stats()`` (section ``"matview"``) and reset with
``clear_caches()`` through the :mod:`repro.obs.registry`.
Delta maintenance is mediator-local: it re-evaluates over the
mediator's own reference to the dirty document, never through the
source transport -- no retries, no latency, deterministic under
``FakeClock``.

See docs/PERFORMANCE.md (caching section).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..errors import STALE_DELTA_FALLBACK
from ..obs import registry
from ..xmas import Query, evaluate_many
from ..xmlmodel import Document, serialize_element
from ..xmlmodel.element import mutation_stamp, touched_since
from ..xmlmodel.index import DocumentIndex, document_index
from ..xmlmodel.serializer import join_document


if TYPE_CHECKING:
    from ..dtd import Dtd
    from .source import Source


# ---------------------------------------------------------------------------
# policy and legs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatViewPolicy:
    """Knobs for a mediator's materialized-view cache.

    ``max_bytes`` bounds the sum of cached answer-size estimates and
    cached answer bytes (LRU eviction).  Every spliced answer is
    re-validated against the inferred view DTD before release (a
    soundness check, always on).
    """

    max_bytes: int = 8 << 20


@dataclass(frozen=True)
class CacheLeg:
    """One source's contribution to a cached union view.

    ``delta_query`` is the source's union branch: evaluated over a
    *single* source document, it yields exactly that document's
    contribution to the answer.
    """

    source: "Source"
    delta_query: Query


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


class _DocState:
    """One contributing document's slice of a cached answer.

    ``leg`` is the index of the entry's leg whose source holds the
    document; ``start:stop`` is the half-open range of top-level answer
    children this document produced (``-1`` when unknown -- entry is
    then recompute-only); ``index`` is the document's
    :class:`DocumentIndex` at entry-build time, kept so staleness can
    be decided with the same completeness argument as
    ``DocumentIndex.changed_since``: new elements necessarily hang off
    an edited indexed parent.  The index answers ``fresh_at`` itself:
    an in-memory index from the journal (a replaced root, or unknown,
    is not fresh), a store-backed one from the store's generation
    counter.
    """

    __slots__ = ("leg", "document", "index", "start", "stop")

    def __init__(
        self,
        leg: int,
        document: Document,
        index: DocumentIndex,
        start: int,
        stop: int,
    ) -> None:
        self.leg = leg
        self.document = document
        self.index = index
        self.start = start
        self.stop = stop


class _Entry:
    __slots__ = (
        "view_name",
        "dtd",
        "answer",
        "elem_ids",
        "fragments",
        "payload",
        "bytes",
        "stamp",
        "legs",
        "docs",
        "spliceable",
    )

    def __init__(
        self,
        view_name: str,
        dtd: "Dtd",
        answer: Document,
        legs: tuple[CacheLeg, ...],
        docs: list[_DocState],
        stamp: int,
        spliceable: bool,
    ) -> None:
        self.view_name = view_name
        self.dtd = dtd
        self.answer = answer
        # The master is served by reference, so a caller edit (through
        # the journaled APIs) must be detectable: keep the ids of its
        # elements, root and document included.  The master holds
        # them, so none is reused while the entry checks it.  New
        # elements can only appear under an edited (hence journaled,
        # hence caught) parent.
        self.elem_ids, self.bytes = _walk_subtrees([answer.root])
        self.elem_ids.add(id(answer))
        # The answer as the wire needs it, built on first request:
        # each pick's serialized text as a JSON string body (escaping
        # is per character, so bodies concatenate like the text), and
        # the assembled document as a JSON string literal.
        self.fragments: list[str] | None = None
        self.payload: bytes | None = None
        # the clock at which the entry was last validated
        self.stamp = stamp
        self.legs = legs
        self.docs = docs
        self.spliceable = spliceable

    def answer_intact(self) -> bool | None:
        """Whether no edit since ``stamp`` touched the master; ``None``
        when the journal no longer reaches back to ``stamp``."""
        touched = touched_since(self.stamp)
        if touched is None:
            return None
        ids = self.elem_ids
        return not any(id(obj) in ids for obj in touched)


def estimate_bytes(document: Document) -> int:
    """A cheap, deterministic answer-size estimate for the byte budget."""
    return _walk_subtrees([document.root])[1]


def _json_body(text: str) -> str:
    """``text`` as a JSON string literal without its quotes."""
    return encode_basestring_ascii(text)[1:-1]


def _render_picks(picks) -> list[str]:
    """Per-pick fragments: each top-level pick as the document writer
    renders it (level 1), as a JSON string body."""
    return [
        _json_body(serialize_element(pick, 2, False, 1)) for pick in picks
    ]


def _walk_subtrees(elements) -> tuple[set[int], int]:
    """The element ids of some subtrees and their :func:`estimate_bytes`,
    in one walk.

    Lets delta maintenance update an entry's id set and byte estimate
    by walking only the swapped picks instead of the whole answer.
    """
    ids: set[int] = set()
    total = 0
    for root in elements:
        for element in root.iter():
            ids.add(id(element))
            total += 56 + len(element.name)
            if isinstance(element.content, str):
                total += len(element.content)
    return ids, total


@dataclass(frozen=True)
class _MissToken:
    """Handed out on a miss; redeemed by :meth:`MatViewCache.store`.

    ``stamp`` is the mutation clock *before* the caller started
    evaluating: a mutation landing mid-evaluation leaves the stored
    entry conservatively stale, so the next lookup re-checks it.
    """

    view_name: str
    dtd: "Dtd"
    legs: tuple[CacheLeg, ...]
    stamp: int


@dataclass
class CacheOutcome:
    """What a :meth:`MatViewCache.probe` decided.

    ``status`` is ``"hit"`` / ``"delta"`` / ``"miss"``; on a miss
    ``token`` should be passed to :meth:`MatViewCache.store` with the
    computed answer.
    """

    status: str
    answer: Document | None = None
    token: _MissToken | None = None


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


#: the counters :meth:`MatViewCache.info` reports besides ``entries``
#: and ``bytes``; ``encoded_answers`` counts answers handed out as
#: cached bytes, ``fragments_built`` the pick fragments rendered
_COUNTERS = (
    "hits", "misses", "invalidations", "deltas", "recomputes", "evictions",
    "stale_delta_fallbacks", "bypasses", "encoded_answers", "fragments_built",
)


class MatViewCache:
    """A thread-safe LRU cache of one mediator's union-view answers."""

    def __init__(self, policy: MatViewPolicy | None = None) -> None:
        self.policy = policy or MatViewPolicy()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.clear()  # sets _bytes and every counter of _COUNTERS
        _LIVE_CACHES.add(self)

    # -- inspection ------------------------------------------------------

    def info(self) -> dict:
        with self._lock:
            info = {name: getattr(self, name) for name in _COUNTERS}
            info["entries"] = len(self._entries)
            info["bytes"] = self._bytes
            return info

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            for name in _COUNTERS:
                setattr(self, name, 0)

    def note_bypass(self) -> None:
        """Count an explicit per-request cache bypass (``MED006``)."""
        with self._lock:
            self.bypasses += 1

    def answer_json(self, document: Document) -> bytes | None:
        """``serialize_document(document)`` as a JSON string literal
        (UTF-8), or ``None`` unless ``document`` is the current master
        of the entry of its view (an answer's root is named after its
        view) and unedited since it was validated.

        The bytes are assembled from the entry's per-pick fragments by
        the document writer's own join, kept on the entry and charged
        to the byte budget; a delta splice re-renders only the fresh
        picks.
        """
        with self._lock:
            entry = self._entries.get(document.root.name)
            if entry is None or entry.answer is not document:
                return None
            if mutation_stamp() != entry.stamp and not entry.answer_intact():
                return None
            if entry.payload is None:
                added = 0
                if entry.fragments is None:
                    entry.fragments = _render_picks(document.root.children)
                    self.fragments_built += len(entry.fragments)
                    added += sum(map(len, entry.fragments))
                text = join_document(
                    document.root, entry.fragments, escape=_json_body
                )
                entry.payload = f'"{text}"'.encode("ascii")
                added += len(entry.payload)
                entry.bytes += added
                self._bytes += added
                self._evict()
            self.encoded_answers += 1
            return entry.payload

    # -- the decision procedure ------------------------------------------

    def _docs_unchanged(self, entry: _Entry) -> bool:
        """Whether every leg's source still holds exactly the
        documents the entry was built from, in order."""
        kept = iter(entry.docs)
        for leg_index, leg in enumerate(entry.legs):
            for live in leg.source.documents:
                state = next(kept, None)
                if (
                    state is None
                    or state.leg != leg_index
                    or state.document is not live
                ):
                    return False
        return next(kept, None) is None

    def _classify(
        self, entry: _Entry
    ) -> tuple[str, _DocState | None]:
        """``(verdict, dirty_doc)`` for a held entry, without mutating it.

        Verdicts: ``fast-hit`` (clock unmoved), ``rearm-hit`` (moved,
        entry untouched), ``delta`` (one dirty spliceable document),
        ``docs-changed``, ``unknown`` (the journal no longer reaches
        back to the entry's stamp), ``answer-mutated`` (a caller
        edited the served master), ``stale``.
        """
        if not self._docs_unchanged(entry):
            return "docs-changed", None
        if mutation_stamp() == entry.stamp:
            return "fast-hit", None
        intact = entry.answer_intact()
        if intact is None:
            return "unknown", None
        if not intact:
            return "answer-mutated", None
        dirty = [
            state
            for state in entry.docs
            if not state.index.fresh_at(entry.stamp)
        ]
        if not dirty:
            return "rearm-hit", None
        if entry.spliceable and len(dirty) == 1:
            return "delta", dirty[0]
        return "stale", None

    def peek(self, view_name: str) -> str:
        """Non-mutating classification for ``explain()``.

        Returns ``"hit"``, ``"delta"``, ``"recompute"``, or ``"cold"``.
        """
        with self._lock:
            entry = self._entries.get(view_name)
            if entry is None:
                return "cold"
            verdict, _ = self._classify(entry)
        if verdict in ("fast-hit", "rearm-hit"):
            return "hit"
        if verdict == "delta":
            return "delta"
        return "recompute"

    def probe(
        self,
        view_name: str,
        dtd: "Dtd",
        legs: tuple[CacheLeg, ...],
    ) -> CacheOutcome:
        """Look up (and, when possible, delta-maintain) a cached answer.

        Returns a hit/delta outcome carrying the shared master answer
        (a stable snapshot -- see the module docstring), or a miss
        outcome whose token the caller redeems with :meth:`store`
        after recomputing.
        """
        with self._lock:
            entry = self._entries.get(view_name)
            if entry is None:
                self.misses += 1
                return self._miss(view_name, dtd, legs, "cold")
            stamp = mutation_stamp()
            verdict, dirty = self._classify(entry)
            if verdict in ("fast-hit", "rearm-hit"):
                if verdict == "rearm-hit":
                    entry.stamp = stamp
                self.hits += 1
                self._entries.move_to_end(view_name)
                with obs.span("matview.hit") as sp:
                    sp.set_attribute("view", view_name)
                    sp.set_attribute("bytes", entry.bytes)
                    sp.set_attribute(
                        "elements", len(entry.answer.root.children)
                    )
                return CacheOutcome("hit", answer=entry.answer)
            if verdict == "delta":
                assert dirty is not None
                maintained = self._maintain(entry, dirty, stamp)
                if maintained is not None:
                    self.deltas += 1
                    self._entries.move_to_end(view_name)
                    return CacheOutcome("delta", answer=maintained)
                # stale-delta fallback (MED007): entry already dropped
                self.stale_delta_fallbacks += 1
                self.misses += 1
                return self._miss(view_name, dtd, legs, "stale-delta")
            # docs-changed, unknown, answer-mutated or stale: recompute
            self._drop(view_name)
            self.invalidations += 1
            self.misses += 1
            return self._miss(view_name, dtd, legs, verdict)

    def _miss(
        self,
        view_name: str,
        dtd: "Dtd",
        legs: tuple[CacheLeg, ...],
        reason: str,
    ) -> CacheOutcome:
        with obs.span("matview.miss") as sp:
            sp.set_attribute("view", view_name)
            sp.set_attribute("reason", reason)
        token = _MissToken(view_name, dtd, legs, mutation_stamp())
        return CacheOutcome("miss", token=token)

    def _drop(self, view_name: str) -> None:
        entry = self._entries.pop(view_name, None)
        if entry is not None:
            self._bytes -= entry.bytes

    # -- delta maintenance ----------------------------------------------

    @staticmethod
    def _splice_validates(root, new_children, schema) -> bool:
        """Validate only what the splice could have broken.

        The untouched picks are shared with the previous master, which
        validated when it was built (inference soundness), so a delta
        only needs (a) the root's content model over the *new* child
        word and (b) a deep check of the fresh subtrees.  IDs need no
        re-check: every answer element carries a ``fresh_id``, unique
        by construction.
        """
        from ..dtd import Pcdata, validate_element
        from ..regex import to_dfa

        if root.name not in schema:
            return False
        declared = schema.type_of(root.name)
        if isinstance(declared, Pcdata):
            return False
        word = [(child.name, 0) for child in root.children]
        if not to_dfa(declared).accepts(word):
            return False
        return all(
            validate_element(child, schema).ok
            for child in new_children
        )

    def _maintain(
        self, entry: _Entry, dirty: _DocState, stamp: int
    ) -> Document | None:
        """Splice one dirty document's fresh picks into the answer.

        The master is never edited in place -- answers served from
        earlier hits must stay stable -- so maintenance builds a *new*
        root whose child list splices the fresh picks between the
        untouched pick subtrees (shared by reference).  Returns the
        new master, re-stamped at ``stamp`` (the clock the caller's
        classification validated up to), or ``None`` after dropping
        the entry when the spliced answer no longer validates against
        the inferred view DTD (``MED007``).
        """
        from ..xmlmodel import Element, fresh_id

        leg = entry.legs[dirty.leg]
        with obs.span("matview.delta") as sp:
            sp.set_attribute("view", entry.view_name)
            sp.set_attribute("source", leg.source.name)
            fresh = evaluate_many(leg.delta_query, [dirty.document])
            new_children = list(fresh.root.children)
            old = entry.answer.root.content
            assert isinstance(old, list)
            start, stop = dirty.start, dirty.stop
            spliced = old[:start] + new_children + old[stop:]
            maintained = Document(
                Element(entry.answer.root.name, spliced, fresh_id())
            )
            shift = len(new_children) - (stop - start)
            dirty.stop += shift
            if shift:
                seen_dirty = False
                for state in entry.docs:
                    if state is dirty:
                        seen_dirty = True
                        continue
                    if seen_dirty:
                        state.start += shift
                        state.stop += shift
            sp.set_attribute("spliced_elements", len(new_children))
            sp.set_attribute("shift", shift)
            if not self._splice_validates(
                maintained.root, new_children, entry.dtd
            ):
                sp.add_event(
                    "stale_delta_fallback", code=STALE_DELTA_FALLBACK
                )
                self._drop(entry.view_name)
                return None
            dirty.index = document_index(dirty.document)
            old_ids, old_bytes = _walk_subtrees(old[start:stop])
            new_ids, new_bytes = _walk_subtrees(new_children)
            entry.elem_ids.difference_update(
                old_ids, (id(entry.answer), id(entry.answer.root))
            )
            entry.elem_ids.update(
                new_ids, (id(maintained), id(maintained.root))
            )
            entry.answer = maintained
            encoded = 0
            if entry.fragments is not None:
                fresh_fragments = _render_picks(new_children)
                self.fragments_built += len(fresh_fragments)
                encoded = sum(map(len, fresh_fragments)) - sum(
                    map(len, entry.fragments[start:stop])
                )
                entry.fragments[start:stop] = fresh_fragments
            if entry.payload is not None:
                encoded -= len(entry.payload)
                entry.payload = None
            entry.stamp = stamp
            self._bytes -= entry.bytes
            entry.bytes += new_bytes - old_bytes + encoded
            self._bytes += entry.bytes
            sp.set_attribute("bytes", entry.bytes)
        self._evict()
        return entry.answer

    # -- population ------------------------------------------------------

    def store(
        self,
        token: _MissToken,
        answer: Document,
        counts_per_leg: Sequence[tuple[int, ...] | None],
    ) -> None:
        """Redeem a miss token with the freshly computed answer.

        The answer document becomes the entry's master *by reference*
        (the caller hands ownership to the cache and receives the same
        shared-snapshot semantics as a hit).  ``counts_per_leg``
        aligns with the token's legs: each entry is the
        ``pick_counts`` of that leg's answer.  A leg whose counts are
        ``None``, or do not cover exactly its source's documents,
        makes the stored entry recompute-only.  Degraded answers must
        not be stored; the mediator checks.
        """
        docs: list[_DocState] = []
        spliceable = True
        offset = 0
        for leg_index, (leg, counts) in enumerate(
            zip(token.legs, counts_per_leg)
        ):
            documents = tuple(leg.source.documents)
            # Counts that do not describe this leg's documents leave
            # the entry recompute-only: it can still be validated and
            # invalidated, but never spliced, so the (meaningless)
            # answer offsets stay at -1.
            usable = counts is not None and len(counts) == len(documents)
            spliceable = spliceable and usable
            for ordinal, document in enumerate(documents):
                start = stop = -1
                if usable:
                    start, stop = offset, offset + counts[ordinal]
                    offset = stop
                docs.append(
                    _DocState(
                        leg_index,
                        document,
                        document_index(document),
                        start,
                        stop,
                    )
                )
        entry = _Entry(
            token.view_name,
            token.dtd,
            answer,
            token.legs,
            docs,
            token.stamp,
            spliceable,
        )
        with obs.span("matview.recompute") as sp:
            sp.set_attribute("view", token.view_name)
            sp.set_attribute("bytes", entry.bytes)
            sp.set_attribute("elements", len(answer.root.children))
            with self._lock:
                if entry.bytes > self.policy.max_bytes:
                    self.evictions += 1
                    return
                self._drop(token.view_name)
                self._entries[token.view_name] = entry
                self._bytes += entry.bytes
                self.recomputes += 1
                self._evict()

    def _evict(self) -> None:
        with self._lock:
            while (
                self._bytes > self.policy.max_bytes
                and len(self._entries) > 1
            ):
                _, entry = self._entries.popitem(last=False)
                self._bytes -= entry.bytes
                self.evictions += 1


# ---------------------------------------------------------------------------
# stats-registry integration
# ---------------------------------------------------------------------------

_LIVE_CACHES: "weakref.WeakSet[MatViewCache]" = weakref.WeakSet()


def _clear_live_caches() -> None:
    for cache in list(_LIVE_CACHES):
        cache.clear()


def _aggregate() -> dict:
    totals = dict.fromkeys((*_COUNTERS, "entries", "bytes"), 0)
    for cache in list(_LIVE_CACHES):
        info = cache.info()
        for name in totals:
            totals[name] += info[name]
    return totals


registry.register_stats_section(
    "matview", _aggregate, _clear_live_caches, "matview cache"
)
