"""Materialized-view answer cache with provenance-based maintenance.

The mediator of the paper is *on-demand*: every ``materialize_union``
or ``query_view`` call fans out to the sources and re-evaluates, even
when nothing changed.  Two earlier pieces make materialization sound:

* the inferred view DTD says what a valid answer looks like, and
* the global mutation clock (:mod:`repro.xmlmodel.element`) stamps
  every document edit, so "nothing changed" is an O(1) question.

A :class:`MatViewCache` keeps validated answers keyed by (kind, view
name, compiled-plan signature) and revalidates hits with exactly the
fast-path/re-arm discipline of
:func:`repro.xmlmodel.index.document_index`:

1. **O(1) fast path** -- the global clock has not moved since the
   entry was last validated: serve the answer.
2. **Re-arm scan** -- the clock moved, but a scan shows none of the
   entry's contributing documents did: re-stamp the entry and serve.
3. **Delta maintenance** -- exactly one contributing document mutated
   and the entry knows which slice of the answer that document
   produced (the answer's ``pick_counts``: how many picks each
   document contributed): re-run the query over that one document,
   splice the fresh picks into the materialized answer, re-validate
   the spliced answer against the inferred view DTD, re-stamp.
   Validation failure (``MED007``) falls back to a full recompute.
4. **Invalidate** -- anything else (several dirty documents, changed
   document lists, no pick counts): drop the entry and recompute.

Served answers are **shared snapshots**: a hit returns the cached
master document itself rather than a per-hit deep copy (the copy would
cost more than the recompute it saves on small answers, and dominates
the hit path on large ones).  This is sound under the model's own
mutation contract -- edits MUST go through the stamped ``Element``
APIs -- because an edit to a served answer bumps the global clock, and
the next probe's re-arm scan covers the master's elements too: a
poisoned master is invalidated, never served.  Delta maintenance never
edits a served master in place either; it builds a *new* root sharing
the untouched pick subtrees, so answers held from earlier hits stay
stable.

A snapshot also keeps its **cached bytes**, the answer in the form
the serve protocol sends: one serialized fragment per top-level pick
(as a JSON string body) and, assembled from them by the document
writer's own join, the whole answer as a JSON string literal.  Both
are built on the first :meth:`MatViewCache.answer_json` and handed out
only for the entry's current master, under the same freshness test as
a hit (clock unmoved, or the master intact), so a caller edit, a
delta, an eviction or a ``MED007`` fallback each refuses them.  A
delta splice swaps the fragments of the slice it swaps, rendering
only the fresh picks.

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

See docs/PERFORMANCE.md (caching section) and ``ISSUE`` PR 8.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, Sequence

from .. import obs
from ..errors import STALE_DELTA_FALLBACK
from ..obs import registry
from ..xmas import Query, evaluate_many
from ..xmas.engine import CompiledPlan, compile_query
from ..xmlmodel import Document, serialize_element
from ..xmlmodel.element import mutation_stamp
from ..xmlmodel.index import DocumentIndex, document_index
from ..xmlmodel.serializer import join_document


if TYPE_CHECKING:
    from ..dtd import Dtd
    from .source import Source


# ---------------------------------------------------------------------------
# policy and keying
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


def plan_signature(plan: CompiledPlan) -> tuple:
    """A stable, hashable fingerprint of a compiled plan.

    Two queries with the same signature materialize the same answer
    over the same documents, so the signature (not the query object)
    keys cache entries.
    """
    return (
        tuple(
            (
                None
                if node.names is None
                else tuple(sorted(node.names)),
                node.variable,
                node.pcdata,
                node.recursive,
                node.parent,
                node.end,
            )
            for node in plan.nodes
        ),
        plan.pick_path,
        plan.projectable,
    )


def query_signature(query: Query) -> tuple:
    """``plan_signature`` of a query (compiled through the plan cache)."""
    return plan_signature(compile_query(query))


@dataclass(frozen=True)
class CacheLeg:
    """One source's contribution to a cached view.

    ``delta_query`` is a query that, evaluated over a *single* source
    document, yields exactly that document's contribution to the
    answer (a union branch's query, or a composed source query).
    ``None`` marks the leg recompute-only: mutations under it always
    invalidate.
    """

    source_name: str
    source: "Source"
    delta_query: Query | None


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------


class _DocState:
    """One contributing document's slice of a cached answer.

    ``start:stop`` is the half-open range of top-level answer children
    this document produced (``-1`` when unknown -- entry is then
    recompute-only); ``index`` is the document's
    :class:`DocumentIndex` at entry-build time, kept so staleness can
    be decided with the same completeness argument as
    ``_index_is_fresh``: new elements necessarily hang off a mutated
    indexed parent.
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

    def fresh_at(self, stamp: int) -> bool:
        if self.document.mutation_version > stamp:
            return False
        # Delegated so store-backed indexes can answer from their
        # on-disk generation counter instead of scanning Element rows.
        return self.index.fresh_at(stamp)


class _Entry:
    __slots__ = (
        "key",
        "view_name",
        "dtd",
        "answer",
        "pick_elems",
        "fragments",
        "payload",
        "bytes",
        "built_stamp",
        "stamp",
        "legs",
        "leg_docs",
        "docs",
        "spliceable",
    )

    def __init__(
        self,
        key: tuple,
        view_name: str,
        dtd: Optional["Dtd"],
        answer: Document,
        legs: tuple[CacheLeg, ...],
        leg_docs: tuple[tuple[Document, ...], ...],
        docs: list[_DocState],
        built_stamp: int,
        spliceable: bool,
    ) -> None:
        self.key = key
        self.view_name = view_name
        self.dtd = dtd
        self.answer = answer
        # The master is served by reference, so a caller edit (through
        # the stamped APIs) must be detectable: keep the element set,
        # one tuple per top-level pick so delta maintenance can swap
        # slices without re-walking untouched subtrees.  New elements
        # can only appear under a mutated (hence stamped, hence
        # caught) parent.
        self.pick_elems = [
            tuple(child.iter()) for child in answer.root.children
        ]
        # The answer as the wire needs it, built on first request:
        # each pick's serialized text as a JSON string body (escaping
        # is per character, so bodies concatenate like the text), and
        # the assembled document as a JSON string literal.
        self.fragments: list[str] | None = None
        self.payload: bytes | None = None
        self.bytes = estimate_bytes(answer)
        self.built_stamp = built_stamp
        self.stamp = built_stamp
        self.legs = legs
        self.leg_docs = leg_docs
        self.docs = docs
        self.spliceable = spliceable

    def answer_intact(self) -> bool:
        stamp = self.built_stamp
        if (
            self.answer.mutation_version > stamp
            or self.answer.root.mutation_version > stamp
        ):
            return False
        for elems in self.pick_elems:
            for el in elems:
                if el.mutation_version > stamp:
                    return False
        return True

    def provenance(self) -> list[tuple[str, int, tuple[int, int]]]:
        """Per contributing document: (source, picks, answer slice)."""
        return [
            (
                self.legs[state.leg].source_name,
                max(0, state.stop - state.start),
                (state.start, state.stop),
            )
            for state in self.docs
        ]


def estimate_bytes(document: Document) -> int:
    """A cheap, deterministic answer-size estimate for the byte budget."""
    return _estimate_subtrees([document.root])


def _json_body(text: str) -> str:
    """``text`` as a JSON string literal without its quotes."""
    return encode_basestring_ascii(text)[1:-1]


def _render_picks(picks) -> list[str]:
    """Per-pick fragments: each top-level pick as the document writer
    renders it (level 1), as a JSON string body."""
    return [
        _json_body(serialize_element(pick, 2, False, 1)) for pick in picks
    ]


def _estimate_subtrees(elements) -> int:
    """:func:`estimate_bytes` over a slice of pick subtrees.

    Lets delta maintenance adjust an entry's byte estimate by walking
    only the swapped picks instead of the whole answer.
    """
    total = 0
    for root in elements:
        for element in root.iter():
            total += 56 + len(element.name)
            if isinstance(element.content, str):
                total += len(element.content)
    return total


@dataclass
class _MissToken:
    """Handed out on a miss; redeemed by :meth:`MatViewCache.store`.

    ``stamp`` is the mutation clock *before* the caller started
    evaluating: a mutation landing mid-evaluation leaves the stored
    entry conservatively stale, so the next lookup re-checks it.
    """

    key: tuple
    view_name: str
    dtd: Optional["Dtd"]
    legs: tuple[CacheLeg, ...]
    stamp: int


@dataclass
class CacheOutcome:
    """What a :meth:`MatViewCache.probe` decided.

    ``status`` is ``"hit"`` / ``"delta"`` / ``"miss"``; on a miss
    ``reason`` says why (``cold`` / ``stale`` / ``docs-changed`` /
    ``stale-delta``) and ``token`` (when cacheable)
    should be passed to :meth:`MatViewCache.store` with the computed
    answer.
    """

    status: str
    answer: Document | None = None
    token: _MissToken | None = None
    reason: str = ""


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
    """A thread-safe LRU answer cache for one (or several) mediators."""

    def __init__(self, policy: MatViewPolicy | None = None) -> None:
        self.policy = policy or MatViewPolicy()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.clear()  # sets _bytes and every counter of _COUNTERS
        _LIVE_CACHES.add(self)

    # -- inspection ------------------------------------------------------

    def info(self) -> dict:
        with self._lock:
            info = {name: getattr(self, name) for name in _COUNTERS}
            info["entries"] = len(self._entries)
            info["bytes"] = self._bytes
            return info

    def provenance(
        self, key: tuple
    ) -> list[tuple[str, int, tuple[int, int]]] | None:
        """The per-document provenance of a cached answer (or None)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.provenance() if entry is not None else None

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
        (UTF-8), or ``None`` unless ``document`` is a held entry's
        current master and unedited since it was validated.

        The bytes are assembled from the entry's per-pick fragments by
        the document writer's own join, kept on the entry and charged
        to the byte budget; a delta splice re-renders only the fresh
        picks.
        """
        with self._lock:
            for entry in reversed(self._entries.values()):
                if entry.answer is document:
                    break
            else:
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
        for leg, stored in zip(entry.legs, entry.leg_docs):
            current = leg.source.documents
            if len(current) != len(stored):
                return False
            for live, kept in zip(current, stored):
                if live is not kept:
                    return False
        return True

    def _classify(
        self, entry: _Entry
    ) -> tuple[str, _DocState | None]:
        """``(verdict, dirty_doc)`` for a held entry, without mutating it.

        Verdicts: ``fast-hit`` (clock unmoved), ``rearm-hit`` (moved,
        entry untouched), ``delta`` (one dirty spliceable document),
        ``docs-changed``, ``answer-mutated`` (a caller edited the
        served master), ``stale``.
        """
        if not self._docs_unchanged(entry):
            return "docs-changed", None
        stamp = mutation_stamp()
        if stamp == entry.stamp:
            return "fast-hit", None
        if not entry.answer_intact():
            return "answer-mutated", None
        dirty = [
            state
            for state in entry.docs
            if not state.fresh_at(entry.built_stamp)
        ]
        if not dirty:
            return "rearm-hit", None
        if (
            entry.spliceable
            and len(dirty) == 1
            and entry.legs[dirty[0].leg].delta_query is not None
        ):
            return "delta", dirty[0]
        return "stale", None

    def peek(self, key: tuple, legs: Sequence[CacheLeg]) -> str:
        """Non-mutating classification for ``explain()``.

        Returns ``"hit"``, ``"delta"``, ``"recompute"``, or ``"cold"``.
        """
        with self._lock:
            entry = self._entries.get(key)
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
        key: tuple,
        view_name: str,
        dtd: Optional["Dtd"],
        legs: Sequence[CacheLeg],
    ) -> CacheOutcome:
        """Look up (and, when possible, delta-maintain) a cached answer.

        Returns a hit/delta outcome carrying the shared master answer
        (a stable snapshot -- see the module docstring), or a miss
        outcome whose token the caller redeems with :meth:`store`
        after recomputing.
        """
        legs = tuple(legs)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return self._miss(
                    key, view_name, dtd, legs, "cold"
                )
            stamp = mutation_stamp()
            verdict, dirty = self._classify(entry)
            if verdict in ("fast-hit", "rearm-hit"):
                if verdict == "rearm-hit":
                    entry.stamp = stamp
                self.hits += 1
                self._entries.move_to_end(key)
                with obs.span("matview.hit") as sp:
                    sp.set_attribute("view", view_name)
                    sp.set_attribute("bytes", entry.bytes)
                    sp.set_attribute(
                        "elements", len(entry.answer.root.children)
                    )
                return CacheOutcome("hit", answer=entry.answer)
            if verdict == "delta":
                assert dirty is not None
                maintained = self._maintain(entry, dirty)
                if maintained is not None:
                    self.deltas += 1
                    self._entries.move_to_end(key)
                    return CacheOutcome("delta", answer=maintained)
                # stale-delta fallback (MED007): entry already dropped
                self.stale_delta_fallbacks += 1
                self.misses += 1
                return self._miss(
                    key, view_name, dtd, legs, "stale-delta"
                )
            # docs-changed or stale: drop and recompute
            self._drop(key)
            self.invalidations += 1
            self.misses += 1
            return self._miss(key, view_name, dtd, legs, verdict)

    def _miss(
        self,
        key: tuple,
        view_name: str,
        dtd: Optional["Dtd"],
        legs: tuple[CacheLeg, ...],
        reason: str,
    ) -> CacheOutcome:
        with obs.span("matview.miss") as sp:
            sp.set_attribute("view", view_name)
            sp.set_attribute("reason", reason)
        token = _MissToken(key, view_name, dtd, legs, mutation_stamp())
        return CacheOutcome("miss", token=token, reason=reason)

    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
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
        self, entry: _Entry, dirty: _DocState
    ) -> Document | None:
        """Splice one dirty document's fresh picks into the answer.

        The master is never edited in place -- answers served from
        earlier hits must stay stable -- so maintenance builds a *new*
        root whose child list splices the fresh picks between the
        untouched pick subtrees (shared by reference).  Returns the
        new master, or ``None`` after dropping the entry when the
        spliced answer no longer validates against the inferred view
        DTD (``MED007``).
        """
        from ..xmlmodel import Element, fresh_id

        leg = entry.legs[dirty.leg]
        assert leg.delta_query is not None
        with obs.span("matview.delta") as sp:
            sp.set_attribute("view", entry.view_name)
            sp.set_attribute("source", leg.source_name)
            stamp = mutation_stamp()
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
            if entry.dtd is not None:
                if not self._splice_validates(
                    maintained.root, new_children, entry.dtd
                ):
                    sp.add_event(
                        "stale_delta_fallback",
                        code=STALE_DELTA_FALLBACK,
                    )
                    self._drop(entry.key)
                    return None
            dirty.index = document_index(dirty.document)
            entry.answer = maintained
            entry.pick_elems[start:stop] = [
                tuple(child.iter()) for child in new_children
            ]
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
            entry.built_stamp = stamp
            entry.stamp = stamp
            self._bytes -= entry.bytes
            entry.bytes += (
                _estimate_subtrees(new_children)
                - _estimate_subtrees(old[start:stop])
                + encoded
            )
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
        legs = token.legs
        docs: list[_DocState] = []
        leg_docs: list[tuple[Document, ...]] = []
        spliceable = True
        offset = 0
        for leg_index, (leg, counts) in enumerate(
            zip(legs, counts_per_leg)
        ):
            documents = tuple(leg.source.documents)
            leg_docs.append(documents)
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
            token.key,
            token.view_name,
            token.dtd,
            answer,
            legs,
            tuple(leg_docs),
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
                self._drop(token.key)
                self._entries[token.key] = entry
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
