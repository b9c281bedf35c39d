"""Sharded sources: one logical source over N typed fragments.

The paper's mediator treats a source as one monolithic document
collection.  This module scales that premise horizontally in the style
of distributed XML design: a :class:`ShardedSource` presents **one
logical source** — one name, one logical DTD, one ``query()`` entry
point — backed by N *fragments*, each an ordinary
:class:`~repro.mediator.source.Source` typed by its own **fragment
DTD**.  Two fragmentation shapes are supported:

* **horizontal partition** — whole documents distributed across
  fragments (:func:`partition_documents`); every fragment may reuse
  the logical DTD, or a tighter specialization of it when the
  partition is content-aware (journal-only vs. conference-only
  bibliography sites);
* **subtree fragmentation** — one large document split along a
  repeated child (:func:`fragment_by_child`): each fragment replicates
  the spine and carries a contiguous chunk of the repeated subtrees.

Every fragment DTD must be a *specialization* of the logical DTD
(same root, declared names a subset, each content model a
sub-language — checked at construction with the language kernel's
``is_subset``), so every fragment document is also valid under the
logical DTD and the mediator's view-DTD inference over the logical
DTD stays sound.

**Fragmentation-aware pruning.**  Because fragments are typed, the
compiled plan's letter sets (:class:`~repro.xmas.engine.PlanNode`)
and the fragment DTD's reachability analysis
(:func:`~repro.dtd.analysis.reachable_names`) decide *statically*
whether a fragment can possibly contribute: a valid fragment document
only contains names reachable in the fragment DTD, and a pick exists
only when **every** condition node matches, so one condition node
whose letter set misses the fragment's reachable names proves the
fragment's answer empty — the shard is never called
(:func:`fragment_can_match`).  Prunes are counted in the ``sharding``
section of ``kernel_stats()`` and traced under ``shard.prune`` spans.

**Scatter-gather.**  Surviving shards' ``query()`` calls fan out
through the existing :class:`~repro.mediator.parallel.ParallelTransport`
(in shard order; a shard keeps no latency history of its own).
Answers merge **deterministically in shard order** (fan-out results
come back in input leg order, so the merge — and therefore every trace
and counter — is run-identical under
:class:`~repro.mediator.transport.FakeClock`).  A shard has no
transport of its own: the mediator's one
:class:`~repro.mediator.transport.SourceTransport` per logical source
times, retries and breaks the whole gather.  A shard that fails fails
the logical call with its own error (the first in shard order), as an
unsharded source would: the mediator's transport then re-gathers
under the mediator's policy, and a mediator union skips the whole
source and validates and flags its degraded answer.

The merged answer's ``pick_counts`` are the shards' counts
concatenated in shard order (zeros for a pruned shard's documents), so
they describe the logical document list, and the materialized-view
cache (:mod:`repro.mediator.matview`) keys entries by per-shard
document identity and a mutation in one shard is delta-maintained
shard-locally — the delta query re-runs over the one dirty fragment
document only.

See docs/SHARDING.md for the fragmentation model, the pruning
soundness argument, shard fault semantics, and the benchmark
methodology behind ``benchmarks/bench_sharding.py``.
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass

from .. import obs
from ..dtd import Dtd, Pcdata, validate_document
from ..dtd.analysis import reachable_names
from ..errors import ShardConfigError
from ..obs import registry
from ..regex import is_subset
from ..xmas import Query
from ..xmas.engine import CompiledPlan, compile_query
from ..xmlmodel import Document, Element, fresh_id
from .parallel import FanoutPolicy, ParallelTransport
from .source import Source
from .transport import Clock, SystemClock


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@dataclass
class ShardStats:
    """Per-``ShardedSource`` counters (aggregated into ``kernel_stats()``)."""

    queries: int = 0
    #: shard calls avoided by static pruning
    shards_pruned: int = 0
    #: shard legs actually dispatched
    shards_called: int = 0
    #: shard legs that raised (each fails its logical call)
    shard_failures: int = 0
    #: queries answered empty with zero shard calls (all shards pruned)
    all_pruned: int = 0


# ---------------------------------------------------------------------------
# static analysis: specialization and pruning
# ---------------------------------------------------------------------------


def fragment_specialization_problem(
    fragment: Dtd, logical: Dtd
) -> str | None:
    """Why ``fragment`` is no specialization of ``logical`` (None = is).

    A fragment DTD specializes the logical DTD when it has the same
    root, declares a subset of the logical names, and every declared
    content model accepts a sub-language of the logical one — then
    every fragment-valid document is logical-valid by induction, which
    is what keeps view-DTD inference over the logical DTD sound for
    sharded answers.
    """
    if logical.root is not None and fragment.root != logical.root:
        return (
            f"fragment root {fragment.root!r} differs from logical "
            f"root {logical.root!r}"
        )
    undeclared = fragment.names - logical.names
    if undeclared:
        return (
            "fragment declares names outside the logical DTD: "
            f"{sorted(undeclared)}"
        )
    for name, fragment_type in fragment.types.items():
        logical_type = logical.type_of(name)
        fragment_pcdata = isinstance(fragment_type, Pcdata)
        logical_pcdata = isinstance(logical_type, Pcdata)
        if fragment_pcdata and logical_pcdata:
            continue
        if fragment_pcdata != logical_pcdata:
            return (
                f"{name!r} is #PCDATA in one DTD and structured in "
                "the other"
            )
        if not is_subset(fragment_type, logical_type):
            return (
                f"content model of {name!r} is not a sub-language of "
                "the logical declaration"
            )
    return None


def fragment_can_match(
    plan: CompiledPlan,
    dtd: Dtd,
    reachable: frozenset[str] | None = None,
) -> bool:
    """Can a document valid under ``dtd`` satisfy this compiled plan?

    ``False`` is a *proof* of emptiness (the prune is sound): a valid
    fragment document's root carries the fragment DTD's root name and
    its elements only carry names reachable from it, while a pick
    requires every condition node of the plan to match somewhere.  So
    the fragment is prunable when the plan's root letter set excludes
    the fragment root, or when any node's letter set is disjoint from
    the fragment's reachable names.  Wildcard nodes (``names is
    None``) constrain nothing.  ``True`` promises nothing — the shard
    is called and may still answer empty.
    """
    if reachable is None:
        reachable = reachable_names(dtd)
    for node in plan.nodes:
        names = node.names
        if names is None:
            continue
        if node.parent < 0 and dtd.root is not None:
            if dtd.root not in names:
                return False
            continue
        if names.isdisjoint(reachable):
            return False
    return True


# ---------------------------------------------------------------------------
# fragmentation helpers
# ---------------------------------------------------------------------------


def partition_documents(
    documents: list[Document], n_shards: int
) -> list[list[Document]]:
    """Split a document list into ``n_shards`` contiguous chunks.

    Contiguous (not round-robin) so the concatenation of the chunks in
    shard order *is* the original list — the sharded answer merges in
    exactly the unsharded document order.  Chunk sizes differ by at
    most one; with fewer documents than shards the tail chunks are
    empty (an empty shard is a healthy shard that answers empty).
    """
    if n_shards < 1:
        raise ShardConfigError(f"n_shards must be >= 1, got {n_shards}")
    base, extra = divmod(len(documents), n_shards)
    chunks: list[list[Document]] = []
    cursor = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunks.append(documents[cursor : cursor + size])
        cursor += size
    return chunks


def fragment_by_child(
    document: Document, child_name: str, n_fragments: int
) -> list[Document]:
    """Subtree fragmentation: split one document along a repeated child.

    The root's ``child_name`` children are chunked contiguously into
    at most ``n_fragments`` groups; every other root child (the
    *spine* — required siblings like ``meta``) is replicated into each
    fragment in its original relative position, so each fragment stays
    valid under any DTD the whole document satisfied.  All elements
    are deep-copied with fresh ids — fragments share no elements with
    the original or each other.

    Soundness caveat (see docs/SHARDING.md): answers are preserved for
    queries whose conditions below the root all sit inside a *single*
    ``child_name`` subtree.  A query that picks inside the replicated
    spine would count its picks once per fragment, and a query
    relating two distinct ``child_name`` siblings (e.g. an inequality
    across two ``<venue>`` conditions) can lose matches that the
    fragmentation separates.  Keep such views on horizontal
    partitions, which are unconditionally sound.
    """
    root = document.root
    targets = [
        child for child in root.children if child.name == child_name
    ]
    if not targets:
        raise ShardConfigError(
            f"document root {root.name!r} has no {child_name!r} "
            "children to fragment by"
        )
    groups = [
        chunk
        for chunk in partition_documents(targets, n_fragments)
        if chunk
    ]
    assigned = {
        id(target): index
        for index, chunk in enumerate(groups)
        for target in chunk
    }
    fragments: list[list[Element]] = [[] for _ in groups]
    for child in root.children:
        if child.name == child_name:
            fragments[assigned[id(child)]].append(
                child.deep_copy(fresh_ids=True)
            )
        else:
            for children in fragments:
                children.append(child.deep_copy(fresh_ids=True))
    return [
        Document(Element(root.name, children, fresh_id()))
        for children in fragments
    ]


# ---------------------------------------------------------------------------
# the sharded source
# ---------------------------------------------------------------------------


class ShardedSource(Source):
    """One logical source scattered over N fragment shards.

    Constructed from ordinary :class:`Source` objects (one per
    fragment, each typed by its fragment DTD) and usable everywhere a
    ``Source`` is: ``Mediator.add_source`` wraps it in the mediator's
    one transport unchanged, ``documents`` presents the concatenated
    fragment documents in stable shard order (which is what keys
    matview cache entries per shard document), and ``query()`` runs
    prune → scatter → gather → merge.
    """

    # Source is a dataclass (value equality, unhashable); a sharded
    # source is an identity object — it sits in WeakSets and transport
    # tables.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        name: str,
        dtd: Dtd,
        shards: "list[Source]",
        *,
        clock: Clock | None = None,
        fanout: FanoutPolicy | None = None,
        validate: bool = True,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ShardConfigError(
                f"sharded source {name!r} needs at least one shard"
            )
        shard_names = [shard.name for shard in shards]
        if len(set(shard_names)) != len(shard_names):
            raise ShardConfigError(
                f"duplicate shard names in {name!r}: {sorted(shard_names)}"
            )
        self.name = name
        self.dtd = dtd
        self.validate = validate
        self.queries_served = 0
        self.clock: Clock = clock or SystemClock()
        self.shards = shards
        self._shard_by_name = {shard.name: shard for shard in shards}
        for shard in shards:
            problem = fragment_specialization_problem(shard.dtd, dtd)
            if problem is not None:
                raise ShardConfigError(
                    f"shard {shard.name!r} of {name!r}: {problem}"
                )
        #: the shard gather (``fanout=None`` runs legs inline, see
        #: :data:`~repro.mediator.parallel.INLINE`)
        self.parallel = ParallelTransport(self.clock, fanout)
        #: per-shard reachable-name sets (fragment DTDs are immutable
        #: after construction, so these are computed once)
        self._reachable = [
            reachable_names(shard.dtd) for shard in shards
        ]
        self.stats = ShardStats()
        self._stats_lock = threading.Lock()
        _LIVE_SHARDED.add(self)

    # -- Source surface --------------------------------------------------

    @property
    def documents(self) -> list[Document]:  # type: ignore[override]
        """The logical document list: fragment documents in shard order."""
        return [
            document
            for shard in self.shards
            for document in shard.documents
        ]

    def add_document(
        self, document: Document, shard: str | None = None
    ) -> None:
        """Route a document to a shard.

        With ``shard`` named, the document goes there (the shard's own
        validation applies).  Without, it is routed to the first shard
        whose fragment DTD validates it — content-aware fragmentations
        route themselves; raises :class:`ShardConfigError` when no
        fragment accepts the document (or when validation is off and
        no shard is named, since routing needs validation).
        """
        if shard is not None:
            target = self._shard_by_name.get(shard)
            if target is None:
                raise ShardConfigError(
                    f"{self.name!r} has no shard named {shard!r}"
                )
            target.add_document(document)
            return
        if not self.validate:
            raise ShardConfigError(
                f"sharded source {self.name!r} has validation off; "
                "name a shard to route the document to"
            )
        for candidate in self.shards:
            if validate_document(document, candidate.dtd).ok:
                candidate.add_document(document)
                return
        raise ShardConfigError(
            f"document fits no fragment DTD of {self.name!r}"
        )

    # -- planning ----------------------------------------------------------

    def prune(self, query: Query) -> tuple[list[str], list[str]]:
        """``(survivor_names, pruned_names)`` for a query, in shard order.

        The static planning step of :meth:`query`, exposed for
        inspection: no shard is called, no counter moves.  The
        survivors are the shards :meth:`query` calls, and so the shards
        whose answers a successful query merges.
        """
        survivors, pruned = self._survivors(compile_query(query))
        return [self.shards[index].name for index in survivors], pruned

    def _survivors(self, plan: CompiledPlan) -> tuple[list[int], list[str]]:
        """``(survivor_indexes, pruned_names)`` for a plan, in shard order."""
        survivors: list[int] = []
        pruned: list[str] = []
        for index, shard in enumerate(self.shards):
            if fragment_can_match(plan, shard.dtd, self._reachable[index]):
                survivors.append(index)
            else:
                pruned.append(shard.name)
        return survivors, pruned

    # -- the gather --------------------------------------------------------

    def query(self, query: Query) -> Document:
        """Prune, scatter surviving shards, gather, merge in shard order.

        A shard that fails fails the whole call with its own error
        (the first in shard order): a sharded answer is either complete
        or absent, never silently partial.  Retrying is the business of
        the transport the mediator wraps this source in.
        """
        with self._stats_lock:
            self.queries_served += 1
            self.stats.queries += 1
        plan = compile_query(query)
        with obs.span("shard.prune") as sp:
            sp.set_attribute("source", self.name)
            sp.set_attribute("shards", len(self.shards))
            survivors, pruned = self._survivors(plan)
            sp.set_attribute("pruned", len(pruned))
            sp.set_attribute("survivors", len(survivors))
        with self._stats_lock:
            self.stats.shards_pruned += len(pruned)
            if not survivors:
                self.stats.all_pruned += 1
        if not survivors:
            return self._empty_answer(query)
        with obs.span("shard.gather") as sp:
            sp.set_attribute("source", self.name)
            sp.set_attribute("legs", len(survivors))
            results = self.parallel.fan_out(
                [
                    (
                        self.shards[index].name,
                        functools.partial(self.shards[index].query, query),
                        None,
                    )
                    for index in survivors
                ]
            )
            errors = [r.error for r in results if r.error is not None]
            with self._stats_lock:
                self.stats.shards_called += len(survivors)
                self.stats.shard_failures += len(errors)
            sp.set_attribute("failed", len(errors))
            if errors:
                raise errors[0]
            picks: list[Element] = []
            answers: dict[int, Document] = {}
            for index, result in zip(survivors, results):
                answer = result.answer
                assert answer is not None
                picks.extend(answer.root.children)
                answers[index] = answer
            sp.set_attribute("picks", len(picks))
            merged = Document(
                Element(query.view_name, picks, fresh_id())
            )
            merged.pick_counts = self._merged_counts(answers)
        return merged

    def _merged_counts(
        self, answers: dict[int, Document]
    ) -> tuple[int, ...] | None:
        """The merged answer's ``pick_counts`` over the logical document
        list: the shards' counts concatenated in shard order, zeros for
        the documents of a pruned shard (one absent from ``answers``),
        ``None`` when some shard's answer carries no counts."""
        counts: list[int] = []
        for index, shard in enumerate(self.shards):
            answer = answers.get(index)
            if answer is None:
                counts.extend([0] * len(shard.documents))
            elif answer.pick_counts is None:
                return None
            else:
                counts.extend(answer.pick_counts)
        return tuple(counts)

    def _empty_answer(self, query: Query) -> Document:
        # An all-pruned answer has provably no picks: all-zero counts
        # keep matview entries delta-capable.
        answer = Document(Element(query.view_name, [], fresh_id()))
        answer.pick_counts = self._merged_counts({})
        return answer

    def close(self) -> None:
        """Release the gather worker pool (idempotent)."""
        self.parallel.close()

    def __repr__(self) -> str:
        return (
            f"ShardedSource(name={self.name!r}, "
            f"shards={[shard.name for shard in self.shards]})"
        )


# ---------------------------------------------------------------------------
# stats-registry integration
# ---------------------------------------------------------------------------

_LIVE_SHARDED: "weakref.WeakSet[ShardedSource]" = weakref.WeakSet()


def _clear_stats() -> None:
    for source in list(_LIVE_SHARDED):
        with source._stats_lock:
            source.stats = ShardStats()


def _aggregate() -> dict:
    totals = {
        "sources": 0,
        "shards": 0,
        "queries": 0,
        "pruned": 0,
        "called": 0,
        "failures": 0,
        "all_pruned": 0,
    }
    for source in list(_LIVE_SHARDED):
        stats = source.stats
        totals["sources"] += 1
        totals["shards"] += len(source.shards)
        totals["queries"] += stats.queries
        totals["pruned"] += stats.shards_pruned
        totals["called"] += stats.shards_called
        totals["failures"] += stats.shard_failures
        totals["all_pruned"] += stats.all_pruned
    return totals


registry.register_stats_section(
    "sharding", _aggregate, _clear_stats, "sharded sources"
)
