"""The MIX mediator (Figure 1).

A mediator exports XMAS views over registered sources.  When a view is
registered the View DTD Inference module derives its (specialized and
plain) view DTD; the DTD is served to clients -- users formulating
queries through the DTD-based interface, query processors, and *other
mediators stacked on top* (``as_source`` exports a view as a new
source whose DTD is the inferred one).

Answering a query against a view goes through the DTD-based query
simplifier first: provably empty queries never touch a source, and
valid sub-conditions are pruned before evaluation.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from dataclasses import dataclass, field

from .. import obs
from ..dtd import Dtd, SpecializedDtd, validate_document
from ..errors import (
    DegradedAnswer,
    MediatorError,
    SourceTimeout,
    SourceUnavailable,
)
from ..inference import (
    Classification,
    InferenceMode,
    InferenceResult,
    infer_view_dtd,
)
from ..xmas import Query, compile_query, evaluate_many
from ..xmlmodel import Document, Element, fresh_id
from .matview import CacheLeg, MatViewCache, MatViewPolicy
from .parallel import FanoutPolicy, ParallelTransport
from .simplifier import simplify_query
from .source import Source
from .transport import (
    Clock,
    Deadline,
    DegradationReport,
    SourceTransport,
    SystemClock,
    TransportPolicy,
)


@dataclass
class ViewRegistration:
    """A mediated view: its definition, source and inferred DTDs.

    The view's compiled plan belongs to ``query`` (see
    :func:`~repro.xmas.engine.compile_query`): registration compiles
    it once, and every materialization reuses it -- the serving hot
    path never recompiles."""

    query: Query
    source_name: str
    inference: InferenceResult

    @property
    def name(self) -> str:
        return self.query.view_name

    @property
    def dtd(self) -> Dtd:
        """The plain view DTD (after Merge)."""
        return self.inference.dtd

    @property
    def sdtd(self) -> SpecializedDtd:
        """The specialized view DTD (the tight description)."""
        return self.inference.sdtd


@dataclass
class QueryPlan:
    """The mediator's plan for a query against a view (see ``explain``)."""

    view_name: str
    classification: "Classification | None"
    pruned_nodes: int
    #: "empty-answer" | "compose" | "materialize" | "union-fanout"
    strategy: str
    composed_query: Query | None
    effective_query: Query | None
    #: per-source transport snapshots (breaker state, retries, ...)
    source_health: list[dict] = field(default_factory=list)
    #: the rendered planning trace (``repro.obs`` span tree; empty when
    #: tracing was disabled and ``explain`` could not install a tracer)
    trace_lines: list[str] = field(default_factory=list)
    #: what the materialized-view cache would do with a union
    #: materialization: "off" (no cache, or an ad-hoc query), "cold",
    #: "hit", "delta", "recompute"
    cache_status: str = "off"

    def describe(self) -> str:
        lines = [
            f"query against view {self.view_name!r}:",
            "  classification: "
            + (
                self.classification.value
                if self.classification is not None
                else "n/a"
            ),
            f"  conditions pruned: {self.pruned_nodes}",
            f"  strategy: {self.strategy}",
            f"  cache: {self.cache_status}",
        ]
        if self.composed_query is not None:
            lines.append("  composed source query:")
            lines.append(
                "    " + str(self.composed_query).replace("\n", "\n    ")
            )
        for health in self.source_health:
            lines.append(
                f"  source {health['source']!r}: breaker "
                f"{health['breaker']} (opened {health['times_opened']}x), "
                f"{health['calls']} calls, {health['retries']} retries, "
                f"{health['failures']} failures, "
                f"{health['timeouts']} timeouts"
            )
        if self.trace_lines:
            lines.append("  planning trace:")
            lines.extend(f"    {line}" for line in self.trace_lines)
        return "\n".join(lines)


@dataclass
class UnionViewRegistration:
    """A registered multi-source union view."""

    name: str
    branches: list
    source_names: list[str]
    inference: "UnionInferenceResult"
    #: one matview cache leg per branch, built once at registration
    legs: tuple[CacheLeg, ...]

    @property
    def dtd(self) -> Dtd:
        return self.inference.dtd

    @property
    def sdtd(self) -> SpecializedDtd:
        return self.inference.sdtd


@dataclass
class QueryStats:
    """Bookkeeping for the simplifier-benefit experiments (E10)."""

    queries: int = 0
    answered_without_source: int = 0
    conditions_pruned: int = 0
    composed: int = 0
    #: queries the static pre-flight rejected before any planning
    preflight_rejections: int = 0
    #: source fan-outs that never happened thanks to the pre-flight
    fanouts_skipped: int = 0
    #: answers returned partial because sources failed permanently
    degraded_answers: int = 0


class Mediator:
    """An on-demand XML mediator with DTD support."""

    def __init__(
        self,
        name: str = "mediator",
        mode: InferenceMode = InferenceMode.EXACT,
        policy: TransportPolicy | None = None,
        clock: Clock | None = None,
        fanout: FanoutPolicy | None = None,
        cache: MatViewPolicy | None = None,
    ) -> None:
        self.name = name
        self.mode = mode
        #: the source-call policy (timeout/retry/breaker) applied to
        #: every registered source; see docs/RELIABILITY.md
        self.policy = policy or TransportPolicy()
        self.clock: Clock = clock or SystemClock()
        #: the union fan-out (``fanout=None`` runs legs inline, see
        #: :data:`~repro.mediator.parallel.INLINE`)
        self.parallel = ParallelTransport(self.clock, fanout)
        #: this mediator's own union-view answer cache (None = uncached,
        #: the classic re-evaluate-everything mediator).  Never shared:
        #: an entry is checked against the legs of the mediator that
        #: stored it, so another federation would be served its answer.
        if cache is not None and not isinstance(cache, MatViewPolicy):
            raise TypeError(
                "Mediator(cache=) takes a MatViewPolicy or None, not "
                f"{type(cache).__name__}"
            )
        self.matview = None if cache is None else MatViewCache(cache)
        self.sources: dict[str, Source] = {}
        self.transports: dict[str, SourceTransport] = {}
        self.views: dict[str, ViewRegistration] = {}
        self.union_views: dict[str, "UnionViewRegistration"] = {}
        self.stats = QueryStats()
        #: guards every ``stats`` increment (see :meth:`_count`)
        self._stats_lock = threading.Lock()
        self._tls = threading.local()

    @property
    def last_degradation(self) -> DegradationReport | None:
        """What this thread's most recent answer left out (None = complete).

        Thread-local so concurrent server requests each observe their
        own request's degradation, not a sibling's; single-threaded
        callers see the classic "most recent answer" semantics.
        """
        return getattr(self._tls, "degradation", None)

    @last_degradation.setter
    def last_degradation(self, report: DegradationReport | None) -> None:
        self._tls.degradation = report

    @property
    def last_cache_outcome(self) -> str:
        """The matview cache's verdict on this thread's last answer:
        ``"off"`` (no cache configured, or an ad-hoc
        :meth:`query_view` answer), ``"bypass"`` (request opted
        out, MED006), ``"hit"``, ``"delta"``, or ``"miss"``."""
        return getattr(self._tls, "cache_outcome", "off")

    @last_cache_outcome.setter
    def last_cache_outcome(self, outcome: str) -> None:
        self._tls.cache_outcome = outcome

    # -- administration --------------------------------------------------

    def add_source(self, source: Source) -> None:
        """Register a wrapped source (behind the transport policy)."""
        if source.name in self.sources:
            raise MediatorError(f"source {source.name!r} already registered")
        self.sources[source.name] = source
        self.transports[source.name] = SourceTransport(
            source, self.policy, self.clock
        )

    def deadline(self, budget: float) -> Deadline:
        """A fan-out deadline ``budget`` seconds from now (this clock)."""
        return Deadline.after(self.clock, budget)

    def warm(self) -> int:
        """Pre-build every source's document indexes (serving state).

        View plans are compiled at registration already; after this,
        the first request is as fast as the thousandth.  Returns the
        number of documents indexed.
        """
        return sum(
            source.warm_indexes() for source in self.sources.values()
        )

    def close(self) -> None:
        """Release the parallel fan-out worker pool (idempotent)."""
        self.parallel.close()

    def health(self) -> dict[str, dict]:
        """Per-source transport health: breaker states, retries, ...

        The operational counterpart of ``stats``: one snapshot per
        source (see :meth:`SourceTransport.health`), renderable with
        :func:`repro.mediator.interface.render_health`.
        """
        return {
            name: transport.health()
            for name, transport in sorted(self.transports.items())
        }

    def _call_source(
        self, name: str, query: Query, deadline: Deadline | None = None
    ) -> Document:
        """One fan-out leg: the source's transport applies the policy."""
        return self.transports[name].call(query, deadline)

    def register_view(self, query: Query, source_name: str | None = None) -> ViewRegistration:
        """Register a view definition; infers its view DTD immediately.

        ``source_name`` defaults to the query's own ``source`` field,
        or to the only registered source.
        """
        target = source_name or query.source
        if target is None:
            if len(self.sources) != 1:
                raise MediatorError(
                    "query names no source and the mediator has "
                    f"{len(self.sources)} sources"
                )
            target = next(iter(self.sources))
        if target not in self.sources:
            raise MediatorError(f"unknown source {target!r}")
        if query.view_name in self.views or (
            query.view_name in self.union_views
        ):
            raise MediatorError(
                f"view {query.view_name!r} already registered"
            )
        source = self.sources[target]
        with obs.span("mediator.register_view") as sp:
            sp.set_attribute("view", query.view_name)
            sp.set_attribute("source", target)
            inference = infer_view_dtd(source.dtd, query, self.mode)
            compile_query(query)  # kept on the query for serving
            registration = ViewRegistration(query, target, inference)
        self.views[query.view_name] = registration
        return registration

    # -- the DTD services ------------------------------------------------

    def view_dtd(self, view_name: str) -> Dtd:
        """The inferred plain view DTD (what a generic client asks for)."""
        return self._view(view_name).dtd

    def view_sdtd(self, view_name: str) -> SpecializedDtd:
        """The inferred specialized view DTD (for stacked mediators)."""
        return self._view(view_name).sdtd

    # -- query answering ---------------------------------------------------

    def materialize(
        self, view_name: str, deadline: Deadline | None = None
    ) -> Document:
        """Evaluate a view against its source (through the transport)."""
        registration = self._view(view_name)
        return self._call_source(
            registration.source_name, registration.query, deadline
        )

    def preflight(self, query: Query, view_name: str):
        """Lint a query against the view DTD, for inspection.

        Runs the query-scope lint rules and returns the
        :class:`~repro.lint.DiagnosticReport`.  ``MIX101`` (an error)
        is reported exactly when :meth:`query_view` would answer with
        the empty view without any source fan-out: both decide with the
        simplifier's one classification.  Answering never runs lint.
        """
        from ..lint import lint_query

        registration = self._view(view_name)
        return lint_query(query, registration.dtd, mode=self.mode)

    def query_view(
        self,
        query: Query,
        view_name: str,
        use_simplifier: bool = True,
        strategy: str = "auto",
        deadline: Deadline | None = None,
        degrade: bool = True,
    ) -> Document:
        """Answer a query posed against a mediated view.

        With the simplifier on, the query is classified against the
        view DTD first: an unsatisfiable query is answered with the
        empty view without materializing anything (recording the
        skipped fan-out), and valid sub-conditions are pruned.
        ``use_simplifier=False`` measures the un-assisted path.

        ``strategy`` selects the execution plan:

        * ``"auto"`` -- compose the query with the view definition into
          a direct source query when the pair is composable (the
          TSIMMIS rewriting step of Section 1), otherwise materialize;
        * ``"compose"`` -- composition only; raises when not composable;
        * ``"materialize"`` -- always evaluate over the materialized view.

        :meth:`explain` reports the plan this method runs for the same
        ``use_simplifier`` and ``strategy``.

        Source calls go through the fault-tolerant transport under
        ``deadline`` (a shared budget; see :meth:`deadline`).  When
        the source fails permanently and ``degrade`` is true, the
        empty answer is returned instead and ``last_degradation``
        records the skipped source; ``degrade=False`` propagates the
        :class:`SourceTimeout` / :class:`SourceUnavailable` instead
        (docs/RELIABILITY.md).

        Ad-hoc answers are never cached (``last_cache_outcome`` is
        ``"off"``): the matview cache holds union views only.
        """
        registration = self._view(view_name)
        self._count(queries=1)
        self.last_degradation = None
        self.last_cache_outcome = "off"
        with obs.span("mediator.query_view") as sp:
            sp.set_attribute("view", view_name)
            plan = self._plan(query, view_name, use_simplifier, strategy)
            if plan.strategy == "empty-answer":
                self._count(
                    preflight_rejections=1,
                    fanouts_skipped=1,
                    answered_without_source=1,
                )
                sp.set_attribute("outcome", "preflight_rejected")
                return _empty_answer(query.view_name)
            self._count(conditions_pruned=plan.pruned_nodes)
            try:
                if plan.composed_query is not None:
                    self._count(composed=1)
                    sp.set_attribute("outcome", "composed")
                    return self._call_source(
                        registration.source_name, plan.composed_query, deadline
                    )
                sp.set_attribute("outcome", "materialized")
                materialized = self.materialize(view_name, deadline)
                return evaluate_many(plan.effective_query, [materialized])
            except (SourceTimeout, SourceUnavailable) as error:
                if not degrade:
                    raise
                sp.set_attribute("outcome", "degraded")
                sp.add_event(
                    "degraded",
                    source=registration.source_name,
                    code=error.code,
                )
                return self._degraded_empty_answer(
                    query.view_name, registration.source_name, error
                )

    def _plan(
        self, query: Query, view_name: str, use_simplifier: bool, strategy: str
    ) -> "QueryPlan":
        """Decide how :meth:`query_view` answers a query; touches no source.

        With the simplifier on, the query is classified once: an
        unsatisfiable one gets the ``empty-answer`` plan, and any other
        is pruned.  Then ``strategy`` picks ``compose`` (when the query
        composes with the view definition) or ``materialize``; the
        ``compose`` strategy raises when the pair is not composable.
        """
        if strategy not in ("auto", "compose", "materialize"):
            raise MediatorError(f"unknown strategy {strategy!r}")
        registration = self._view(view_name)
        plan = QueryPlan(
            view_name=view_name,
            classification=None,
            pruned_nodes=0,
            strategy="materialize",
            composed_query=None,
            effective_query=query,
        )
        if use_simplifier:
            decision = simplify_query(query, registration.dtd, self.mode)
            plan.classification = decision.classification
            if decision.answer_is_empty:
                plan.strategy = "empty-answer"
                return plan
            plan.pruned_nodes = decision.pruned_nodes
            plan.effective_query = decision.query
        if strategy != "materialize":
            from .composition import compose_query

            source = self.sources[registration.source_name]
            plan.composed_query = compose_query(
                registration.query, plan.effective_query, source.dtd
            )
            if plan.composed_query is not None:
                plan.strategy = "compose"
            elif strategy == "compose":
                raise MediatorError(
                    "query is not composable with the view definition"
                )
        return plan

    def _count(self, **increments: int) -> None:
        """Add to ``stats`` counters under the lock (one mediator
        answers many ``repro serve`` handler threads, and an unguarded
        ``+=`` loses increments)."""
        with self._stats_lock:
            for name, amount in increments.items():
                setattr(self.stats, name, getattr(self.stats, name) + amount)

    def _degraded_empty_answer(
        self, answer_name: str, source_name: str, error: MediatorError
    ) -> Document:
        """The degraded answer when a view's only source is down.

        A single-source view has nothing partial to offer, so the
        degraded answer is empty; the annotation (which source was
        skipped and why) is the point.  Ad-hoc client answers carry no
        published DTD, so there is nothing to validate here — view
        materializations go through the validating union path instead.
        """
        report = DegradationReport(
            view_name=answer_name,
            skipped={source_name: f"{error.code}: {error}"},
        )
        self._count(degraded_answers=1)
        self.last_degradation = report
        return _empty_answer(answer_name)

    def as_source(self, view_name: str) -> Source:
        """Export a view as a source for a higher-level mediator.

        The exported source's DTD is the inferred view DTD -- this is
        exactly what makes mediator stacking work: "it is important
        that the lower level mediators can derive and provide their
        view DTDs to the higher level ones" (Section 1).
        """
        registration = self._view(view_name)
        document = self.materialize(view_name)
        return Source(
            name=f"{self.name}.{view_name}",
            dtd=registration.dtd,
            documents=[document],
        )

    def explain(
        self,
        query: Query,
        view_name: str,
        use_simplifier: bool = True,
        strategy: str = "auto",
    ) -> "QueryPlan":
        """Describe how :meth:`query_view` answers a query against a view.

        Builds the very plan :meth:`query_view` runs for the same
        ``use_simplifier`` and ``strategy``, without touching any
        source -- the "query processor derives more efficient plans"
        story of Section 1, made inspectable -- and adds the source's
        transport health.  The planning work runs under a ``repro.obs``
        span (a scoped tracer is installed when none is active), and
        the rendered span tree is attached as
        :attr:`QueryPlan.trace_lines` -- ``describe()`` shows where the
        plan's time and decisions went.
        """

        def build() -> QueryPlan:
            plan = self._plan(query, view_name, use_simplifier, strategy)
            transport = self.transports.get(self._view(view_name).source_name)
            plan.source_health = [transport.health()] if transport else []
            return plan

        return self._traced_plan(view_name, build)

    def _traced_plan(self, view_name: str, build) -> "QueryPlan":
        """Run ``build`` under a ``mediator.explain`` span and attach the
        rendered span tree (a scoped tracer when none is active)."""
        with contextlib.ExitStack() as scope:
            if not obs.enabled():
                scope.enter_context(obs.traced(clock=self.clock))
            with obs.span("mediator.explain") as sp:
                sp.set_attribute("view", view_name)
                plan = build()
                sp.set_attribute("strategy", plan.strategy)
                sp.set_attribute("cache", plan.cache_status)
        plan.trace_lines = sp.render().splitlines()
        return plan

    def explain_union(self, view_name: str) -> "QueryPlan":
        """Describe how a union-view materialization would be served.

        The union counterpart of :meth:`explain`: reports the fan-out
        shape, per-source transport health, and -- with a configured
        cache -- what the materialized-view cache would do right now
        (``hit``, ``delta``, ``recompute``, or ``cold``) without
        touching any source or mutating the cache.
        """
        registration = self._union_view(view_name)

        def build() -> QueryPlan:
            cache_status = "off"
            if self.matview is not None:
                cache_status = self.matview.peek(view_name)
            return QueryPlan(
                view_name=view_name,
                classification=None,
                pruned_nodes=0,
                strategy="union-fanout",
                composed_query=None,
                effective_query=None,
                source_health=[
                    self.transports[name].health()
                    for name in registration.source_names
                ],
                cache_status=cache_status,
            )

        return self._traced_plan(view_name, build)

    # -- union views -------------------------------------------------------

    def register_union_view(
        self, queries: list[Query], view_name: str
    ) -> "UnionViewRegistration":
        """Register a view unioning picks from several sources.

        Each query's ``source`` field names its source.  The combined
        view DTD is inferred per branch and merged (name collisions
        across sources become specializations -- see
        :mod:`repro.inference.union`).
        """
        from ..inference.union import UnionBranch, infer_union_view_dtd

        if view_name in self.views or view_name in self.union_views:
            raise MediatorError(f"view {view_name!r} already registered")
        branches: list[UnionBranch] = []
        source_names: list[str] = []
        for query in queries:
            if query.source is None:
                raise MediatorError(
                    "every union branch must name its source"
                )
            if query.source not in self.sources:
                raise MediatorError(f"unknown source {query.source!r}")
            branches.append(
                UnionBranch(self.sources[query.source].dtd, query)
            )
            source_names.append(query.source)
            compile_query(query)  # kept on the query for serving
        inference = infer_union_view_dtd(branches, view_name, self.mode)
        registration = UnionViewRegistration(
            view_name,
            branches,
            source_names,
            inference,
            tuple(
                CacheLeg(self.sources[name], query)
                for name, query in zip(source_names, queries)
            ),
        )
        self.union_views[view_name] = registration
        return registration

    def materialize_union(
        self,
        view_name: str,
        deadline: Deadline | None = None,
        degrade: bool = True,
        cache: bool = True,
    ) -> Document:
        """Evaluate a union view across its sources (fault-tolerant).

        Each branch is one fan-out leg through its source's transport;
        all legs share ``deadline``.  The legs go out through the
        mediator's :class:`~repro.mediator.parallel.ParallelTransport`:
        with a :class:`FanoutPolicy` they run concurrently — a union
        over N sources costs the max, not the sum, of their latencies —
        and with ``fanout=None`` they run inline
        (:data:`~repro.mediator.parallel.INLINE`).
        Either way the answer (picks in branch order), the degradation
        report, and the ``degrade=False`` error (the first failing
        branch in branch order) are the same.

        When a leg fails permanently and ``degrade`` is true, its
        branch is skipped and the *partial* answer — the surviving
        branches' picks, in branch order — is returned, annotated in
        ``last_degradation``.  The partial answer is validated against
        the inferred union view DTD first: if dropping the branch
        would make the answer violate the view DTD the mediator raises
        :class:`DegradedAnswer` rather than return an unsound document
        (the soundness argument is spelled out in
        docs/RELIABILITY.md).

        With a cache (``Mediator(cache=MatViewPolicy())``),
        repeat materializations of an unchanged federation are served
        from the cache without touching any source, and a mutation
        localized to one source document is delta-spliced instead of
        recomputed; ``cache=False`` bypasses the cache for this one
        request (``MED006``).  Degraded answers are never cached.  See
        docs/PERFORMANCE.md.
        """
        registration = self._union_view(view_name)
        self.last_degradation = None
        mv = self.matview
        token = None
        if mv is None:
            self.last_cache_outcome = "off"
        elif not cache:
            mv.note_bypass()
            self.last_cache_outcome = "bypass"
        else:
            probe = mv.probe(view_name, registration.dtd, registration.legs)
            self.last_cache_outcome = probe.status
            if probe.answer is not None:
                return probe.answer
            token = probe.token
        report = DegradationReport(view_name=view_name)
        picks: list = []
        first_error: MediatorError | None = None
        with obs.span("mediator.materialize_union") as sp:
            sp.set_attribute("view", view_name)
            sp.set_attribute("sources", len(registration.source_names))
            results = self.parallel.fan_out(
                [
                    (
                        source_name,
                        functools.partial(
                            self._call_source,
                            source_name,
                            branch.query,
                            deadline,
                        ),
                        self.transports[source_name].latency,
                    )
                    for branch, source_name in zip(
                        registration.branches, registration.source_names
                    )
                ]
            )
            for result in results:
                error = result.error
                if error is not None:
                    if not degrade:
                        raise error
                    if first_error is None:
                        first_error = error
                    report.skipped[result.source] = f"{error.code}: {error}"
                    sp.add_event(
                        "leg.skipped", source=result.source, code=error.code
                    )
                    continue
                report.answered.append(result.source)
                picks.extend(result.answer.root.children)
            document = Document(Element(view_name, picks, fresh_id()))
            sp.set_attribute("degraded", report.degraded)
            sp.set_attribute("answered", len(report.answered))
            sp.set_attribute("skipped", len(report.skipped))
            if report.degraded:
                report.answer_valid = validate_document(
                    document, registration.dtd
                ).ok
                sp.set_attribute("answer_valid", report.answer_valid)
                if not report.answer_valid:
                    raise DegradedAnswer(
                        f"view {view_name!r}: skipping "
                        f"{sorted(report.skipped)} leaves an answer that "
                        "violates the inferred view DTD; refusing to degrade",
                        document=document,
                        report=report,
                    ) from first_error
                self._count(degraded_answers=1)
                self.last_degradation = report
            if token is not None and not report.skipped:
                assert mv is not None
                mv.store(
                    token,
                    document,
                    [result.answer.pick_counts for result in results],
                )
        return document

    def _union_view(self, view_name: str) -> "UnionViewRegistration":
        try:
            return self.union_views[view_name]
        except KeyError:
            raise MediatorError(f"unknown union view {view_name!r}")

    def _view(self, view_name: str) -> ViewRegistration:
        try:
            return self.views[view_name]
        except KeyError:
            raise MediatorError(f"unknown view {view_name!r}")


def _empty_answer(name: str) -> Document:
    """An answer with no picks (rejected, provably empty, or degraded)."""
    return Document(Element(name, [], fresh_id()))
