"""Built-in federations for ``repro serve`` / ``repro bench-serve``.

Two servable workloads, both unions so the parallel fan-out and the
admission controller have real work to do:

* ``flaky`` -- the :mod:`repro.workloads.flaky` federation on the
  system clock, with injected per-call latency and the standard fault
  plans (healthy first site, flaky middle, dead last): requests come
  back degraded, breakers trip, and the serving behaviors worth
  demonstrating — retries under deadline, degraded answers, shedding —
  all occur live.
* ``paper`` -- healthy sources exporting the paper's department schema
  (D1, Example 3.1) with generated documents: a clean-room workload
  for measuring serving overhead and parallel speedup without fault
  noise.
* ``bibdb`` -- the bibliography federation from
  :mod:`repro.workloads.bibdb`.  With ``--shards N`` every site
  becomes a :class:`~repro.mediator.ShardedSource` of ``N`` fragment-
  DTD-typed shards, so the served view exercises fragmentation-aware
  pruning and scatter-gather end to end (docs/SHARDING.md).
"""

from __future__ import annotations

import random

from ..dtd import generate_document
from ..mediator import (
    FanoutPolicy,
    FaultPlan,
    MatViewPolicy,
    Mediator,
    Source,
    TransportPolicy,
)
from ..workloads import paper as paper_workload
from ..workloads.flaky import build_flaky_federation, standard_fault_plans
from ..xmas import parse_query

SERVE_WORKLOADS = ("flaky", "paper", "bibdb")
#: every built-in workload serves this union view
VIEW_NAME = "journals"


def _paper_branch_query(source_name: str):
    return parse_query(
        f"""
        {VIEW_NAME} = SELECT P
        WHERE <department> <professor>
                P:<publication><journal/></publication>
              </> </>
        """,
        source=source_name,
    )


def build_paper_federation(
    n_sources: int = 3,
    n_docs: int = 2,
    seed: int = 7,
    policy: TransportPolicy | None = None,
    fanout: FanoutPolicy | None = None,
    cache: MatViewPolicy | None = None,
    store_path: str | None = None,
) -> Mediator:
    """A healthy union federation over the paper's D1 schema.

    With ``store_path`` the corpus is persistent: sources load their
    documents from that :class:`~repro.store.DocumentStore` (ingesting
    the generated documents on the first run), so a restarted server
    warm-starts from the stored preorder arrays instead of
    re-generating and re-indexing -- ``repro serve --store PATH``.
    """
    schema = paper_workload.d1()
    rng = random.Random(seed)
    mediator = Mediator(
        "paper-federation", policy=policy, fanout=fanout, cache=cache
    )
    store = None
    if store_path is not None:
        from ..store import DocumentStore

        store = DocumentStore(store_path)
    queries = []
    for i in range(n_sources):
        name = f"dept{i}"
        if store is not None:
            documents = store.documents(source=name)
            while len(documents) < n_docs:
                documents.append(
                    store.ingest_document(
                        generate_document(schema, rng), source=name
                    )
                )
            source = Source(name, schema, [], validate=False)
            source.documents.extend(documents[:n_docs])
        else:
            source = Source(
                name,
                schema,
                [generate_document(schema, rng) for _ in range(n_docs)],
                validate=False,
            )
        mediator.add_source(source)
        queries.append(_paper_branch_query(name))
    mediator.register_union_view(queries, VIEW_NAME)
    return mediator


def build_serve_workload(
    workload: str,
    n_sources: int = 3,
    n_docs: int = 2,
    seed: int = 7,
    latency: float = 0.0,
    policy: TransportPolicy | None = None,
    fanout: FanoutPolicy | None = None,
    cache: MatViewPolicy | None = None,
    shards: int = 0,
    store_path: str | None = None,
) -> Mediator:
    """The mediator behind ``repro serve --workload <name>``.

    ``latency`` (seconds) is the injected per-call latency of the
    flaky workload's sites — real sleeps on the system clock, so the
    parallel speedup is observable from a client.  The paper workload
    ignores it (healthy in-process sources answer at memory speed).
    ``cache`` wires a materialized-view answer cache into the mediator
    so repeat requests for an unchanged federation skip the fan-out.
    ``shards`` > 0 selects the sharded bibdb federation (each site
    split into that many fragment-typed shards); it only applies to
    the ``bibdb`` workload.  ``store_path`` backs the paper workload's
    corpus with a persistent :class:`~repro.store.DocumentStore`
    (first run ingests, later runs warm-start); it only applies to the
    ``paper`` workload.
    """
    if shards > 0 and workload != "bibdb":
        raise ValueError(
            f"--shards only applies to the bibdb workload, not {workload!r}"
        )
    if store_path is not None and workload != "paper":
        raise ValueError(
            f"--store only applies to the paper workload, not {workload!r}"
        )
    if workload == "flaky":
        from ..mediator import SystemClock

        plans = standard_fault_plans(n_sources)
        if latency > 0:
            plans = {
                name: FaultPlan(
                    error_rate=plan.error_rate,
                    seed=plan.seed,
                    dead=plan.dead,
                    latency=latency,
                    latency_jitter=latency / 2,
                )
                for name, plan in plans.items()
            }
        return build_flaky_federation(
            SystemClock(),
            policy=policy,
            n_sources=n_sources,
            n_docs=n_docs,
            plans=plans,
            seed=seed,
            fanout=fanout,
            cache=cache,
        )
    if workload == "paper":
        return build_paper_federation(
            n_sources=n_sources,
            n_docs=n_docs,
            seed=seed,
            policy=policy,
            fanout=fanout,
            cache=cache,
            store_path=store_path,
        )
    if workload == "bibdb":
        from ..workloads import bibdb

        if shards > 0:
            return bibdb.sharded_federation(
                n_sources=n_sources,
                n_shards=shards,
                n_docs=max(n_docs, shards),
                seed=seed,
                view_name=VIEW_NAME,
                policy=policy,
                fanout=fanout,
                cache=cache,
            )
        return bibdb.union_federation(
            n_sources=n_sources,
            n_docs=n_docs,
            seed=seed,
            view_name=VIEW_NAME,
            policy=policy,
            fanout=fanout,
            cache=cache,
        )
    raise ValueError(
        f"unknown serve workload {workload!r} "
        f"(expected one of {SERVE_WORKLOADS})"
    )
