"""The flaky-federation workload: multi-source fan-out under faults.

A parameterized federation of bibliography sites (the "100 sites" of
the paper's Section 1) used by the resilience tests, the
``benchmarks/bench_faults.py`` ladder, and
``examples/flaky_federation.py``: every site exports the same schema,
each through its own wrapper, and wrappers misbehave on seeded
:class:`~repro.mediator.faults.FaultPlan` schedules.

The site schema is chosen so each union branch's contribution to the
view list type is *starred* (a site may have zero qualifying
publications), which is exactly the condition under which a degraded
answer — a branch skipped entirely — still validates against the
inferred union view DTD (docs/RELIABILITY.md).
"""

from __future__ import annotations

import random

from ..dtd import Dtd, dtd, generate_document
from ..mediator import (
    Clock,
    FanoutPolicy,
    FaultPlan,
    FaultySource,
    MatViewPolicy,
    Mediator,
    TransportPolicy,
)
from ..xmas import Query, parse_query
from ..xmlmodel import Document


def site_schema() -> Dtd:
    """The schema every federation site exports."""
    return dtd(
        {
            "site": "name, entry*",
            "entry": "publication*",
            "publication": "title, author+, journal?",
            "name": "#PCDATA",
            "title": "#PCDATA",
            "author": "#PCDATA",
            "journal": "#PCDATA",
        },
        root="site",
    )


def branch_query(source_name: str, view_name: str = "journals") -> Query:
    """One union branch: pick the journal publications of one site."""
    return parse_query(
        f"""
        {view_name} = SELECT P
        WHERE <site> <entry>
                P:<publication><journal/></publication>
              </> </>
        """,
        source=source_name,
    )


def federation_branches(
    n_sources: int = 3,
    n_docs: int = 2,
    seed: int = 7,
    star_mean: float = 2.0,
) -> list[tuple[str, Dtd, list[Document], Query]]:
    """``(source_name, dtd, documents, branch_query)`` per site."""
    rng = random.Random(seed)
    schema = site_schema()
    branches = []
    for i in range(n_sources):
        name = f"site{i}"
        documents = [
            generate_document(schema, rng, star_mean=star_mean)
            for _ in range(n_docs)
        ]
        branches.append((name, schema, documents, branch_query(name)))
    return branches


def standard_fault_plans(
    n_sources: int = 3, error_rate: float = 0.3, seed: int = 42
) -> dict[str, FaultPlan]:
    """The acceptance scenario's plans: flaky middle, dead last site.

    ``site0`` is healthy; every middle site errors at ``error_rate``
    (seeded, so retried calls deterministically succeed eventually);
    the last site is permanently dead and will trip its breaker.
    """
    plans: dict[str, FaultPlan] = {"site0": FaultPlan()}
    for i in range(1, n_sources - 1):
        plans[f"site{i}"] = FaultPlan(error_rate=error_rate, seed=seed + i)
    if n_sources > 1:
        plans[f"site{n_sources - 1}"] = FaultPlan(dead=True)
    return plans


def build_flaky_federation(
    clock: Clock,
    policy: TransportPolicy | None = None,
    n_sources: int = 3,
    n_docs: int = 2,
    plans: dict[str, FaultPlan] | None = None,
    view_name: str = "journals",
    seed: int = 7,
    fanout: FanoutPolicy | None = None,
    cache: MatViewPolicy | None = None,
) -> Mediator:
    """A ready-to-query federation of :class:`FaultySource` sites.

    Registers the ``view_name`` union view over ``n_sources`` sites
    whose wrappers follow ``plans`` (default:
    :func:`standard_fault_plans`).  Deterministic for fixed seeds and
    a :class:`~repro.mediator.FakeClock` — including with a
    ``fanout`` policy, which fans the union legs out on the parallel
    transport (virtual-time scheduled under the fake clock).
    """
    if plans is None:
        plans = standard_fault_plans(n_sources)
    mediator = Mediator(
        "federation", policy=policy, clock=clock, fanout=fanout, cache=cache
    )
    queries = []
    for name, schema, documents, query in federation_branches(
        n_sources, n_docs, seed=seed
    ):
        mediator.add_source(
            FaultySource(
                name,
                schema,
                documents,
                plan=plans.get(name, FaultPlan()),
                clock=clock,
                validate=False,
            )
        )
        queries.append(query)
    mediator.register_union_view(queries, view_name)
    return mediator
