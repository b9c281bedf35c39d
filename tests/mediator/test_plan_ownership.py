"""A compiled plan belongs to the query object that owns it.

``compile_query`` keeps each plan on its query, with no process-wide
plan table.  So a registered view compiles once, at registration, and
its answers never recompile; an ad-hoc query compiles once, however
many shard legs it fans out to; and a long-lived mediator answering
ever-new ad-hoc queries keeps none of their plans.
"""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.mediator import MatViewPolicy, Mediator
from repro.workloads import bibdb
from repro.xmas import Query, parse_query
from repro.xmas.engine import CompiledPlan

VIEW = "journalArticles"
UNION = "allJournalArticles"


def federation(cache=None) -> Mediator:
    """Two sharded bibliography sites: a union over both, and one
    registered view on the first for ad-hoc queries."""
    mediator = Mediator("plans", cache=cache)
    for name in ("bib0", "bib1"):
        mediator.add_source(
            bibdb.sharded_source(name, n_docs=8, n_shards=4, journal_fraction=0.5)
        )
    mediator.register_union_view(
        [bibdb.branch_journal_query(name, UNION) for name in ("bib0", "bib1")],
        UNION,
    )
    mediator.register_view(bibdb.branch_journal_query("bib0", VIEW))
    return mediator


def ad_hoc(constant: str) -> Query:
    return parse_query(
        f"SELECT X WHERE <{VIEW}> X:<article><title>{constant}</></article> </>"
    )


def compiles(tracer) -> int:
    return len(tracer.find("engine.compile"))


@pytest.mark.parametrize("cache", [None, MatViewPolicy()], ids=["uncached", "matview"])
def test_a_registered_union_request_compiles_nothing(cache):
    mediator = federation(cache)
    with obs.traced() as tracer:
        for _ in range(3):
            answer = mediator.materialize_union(UNION)
    assert answer.root.content
    assert compiles(tracer) == 0


def test_an_ad_hoc_query_compiles_once_across_its_shard_legs():
    mediator = federation()
    # pages are optional, so the simplifier keeps the condition and the
    # composed query is a new object: it must compile, once
    client = parse_query(f"SELECT X WHERE <{VIEW}> X:<article><pages/></article> </>")
    with obs.traced() as tracer:
        answer = mediator.query_view(client, VIEW)
    assert answer.root.content
    legs = sum(span.attributes["legs"] for span in tracer.find("shard.gather"))
    assert legs >= 2
    assert compiles(tracer) == 1


def live_plans() -> tuple[int, int]:
    """``(queries, compiled plans)`` alive in the process."""
    gc.collect()
    queries = plans = 0
    for obj in gc.get_objects():
        if isinstance(obj, Query):
            queries += 1
        elif isinstance(obj, CompiledPlan):
            plans += 1
    return queries, plans


def test_distinct_ad_hoc_queries_leave_nothing_behind():
    mediator = federation()
    for index in range(20):
        mediator.query_view(ad_hoc(f"warm{index}"), VIEW)
    before = live_plans()
    for index in range(2000):
        mediator.query_view(ad_hoc(f"t{index}"), VIEW)
    assert live_plans() == before
