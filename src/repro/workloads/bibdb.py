"""A realistic DBLP-style bibliography workload.

The paper's department schema is small; real mediation targets of the
era (DBLP, SIGMOD Record, publisher sites) are wider and deeper.  This
workload provides a 32-name bibliography schema with the structural
variety the algorithms must handle -- optional blocks, nested
repetition, disjunctions at several levels -- plus a family of
realistic view definitions and a corpus generator.  Used by the
scaling benchmarks and available for examples.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..dtd import Dtd, dtd, generate_document
from ..xmas import Query, parse_query
from ..xmlmodel import Document

if TYPE_CHECKING:
    from ..mediator import (
        Clock,
        FanoutPolicy,
        MatViewCache,
        MatViewPolicy,
        Mediator,
        ShardedSource,
        TransportPolicy,
    )


def bibdb_dtd() -> Dtd:
    """A DBLP-like bibliography schema (32 element names)."""
    return dtd(
        {
            "bibdb": "meta, venue+, personIndex?",
            "meta": "dbName, release, curator*",
            "venue": "venueName, (journalInfo | conferenceInfo), volume+",
            "journalInfo": "publisher, issn?",
            "conferenceInfo": "location, series?",
            "volume": "volLabel, issue+",
            "issue": "issueLabel?, article+",
            "article": (
                "title, author+, pages?, abstract?, "
                "(doi | url)?, citation*"
            ),
            "citation": "refTitle, refAuthor*",
            "personIndex": "person*",
            "person": "fullName, affiliation?, alias*",
            # leaves
            "dbName": "#PCDATA",
            "release": "#PCDATA",
            "curator": "#PCDATA",
            "venueName": "#PCDATA",
            "publisher": "#PCDATA",
            "issn": "#PCDATA",
            "location": "#PCDATA",
            "series": "#PCDATA",
            "volLabel": "#PCDATA",
            "issueLabel": "#PCDATA",
            "title": "#PCDATA",
            "author": "#PCDATA",
            "pages": "#PCDATA",
            "abstract": "#PCDATA",
            "doi": "#PCDATA",
            "url": "#PCDATA",
            "refTitle": "#PCDATA",
            "refAuthor": "#PCDATA",
            "fullName": "#PCDATA",
            "affiliation": "#PCDATA",
            "alias": "#PCDATA",
        },
        root="bibdb",
    )


def _fragment_venue_dtd(venue_model: str, drop: frozenset[str]) -> Dtd:
    """The bibdb schema with a restricted ``venue`` model (fragment DTD)."""
    models = {
        "bibdb": "meta, venue+, personIndex?",
        "meta": "dbName, release, curator*",
        "venue": venue_model,
        "journalInfo": "publisher, issn?",
        "conferenceInfo": "location, series?",
        "volume": "volLabel, issue+",
        "issue": "issueLabel?, article+",
        "article": (
            "title, author+, pages?, abstract?, (doi | url)?, citation*"
        ),
        "citation": "refTitle, refAuthor*",
        "personIndex": "person*",
        "person": "fullName, affiliation?, alias*",
        **{
            leaf: "#PCDATA"
            for leaf in (
                "dbName", "release", "curator", "venueName",
                "publisher", "issn", "location", "series", "volLabel",
                "issueLabel", "title", "author", "pages", "abstract",
                "doi", "url", "refTitle", "refAuthor", "fullName",
                "affiliation", "alias",
            )
        },
    }
    return dtd(
        {
            name: model
            for name, model in models.items()
            if name not in drop
        },
        root="bibdb",
    )


def journal_fragment_dtd() -> Dtd:
    """The fragment DTD of a journal-only bibliography shard.

    A proper specialization of :func:`bibdb_dtd`: ``venue`` loses the
    ``conferenceInfo`` alternative (and the conference leaves are not
    declared at all), so queries touching conference structure are
    statically prunable against shards typed by this DTD.
    """
    return _fragment_venue_dtd(
        "venueName, journalInfo, volume+",
        drop=frozenset(("conferenceInfo", "location", "series")),
    )


def conference_fragment_dtd() -> Dtd:
    """The fragment DTD of a conference-only bibliography shard.

    The mirror image of :func:`journal_fragment_dtd`: ``journalInfo``
    (and its leaves) are undeclared, so the DOI'd-journal-articles
    views prune these shards without a single call.
    """
    return _fragment_venue_dtd(
        "venueName, conferenceInfo, volume+",
        drop=frozenset(("journalInfo", "publisher", "issn")),
    )


def journal_articles_view() -> Query:
    """Articles published in journal venues, with a DOI."""
    return parse_query(
        """
        journalArticles =
          SELECT A
          WHERE <bibdb>
                  <venue>
                    <journalInfo/>
                    <volume>
                      <issue>
                        A:<article><doi/></article>
                      </>
                    </>
                  </>
                </>
        """
    )


def cited_articles_view() -> Query:
    """Articles that cite at least two other works."""
    return parse_query(
        """
        wellCited =
          SELECT A
          WHERE <bibdb>
                  <venue>
                    <volume>
                      <issue>
                        A:<article>
                          <citation id=C1/>
                          <citation id=C2/>
                        </>
                      </>
                    </>
                  </>
                </>
          AND C1 != C2
        """
    )


def people_view() -> Query:
    """Indexed people with an affiliation."""
    return parse_query(
        """
        affiliated =
          SELECT P
          WHERE <bibdb>
                  <personIndex>
                    P:<person><affiliation/></person>
                  </>
                </>
        """
    )


def all_views() -> list[Query]:
    """The workload's view suite."""
    return [journal_articles_view(), cited_articles_view(), people_view()]


def lint_workload() -> list[tuple[str, Dtd, Query]]:
    """Labelled (DTD, query) pairs for ``repro lint --workload bibdb``."""
    schema = bibdb_dtd()
    return [(query.view_name, schema, query) for query in all_views()]


def branch_journal_query(
    source_name: str, view_name: str = "journalArticles"
) -> Query:
    """One union branch of :func:`union_federation`: DOI'd journal
    articles of one bibliography site."""
    return parse_query(
        f"""
        {view_name} =
          SELECT A
          WHERE <bibdb>
                  <venue>
                    <journalInfo/>
                    <volume>
                      <issue>
                        A:<article><doi/></article>
                      </>
                    </>
                  </>
                </>
        """,
        source=source_name,
    )


def union_federation(
    n_sources: int = 4,
    n_docs: int = 8,
    seed: int = 7,
    star_mean: float = 1.4,
    view_name: str = "journalArticles",
    clock: "Clock | None" = None,
    policy: "TransportPolicy | None" = None,
    fanout: "FanoutPolicy | None" = None,
    cache: "MatViewPolicy | MatViewCache | None" = None,
) -> "Mediator":
    """A healthy union federation of bibliography sites.

    Every site exports an independent :func:`corpus` under the shared
    :func:`bibdb_dtd`; the ``view_name`` union view picks each site's
    DOI'd journal articles.  The selective pick (most articles lack a
    DOI) makes this the matview benchmark workload: answers are much
    smaller than the corpus, so cache hits and delta splices are cheap
    next to a full re-evaluation.
    """
    from ..mediator import Mediator, Source

    mediator = Mediator(
        "bibdb-federation",
        policy=policy,
        clock=clock,
        fanout=fanout,
        cache=cache,
    )
    schema = bibdb_dtd()
    queries = []
    for i in range(n_sources):
        name = f"bib{i}"
        rng = random.Random(seed + i)
        documents = corpus(n_docs, rng, star_mean=star_mean)
        mediator.add_source(
            Source(name, schema, documents, validate=False)
        )
        queries.append(branch_journal_query(name, view_name))
    mediator.register_union_view(queries, view_name)
    return mediator


def sharded_source(
    name: str,
    n_docs: int = 16,
    n_shards: int = 4,
    seed: int = 7,
    journal_fraction: float = 0.125,
    star_mean: float = 1.4,
    clock: "Clock | None" = None,
    fanout: "FanoutPolicy | None" = None,
) -> "ShardedSource":
    """A content-aware sharding of one bibliography site.

    The corpus mixes ``journal_fraction`` journal-only documents
    (generated under :func:`journal_fragment_dtd`) with conference-only
    documents (:func:`conference_fragment_dtd`), journal documents
    first, and partitions it contiguously into ``n_shards`` fragments.
    A shard holding only journal (or only conference) documents is
    typed by the matching fragment DTD; a mixed shard falls back to
    the full logical DTD.  As the shard count grows the journal
    documents concentrate into fewer, purer shards — exactly the
    regime where the DOI'd-journal-articles views prune the conference
    shards statically (``benchmarks/bench_sharding.py`` runs this as
    the 1→64 ladder).
    """
    from ..mediator import ShardedSource, Source, partition_documents

    schema = bibdb_dtd()
    journal_dtd = journal_fragment_dtd()
    conference_dtd = conference_fragment_dtd()
    rng = random.Random(seed)
    n_journal = max(1, round(n_docs * journal_fraction))
    documents = [
        _fragment_document(journal_dtd, rng, star_mean)
        for _ in range(n_journal)
    ] + [
        _fragment_document(conference_dtd, rng, star_mean)
        for _ in range(n_docs - n_journal)
    ]
    kinds = ["journal"] * n_journal + ["conference"] * (n_docs - n_journal)
    shards = []
    for index, (chunk, chunk_kinds) in enumerate(
        zip(
            partition_documents(documents, n_shards),
            partition_documents(kinds, n_shards),
        )
    ):
        kind_set = set(chunk_kinds)
        if kind_set == {"journal"}:
            fragment_dtd = journal_dtd
        elif kind_set == {"conference"}:
            fragment_dtd = conference_dtd
        else:
            fragment_dtd = schema
        shards.append(
            Source(
                f"{name}/s{index}", fragment_dtd, chunk, validate=False
            )
        )
    return ShardedSource(
        name,
        schema,
        shards,
        clock=clock,
        fanout=fanout,
        validate=False,
    )


def _fragment_document(
    fragment_dtd: Dtd, rng: random.Random, star_mean: float
) -> Document:
    """One corpus document valid under a venue-kind fragment DTD."""
    return generate_document(
        fragment_dtd,
        rng,
        star_mean=star_mean,
        string_pool=(
            "TODS", "TKDE", "VLDB J.", "ICDE", "SIGMOD",
            "Papakonstantinou", "Velikhov", "Widom", "Abiteboul",
            "10.1109/x", "1999", "San Diego",
        ),
    )


def sharded_federation(
    n_sources: int = 2,
    n_shards: int = 4,
    n_docs: int = 16,
    seed: int = 7,
    journal_fraction: float = 0.125,
    star_mean: float = 1.4,
    view_name: str = "journalArticles",
    clock: "Clock | None" = None,
    policy: "TransportPolicy | None" = None,
    fanout: "FanoutPolicy | None" = None,
    cache: "MatViewPolicy | MatViewCache | None" = None,
) -> "Mediator":
    """The :func:`union_federation` over sharded bibliography sites.

    Every site is a :func:`sharded_source` with ``n_shards`` fragments;
    the union view and its branch queries are identical to the
    unsharded federation, so the serving front end (``repro serve
    --shards N``) and the benchmarks compare like for like.
    ``policy`` is the one call policy of each logical site: the
    mediator's transport times, retries and breaks a site's whole
    gather, and no shard is called under a policy of its own.
    """
    from ..mediator import Mediator

    mediator = Mediator(
        "bibdb-federation",
        policy=policy,
        clock=clock,
        fanout=fanout,
        cache=cache,
    )
    queries = []
    for i in range(n_sources):
        name = f"bib{i}"
        mediator.add_source(
            sharded_source(
                name,
                n_docs=n_docs,
                n_shards=n_shards,
                seed=seed + i,
                journal_fraction=journal_fraction,
                star_mean=star_mean,
                clock=clock,
                fanout=fanout,
            )
        )
        queries.append(branch_journal_query(name, view_name))
    mediator.register_union_view(queries, view_name)
    return mediator


def corpus(
    n_documents: int,
    rng: random.Random,
    star_mean: float = 1.4,
) -> list[Document]:
    """A random bibliography corpus valid under :func:`bibdb_dtd`."""
    schema = bibdb_dtd()
    return [
        generate_document(
            schema,
            rng,
            star_mean=star_mean,
            string_pool=(
                "TODS", "TKDE", "VLDB J.", "ICDE", "SIGMOD",
                "Papakonstantinou", "Velikhov", "Widom", "Abiteboul",
                "10.1109/x", "1999", "San Diego",
            ),
        )
        for _ in range(n_documents)
    ]
