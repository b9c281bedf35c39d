"""Seeded inputs for the benchmark: bibliography documents as XML text.

The generator owns every size that a latency depends on.  Random
document samplers vary a document's element count by roughly its own
mean, so two seeds would give corpora (and answers) of very different
sizes and the run-to-run spread would measure the seed, not the
program.  Here the tree shape is fixed by the layout below and only the
small per-article choices (authors, citations, optional fields, leaf
strings) come from the seed, so a site's size moves by about 1% between
seeds while its content differs everywhere.

Every document is valid under ``repro.workloads.bibdb.bibdb_dtd()``;
journal-only and conference-only documents are also valid under the
matching fragment DTDs the sharded workloads type their shards with.
This module imports nothing from ``repro``: the program receives only
the text it writes (and, for ``store-mix``, the store file built from
that text).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: venues per document, volumes per venue, issues per volume, articles
#: per issue: 32 articles, about 400 elements per document
VENUES = 2
VOLUMES = 2
VOLUME_SIZE = 2
ARTICLES = 4
#: articles per journal issue that carry a DOI (the union view's picks)
DOIS = 1
PEOPLE = 6

_WORDS = (
    "mediator", "schema", "views", "query", "semistructured", "wrapper",
    "inference", "tightness", "union", "merge", "specialized", "sources",
    "integration", "document", "element", "pattern", "rewriting", "plans",
)
_NAMES = (
    "Papakonstantinou", "Velikhov", "Widom", "Abiteboul", "Garcia-Molina",
    "Ullman", "Suciu", "Buneman", "Milo", "Vianu", "Halevy", "Levy",
)
_VENUES = ("TODS", "TKDE", "VLDB J.", "ICDE", "SIGMOD", "PODS", "EDBT")
_PLACES = ("San Diego", "Sydney", "Rome", "Hong Kong", "Seattle", "Cairo")


@dataclass(frozen=True)
class Layout:
    """How many sites, documents and shards one federation has."""

    sites: int
    docs: int
    shards: int = 1
    #: leading documents per site that are journal-only (sharded
    #: layouts); 0 means every document has one journal venue and one
    #: conference venue
    journal_docs: int = 0

    @property
    def docs_per_shard(self) -> int:
        return self.docs // self.shards


def _title(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(4)).capitalize()


def _leaf(name: str, text: str) -> str:
    return f"<{name}>{text}</{name}>"


def _article(rng: random.Random, with_doi: bool) -> str:
    parts = [_leaf("title", _title(rng))]
    parts += [
        _leaf("author", rng.choice(_NAMES)) for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.5:
        start = rng.randint(1, 400)
        parts.append(_leaf("pages", f"{start}-{start + rng.randint(5, 30)}"))
    if rng.random() < 0.3:
        parts.append(_leaf("abstract", _title(rng) + " " + _title(rng)))
    if with_doi:
        parts.append(_leaf("doi", f"10.1109/{rng.randint(10000, 99999)}"))
    elif rng.random() < 0.5:
        parts.append(_leaf("url", f"http://dl.example/{rng.randint(1, 9999)}"))
    for _ in range(rng.randint(0, 3)):
        refs = "".join(
            _leaf("refAuthor", rng.choice(_NAMES))
            for _ in range(rng.randint(0, 2))
        )
        parts.append(
            f"<citation>{_leaf('refTitle', _title(rng))}{refs}</citation>"
        )
    return "<article>" + "".join(parts) + "</article>"


def _venue(rng: random.Random, journal: bool) -> str:
    if journal:
        info = _leaf("publisher", rng.choice(_NAMES))
        if rng.random() < 0.5:
            info += _leaf("issn", f"{rng.randint(1000, 9999)}-{rng.randint(1000, 9999)}")
        info = f"<journalInfo>{info}</journalInfo>"
    else:
        info = _leaf("location", rng.choice(_PLACES))
        if rng.random() < 0.5:
            info += _leaf("series", rng.choice(_VENUES))
        info = f"<conferenceInfo>{info}</conferenceInfo>"
    volumes = []
    for v in range(VOLUMES):
        issues = []
        for i in range(VOLUME_SIZE):
            doi_at = set(rng.sample(range(ARTICLES), DOIS))
            label = _leaf("issueLabel", str(i + 1)) if rng.random() < 0.5 else ""
            articles = "".join(
                _article(rng, with_doi=a in doi_at) for a in range(ARTICLES)
            )
            issues.append(f"<issue>{label}{articles}</issue>")
        volumes.append(
            f"<volume>{_leaf('volLabel', str(1990 + v))}{''.join(issues)}</volume>"
        )
    return (
        f"<venue>{_leaf('venueName', rng.choice(_VENUES))}{info}"
        f"{''.join(volumes)}</venue>"
    )


def document(rng: random.Random, kinds: tuple[bool, ...]) -> str:
    """One ``bibdb`` document; ``kinds[i]`` says if venue ``i`` is a journal."""
    curators = "".join(
        _leaf("curator", rng.choice(_NAMES)) for _ in range(rng.randint(0, 2))
    )
    meta = (
        f"<meta>{_leaf('dbName', 'dblp')}"
        f"{_leaf('release', str(rng.randint(1, 99)))}{curators}</meta>"
    )
    venues = "".join(_venue(rng, journal) for journal in kinds)
    people = []
    for _ in range(PEOPLE):
        person = _leaf("fullName", rng.choice(_NAMES))
        if rng.random() < 0.5:
            person += _leaf("affiliation", rng.choice(_PLACES))
        person += "".join(
            _leaf("alias", rng.choice(_NAMES)) for _ in range(rng.randint(0, 2))
        )
        people.append(f"<person>{person}</person>")
    return (
        '<?xml version="1.0"?>\n'
        f"<bibdb>{meta}{venues}<personIndex>{''.join(people)}</personIndex></bibdb>\n"
    )


def federation(seed: int, layout: Layout) -> list[list[str]]:
    """Per site, its documents' XML text (site ``i`` is ``bib<i>``).

    Mixed layouts give each document one journal and one conference
    venue.  Sharded layouts put ``journal_docs`` journal-only documents
    first and conference-only documents after them, so with the
    partition of :func:`shards` the first shard of each site is
    journal-only and the others are conference-only.
    """
    sites = []
    for site in range(layout.sites):
        rng = random.Random(f"{seed}:{site}")
        texts = []
        for ordinal in range(layout.docs):
            if layout.journal_docs:
                journal = ordinal < layout.journal_docs
                kinds = (journal,) * VENUES
            else:
                kinds = tuple(v % 2 == 0 for v in range(VENUES))
            texts.append(document(rng, kinds))
        sites.append(texts)
    return sites


def shards(layout: Layout, texts: list[str]) -> list[list[str]]:
    """Contiguous, equal-size shards of one site's documents."""
    size = layout.docs_per_shard
    return [texts[i * size:(i + 1) * size] for i in range(layout.shards)]


def shard_kind(layout: Layout, shard: int) -> str:
    """``journal`` or ``conference``: which fragment DTD types a shard.

    Layouts put a whole number of shards' worth of journal documents
    first; a shard that mixed the two kinds would fail the verifying
    pass's check of every document against its shard's DTD.
    """
    last = (shard + 1) * layout.docs_per_shard
    return "journal" if last <= layout.journal_docs else "conference"
