"""The four workloads: federation layout, cache setting and request mix.

A request is ``(kind, view, text)``: ``("union", "journals", None)``
materializes the union view, any other kind poses the ad-hoc XMAS query
``text`` against the per-site view ``view``, where ``kind`` is
``"adhoc"`` (satisfiable),
``"empty"`` (pre-flight proves it empty) or ``"fallback"`` (its plan
relates an element to its own descendant by an inequality, so the
compiled engine cannot project it and falls back to enumeration).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator

from corpus import Layout

UNION_VIEW = "journals"

#: one block of the query-mix request sequence: 20% unions, 55%
#: satisfiable ad-hoc, 20% provably empty, 5% fallback.  Blocks keep the
#: shares exact in every run, so a run's mean does not depend on how
#: many slow fallback queries the seed happened to draw.
MIX_BLOCK = (("union", 4), ("adhoc", 11), ("empty", 4), ("fallback", 1))

#: unions per source edit on edit-mix (an edit precedes every 4th union)
UNIONS_PER_EDIT = 4
#: forward edits per edit period; each period then undoes them in
#: reverse, so the federation returns to its generated state and the
#: answer sequence repeats with period 2 * EDITS_PER_PERIOD * 4 unions
EDITS_PER_PERIOD = 24
STRUCTURAL_SHARE = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    layout: Layout
    #: the layout of the benchmark's own tests (``--tiny``)
    tiny: Layout
    served: bool
    cache: bool
    store: bool = False
    edits: bool = False


SERVE_LAYOUT = Layout(sites=4, docs=8)
SHARDED_LAYOUT = Layout(sites=4, docs=32, shards=8, journal_docs=4)
TINY_SERVE_LAYOUT = Layout(sites=2, docs=2)
TINY_SHARDED_LAYOUT = Layout(sites=2, docs=8, shards=4, journal_docs=2)

#: why each workload is in the benchmark is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve-hot", SERVE_LAYOUT, TINY_SERVE_LAYOUT, served=True, cache=True),
        Workload("edit-mix", SERVE_LAYOUT, TINY_SERVE_LAYOUT, served=True, cache=True, edits=True),
        Workload("query-mix", SHARDED_LAYOUT, TINY_SHARDED_LAYOUT, served=False, cache=False),
        Workload("store-mix", SHARDED_LAYOUT, TINY_SHARDED_LAYOUT, served=False, cache=False, store=True),
    )
}


def get(name: str, tiny: bool = False) -> Workload:
    """A workload by name, at full size or at its tiny test size."""
    workload = WORKLOADS[name]
    return replace(workload, layout=workload.tiny) if tiny else workload


# -- views ------------------------------------------------------------------

def site_name(site: int) -> str:
    return f"bib{site}"


def view_texts(site: int) -> list[str]:
    """The three bibliography views registered on one site."""
    return [
        f"""
            journalArticles{site} = SELECT A
            WHERE <bibdb> <venue> <journalInfo/> <volume> <issue>
                    A:<article><doi/></article>
                  </> </> </> </>""",
        f"""
            wellCited{site} = SELECT A
            WHERE <bibdb> <venue> <volume> <issue>
                    A:<article> <citation id=C1/> <citation id=C2/> </article>
                  </> </> </> </>
            AND C1 != C2""",
        f"""
            affiliated{site} = SELECT P
            WHERE <bibdb> <personIndex>
                    P:<person><affiliation/></person>
                  </> </>""",
    ]


#: every site's branch of the union view: its DOI'd journal articles
UNION_BRANCH = f"""
    {UNION_VIEW} = SELECT A
    WHERE <bibdb> <venue> <journalInfo/> <volume> <issue>
            A:<article><doi/></article>
          </> </> </> </>"""


# -- ad-hoc queries ----------------------------------------------------------

#: Client conditions on ``wellCited`` never test ``citation`` under the
#: picked article.  ``compose_query`` conjoins the client's child
#: conditions with the view pick's as siblings, and siblings bind
#: injectively, so such a query demands a third distinct citation and
#: loses answers (about half of them).  ``KNOWN_UNSOUND`` keeps those
#: queries; perfbench/tests pins the defect on them, and they belong
#: back in the mix once composition is sound for them.
KNOWN_UNSOUND = (
    "SELECT R WHERE <{w}> <article> <citation> R:<refTitle/> </citation> </article> </>",
    "SELECT X WHERE <{w}> X:<article> <citation id=C/> </article> </> AND X != C",
)


def _adhoc(site: int) -> list[str]:
    # Four shapes answer faster than the union and two slower, so the
    # mix's median falls among the two ~10 ms person queries, whose
    # latencies spread far less than the union's: a store-backed union
    # takes 5 to 30 ms by what the page cache still holds.
    j, w, a = f"journalArticles{site}", f"wellCited{site}", f"affiliated{site}"
    return [
        f"SELECT X WHERE <{j}> X:<article><abstract/></article> </>",
        f"SELECT X WHERE <{j}> X:<article><pages/></article> </>",
        f"SELECT P WHERE <{a}> P:<person><alias/></person> </>",
        f"SELECT N WHERE <{a}> <person> N:<fullName/> </person> </>",
        f"SELECT T WHERE <{w}> <article><pages/> T:<title/></article> </>",
        f"SELECT U WHERE <{w}> <article> U:<author/> </article> </>",
    ]


def _empty(site: int) -> list[str]:
    j, w, a = f"journalArticles{site}", f"wellCited{site}", f"affiliated{site}"
    return [
        f"SELECT X WHERE <{j}> X:<article><url/></article> </>",
        f"SELECT X WHERE <{w}> X:<article><location/></article> </>",
        f"SELECT P WHERE <{a}> P:<person><title/></person> </>",
    ]


def _fallback(site: int) -> list[str]:
    w = f"wellCited{site}"
    return [
        f"SELECT X WHERE <{w}> X:<article> <author id=U/> </article> </> AND X != U",
    ]


def request_pool(layout: Layout) -> list[tuple[str, str, str | None]]:
    """Every distinct request of the query mixes, in a fixed order."""
    pool: list[tuple[str, str, str | None]] = [("union", UNION_VIEW, None)]
    for kind, make in (("adhoc", _adhoc), ("empty", _empty), ("fallback", _fallback)):
        for site in range(layout.sites):
            for text in make(site):
                view = text.split("<", 1)[1].split(">", 1)[0]
                pool.append((kind, view, text))
    return pool


def mix_sequence(seed: int, layout: Layout) -> Iterator[int]:
    """Indexes into :func:`request_pool`, one per request, without end.

    Request ``i`` of a run is always the same pool entry for a given
    seed, which is what lets the timed phase compare each answer's
    digest with the one the verifying pass recorded.
    """
    pool = request_pool(layout)
    by_kind: dict[str, list[int]] = {}
    for index, (kind, _, _) in enumerate(pool):
        by_kind.setdefault(kind, []).append(index)
    rng = random.Random(f"mix:{seed}")
    for indexes in by_kind.values():
        rng.shuffle(indexes)
    cursor = dict.fromkeys(by_kind, 0)
    while True:
        block = []
        for kind, n in MIX_BLOCK:
            for _ in range(n):
                indexes = by_kind[kind]
                block.append(indexes[cursor[kind] % len(indexes)])
                cursor[kind] += 1
        rng.shuffle(block)
        yield from block
