#!/usr/bin/env python3
"""Federating heterogeneous bibliography sites (Section 1's motivation).

The paper's introduction motivates mediators that union "the
structures exported by 100 sites" -- which TSIMMIS could only do
loosely.  This example federates two sites whose schemas *collide* on
the ``publication`` name but disagree on its structure, and shows:

1. the union view DTD keeping the two publication shapes apart as
   specializations (the s-DTD) while the merged plain DTD unions them
   with an explicit non-tightness signal,
2. query/view composition: a client query against the federation
   rewritten into direct source queries,
3. emission of the inferred view DTD as *legal XML* (deterministic
   content models), with the repair report.

Run:  python examples/federation.py
"""

import random
from dataclasses import replace

from repro import Mediator, Source, to_string
from repro.dtd import RepairStatus, dtd, generate_document, serialize_dtd
from repro.inference import UnionBranch, infer_union_view_dtd
from repro.xmas import parse_query


def university_site():
    schema = dtd(
        {
            "site": "name, entry+",
            "entry": "publication*",
            "publication": "title, author+, (journal | conference)",
            "name": "#PCDATA",
            "title": "#PCDATA",
            "author": "#PCDATA",
            "journal": "#PCDATA",
            "conference": "#PCDATA",
        },
        root="site",
    )
    query = parse_query(
        """
        journals = SELECT P
        WHERE <site> <entry>
                P:<publication><journal/></publication>
              </> </>
        """,
        source="university",
    )
    return schema, query


def lab_site():
    schema = dtd(
        {
            "site": "name, member*",
            "member": "publication*",
            "publication": "title, year, journal?",
            "name": "#PCDATA",
            "title": "#PCDATA",
            "year": "#PCDATA",
            "journal": "#PCDATA",
        },
        root="site",
    )
    query = parse_query(
        """
        journals = SELECT P
        WHERE <site> <member>
                P:<publication><journal/></publication>
              </> </>
        """,
        source="lab",
    )
    return schema, query


def main() -> None:
    rng = random.Random(1999)
    uni_dtd, uni_query = university_site()
    lab_dtd, lab_query = lab_site()

    print("=" * 72)
    print("Union view over two sites with colliding 'publication' names")
    print("=" * 72)
    result = infer_union_view_dtd(
        [UnionBranch(uni_dtd, uni_query), UnionBranch(lab_dtd, lab_query)],
        "journals",
    )
    print()
    print("specialized union view DTD (shapes kept apart):")
    print(result.sdtd)
    print()
    print("merged plain DTD (shapes unioned, loss signalled):")
    print("  publication :", to_string(result.dtd.types["publication"]))
    print("  merge signals:", ", ".join(result.merge.merged_names))
    print("  lossless merge?", result.merge.lossless)

    print()
    print("=" * 72)
    print("The federation as a running mediator")
    print("=" * 72)
    mediator = Mediator("federation")
    mediator.add_source(
        Source(
            "university",
            uni_dtd,
            [generate_document(uni_dtd, rng, star_mean=1.8)],
        )
    )
    mediator.add_source(
        Source("lab", lab_dtd, [generate_document(lab_dtd, rng, star_mean=1.8)])
    )
    registration = mediator.register_union_view(
        [uni_query, lab_query], "journals"
    )
    view = mediator.materialize_union("journals")
    print(f"materialized union view: {len(view.root.children)} journal "
          "publications from 2 sites")

    print()
    print("=" * 72)
    print("Query composition against a single-source view")
    print("=" * 72)
    # the union already exports "journals": the university-only view
    # needs a name of its own
    mediator.register_view(
        replace(uni_query, view_name="uniJournals"), "university"
    )
    client = parse_query(
        "titles = SELECT T WHERE <uniJournals> <publication> T:<title/> "
        "</> </>"
    )
    answer = mediator.query_view(client, "uniJournals", use_simplifier=False)
    print(f"client query answered with {len(answer.root.children)} titles; "
          f"{mediator.stats.composed} of {mediator.stats.queries} queries "
          "were rewritten to run directly on the source")

    print()
    print("=" * 72)
    print("Emitting the view DTD as legal (deterministic) XML")
    print("=" * 72)
    from repro.dtd import xmlize_dtd

    xml_dtd, report = xmlize_dtd(result.dtd)
    repaired = report.names_with(RepairStatus.REPAIRED)
    print("names repaired for XML determinism:", repaired or "none needed")
    print("fully deterministic:", report.fully_deterministic)
    print()
    print(serialize_dtd(xml_dtd))


if __name__ == "__main__":
    main()
