"""Tests for the materialized-view answer cache (:mod:`repro.mediator.matview`).

The contract under test is *differential soundness*: whatever the
cache serves — a fast hit, a re-armed hit, or a delta-spliced answer —
must be structurally identical to what a cold recompute over the
current documents would produce, and must validate against the
inferred view DTD.  Plus the operational surface: counters, kernel
registry, LRU bounds, per-request bypass, degraded answers never
cached, and determinism under ``FakeClock`` with the parallel
fan-out.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dtd import validate_document
from repro.errors import MediatorError
from repro.mediator import (
    FakeClock,
    FanoutPolicy,
    FaultPlan,
    MatViewCache,
    MatViewPolicy,
    Mediator,
)
from repro.mediator.matview import estimate_bytes
from repro.obs import clear_caches, kernel_stats, render_stats
from repro.workloads.flaky import (
    branch_query,
    build_flaky_federation,
    standard_fault_plans,
)
from repro.xmas import parse_query
from repro.xmlmodel import elem, serialize_document, text_elem

VIEW = "journals"


@pytest.fixture(autouse=True)
def fresh():
    clear_caches()
    yield
    clear_caches()


def healthy_plans(n_sources=3):
    return {f"site{i}": FaultPlan() for i in range(n_sources)}


def federation(cache=None, fanout=None, n_sources=3, n_docs=2, seed=7):
    clock = FakeClock()
    return build_flaky_federation(
        clock,
        plans=healthy_plans(n_sources),
        n_sources=n_sources,
        n_docs=n_docs,
        seed=seed,
        fanout=fanout,
        cache=cache if cache is not None else MatViewPolicy(),
    )


def journal_publication(title="fresh"):
    return elem(
        "publication",
        text_elem("title", title),
        text_elem("author", "a"),
        text_elem("journal", "new venue"),
    )


def parent_of(document, element):
    for candidate in document.root.iter():
        if isinstance(candidate.content, list) and any(
            child is element for child in candidate.children
        ):
            return candidate
    raise AssertionError("element not in document")


def find_journal_pick(mediator):
    """(document, publication) for some journal publication, stably."""
    for name in sorted(mediator.sources):
        for document in mediator.sources[name].documents:
            for element in document.root.iter():
                if element.name == "publication" and any(
                    child.name == "journal" for child in element.children
                ):
                    return document, element
    raise AssertionError("workload has no journal publication")


def cold_answer(mediator, view=VIEW):
    """The full-recompute oracle: clear the cache, materialize."""
    mediator.matview.clear()
    return mediator.materialize_union(view)


class TestHitPath:
    def test_repeat_materialization_hits_without_source_calls(self):
        mediator = federation()
        first = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        calls_after_miss = {
            name: row["calls"] for name, row in mediator.health().items()
        }
        second = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "hit"
        assert serialize_document(second) == serialize_document(first)
        assert {
            name: row["calls"] for name, row in mediator.health().items()
        } == calls_after_miss
        info = mediator.matview.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1

    def test_hits_share_the_master_and_edits_are_detected(self):
        # Hits serve the cached master by reference (no per-hit deep
        # copy -- that's what makes the hit path fast).  An edit to a
        # served answer through the stamped mutation APIs poisons the
        # entry: the next probe invalidates and recomputes instead of
        # serving the vandalised tree.
        mediator = federation()
        mediator.materialize_union(VIEW)
        a = mediator.materialize_union(VIEW)
        reference = serialize_document(a)
        assert mediator.materialize_union(VIEW) is a
        a.root.remove_child(a.root.children[0])
        healed = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        assert mediator.matview.info()["invalidations"] == 1
        assert serialize_document(healed) == reference

    def test_unrelated_mutation_rearms(self):
        mediator = federation()
        other = federation(seed=99)  # moves the global clock only
        mediator.materialize_union(VIEW)
        other.sources["site0"].documents[0].root.append_child(
            elem("entry")
        )
        assert (
            mediator.materialize_union(VIEW) is not None
        )
        assert mediator.last_cache_outcome == "hit"

    def test_cached_answer_validates_against_view_dtd(self):
        mediator = federation()
        registration = mediator.union_views[VIEW]
        mediator.materialize_union(VIEW)
        answer = mediator.materialize_union(VIEW)
        assert validate_document(answer, registration.dtd).ok


class TestDeltaMaintenance:
    def test_localized_edit_is_delta_not_recompute(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        document, publication = find_journal_pick(mediator)
        publication.children[0].set_text("retitled")
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert mediator.matview.info()["deltas"] == 1
        assert "retitled" in serialize_document(answer)
        assert serialize_document(answer) == serialize_document(
            cold_answer(mediator)
        )

    def test_pick_adding_edit_splices(self):
        mediator = federation()
        baseline = mediator.materialize_union(VIEW)
        n = len(baseline.root.children)
        document, publication = find_journal_pick(mediator)
        parent_of(document, publication).append_child(
            journal_publication("spliced in")
        )
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert len(answer.root.children) == n + 1
        assert serialize_document(answer) == serialize_document(
            cold_answer(mediator)
        )

    def test_pick_removing_edit_splices(self):
        mediator = federation()
        baseline = mediator.materialize_union(VIEW)
        n = len(baseline.root.children)
        document, publication = find_journal_pick(mediator)
        parent_of(document, publication).remove_child(publication)
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert len(answer.root.children) == n - 1
        assert serialize_document(answer) == serialize_document(
            cold_answer(mediator)
        )

    def test_delta_leaves_held_answers_stable(self):
        # Maintenance builds a new root (sharing untouched subtrees);
        # an answer held from before the edit must not change shape.
        mediator = federation()
        mediator.materialize_union(VIEW)
        held = mediator.materialize_union(VIEW)
        before = serialize_document(held)
        document, publication = find_journal_pick(mediator)
        parent_of(document, publication).remove_child(publication)
        maintained = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert maintained is not held
        assert serialize_document(held) == before

    def test_edit_of_a_spliced_pick_in_the_served_master_is_detected(self):
        # A delta swaps the dirty document's picks for fresh ones; the
        # entry must watch those, not the picks they replaced.
        mediator = federation()
        mediator.materialize_union(VIEW)
        document, publication = find_journal_pick(mediator)
        publication.children[0].set_text("retitled")
        served = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        spliced = next(
            el for el in served.root.iter() if el.content == "retitled"
        )
        spliced.set_text("poisoned")
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        assert "poisoned" not in serialize_document(answer)

    def test_two_dirty_documents_invalidate(self):
        mediator = federation(n_docs=3)
        mediator.materialize_union(VIEW)
        docs = mediator.sources["site0"].documents
        docs[0].root.append_child(elem("entry", journal_publication("a")))
        docs[1].root.append_child(elem("entry", journal_publication("b")))
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        info = mediator.matview.info()
        assert info["invalidations"] == 1
        assert info["deltas"] == 0
        assert serialize_document(answer) == serialize_document(
            cold_answer(mediator)
        )

    def test_document_list_change_invalidates(self):
        # Appending to source.documents moves no mutation clock; the
        # identity scan must catch it anyway.
        mediator = federation()
        mediator.materialize_union(VIEW)
        from repro.dtd import generate_document
        import random

        from repro.workloads.flaky import site_schema

        mediator.sources["site1"].documents.append(
            generate_document(site_schema(), random.Random(3), star_mean=2.0)
        )
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        assert mediator.matview.info()["invalidations"] == 1
        assert serialize_document(answer) == serialize_document(
            cold_answer(mediator)
        )

    def test_mutation_during_inflight_evaluation_is_conservative(self):
        # A store token carries the clock stamp from *before* the
        # evaluation.  A mutation landing mid-flight must leave the
        # stored entry stale, never serve it as a fast hit.
        mediator = federation()
        mv = mediator.matview
        registration = mediator.union_views[VIEW]
        legs = registration.legs
        outcome = mv.probe(VIEW, registration.dtd, legs)
        assert outcome.status == "miss"
        answer = mediator.materialize_union(VIEW, cache=False)
        document, publication = find_journal_pick(mediator)
        publication.children[0].set_text("landed mid-flight")
        mv.store(outcome.token, answer, [None] * len(legs))
        reprobe = mv.probe(VIEW, registration.dtd, legs)
        assert reprobe.status == "miss"  # stale, not served
        final = mediator.materialize_union(VIEW)
        assert "landed mid-flight" in serialize_document(final)

    def test_detached_subtree_mutated_then_reattached(self):
        # The cache checks the journal against the entry's *built*
        # index, so an off-tree edit alone re-arms; the re-attach dirties the
        # parent and the maintained answer carries the edit.
        mediator = federation()
        mediator.materialize_union(VIEW)
        document, publication = find_journal_pick(mediator)
        parent = parent_of(document, publication)
        parent.remove_child(publication)  # dirties the document
        mediator.materialize_union(VIEW)
        publication.children[0].set_text("edited off-tree")
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "hit"  # re-armed
        parent.append_child(publication)
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert "edited off-tree" in serialize_document(answer)
        assert serialize_document(answer) == serialize_document(
            cold_answer(mediator)
        )


class TestJournalSession:
    def test_union_session_runs_past_the_journal(self):
        # 32 contributing documents and one set_text before every 4th
        # read, for more edits than the journal holds.  Each probe
        # reads only the edits since the entry's stamp, so the session
        # never overflows by itself; one burst of unrelated edits
        # longer than the journal does, and costs one recompute.
        from repro.xmlmodel.element import JOURNAL_SIZE

        mediator = federation(n_sources=4, n_docs=8)
        uncached = build_flaky_federation(
            FakeClock(), plans=healthy_plans(4), n_sources=4, n_docs=8,
            seed=7, cache=None,
        )
        for name, source in mediator.sources.items():
            uncached.sources[name].documents = source.documents
        documents = [
            document
            for source in mediator.sources.values()
            for document in source.documents
        ]
        assert len(documents) == 32
        leaves = [
            element
            for document in documents
            for element in document.root.iter()
            if element.is_pcdata
        ]
        dtd = mediator.union_views[VIEW].dtd
        noise = text_elem("noise", "")
        edits = JOURNAL_SIZE + 64
        checked = mediator.materialize_union(VIEW)
        assert validate_document(checked, dtd).ok
        for period in range(edits):
            leaves[period * 7919 % len(leaves)].set_text(f"edit {period}")
            expected = uncached.materialize_union(VIEW)
            for read in range(4):
                if period == edits // 2 and read == 2:
                    for i in range(JOURNAL_SIZE + 1):
                        noise.set_text(str(i))
                answer = mediator.materialize_union(VIEW)
                assert mediator.last_cache_outcome == (
                    "delta" if read == 0
                    else "miss" if period == edits // 2 and read == 2
                    else "hit"
                )
                assert (answer is checked) == (
                    mediator.last_cache_outcome == "hit"
                )
                # a hit serves the master checked at this period's delta
                if answer is not checked:
                    assert answer.root.structurally_equal(expected.root)
                    assert validate_document(answer, dtd).ok
                    checked = answer
        info = mediator.matview.info()
        assert info["deltas"] == edits
        assert info["stale_delta_fallbacks"] == 0
        assert info["recomputes"] == 2  # the cold read and the overflow
        assert info["hits"] == 3 * edits - 1


class TestBypassAndPolicy:
    def test_per_request_bypass(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        calls = {
            name: row["calls"] for name, row in mediator.health().items()
        }
        mediator.materialize_union(VIEW, cache=False)
        assert mediator.last_cache_outcome == "bypass"
        assert mediator.matview.info()["bypasses"] == 1
        # the bypass recomputed: every source was called again
        assert all(
            row["calls"] == calls[name] + 1
            for name, row in mediator.health().items()
        )
        # ...and did not disturb the stored entry
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "hit"

    def test_no_cache_mediator_reports_off(self):
        clock = FakeClock()
        mediator = build_flaky_federation(
            clock, plans=healthy_plans(3)
        )
        mediator.materialize_union(VIEW)
        assert mediator.matview is None
        assert mediator.last_cache_outcome == "off"

    def test_a_ready_cache_is_refused(self):
        # Entries are checked against the sources of the mediator that
        # stored them, so a shared cache would serve one federation
        # another's answer.
        with pytest.raises(TypeError):
            Mediator("shared", cache=MatViewCache())

    def test_query_view_answers_are_never_cached(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        mediator.register_view(branch_query("site0", "pubs"), "site0")
        client = parse_query("p = SELECT P WHERE <pubs> P:<publication/> </>")
        before = mediator.matview.info()
        for _ in range(2):
            answer = mediator.query_view(client, "pubs")
            assert answer.root.children
            assert mediator.last_cache_outcome == "off"
        assert mediator.matview.info() == before
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "hit"

    def test_a_view_name_is_registered_once(self):
        # Entries are keyed by view name alone; that is sound because a
        # registered name can never be given another definition.
        mediator = federation()
        mediator.materialize_union(VIEW)
        entry = mediator.matview._entries[VIEW]
        with pytest.raises(MediatorError):
            mediator.register_union_view(
                [branch_query("site0"), branch_query("site1")], VIEW
            )
        with pytest.raises(MediatorError):
            mediator.register_view(branch_query("site0"), "site0")
        assert VIEW not in mediator.views
        assert list(mediator.matview._entries) == [VIEW]
        assert mediator.matview._entries[VIEW] is entry
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "hit"


class TestDegradedAnswers:
    def test_degraded_answers_are_never_cached(self):
        clock = FakeClock()
        mediator = build_flaky_federation(
            clock,
            plans=standard_fault_plans(3),
            cache=MatViewPolicy(),
        )
        mediator.materialize_union(VIEW)
        assert mediator.last_degradation is not None
        info = mediator.matview.info()
        assert info["entries"] == 0
        assert info["recomputes"] == 0
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"


class TestEvictionAndBudget:
    def second_view_queries(self, mediator):
        return [
            parse_query(
                f"""
                everything = SELECT P
                WHERE <site> <entry> P:<publication/> </> </>
                """,
                source=name,
            )
            for name in sorted(mediator.sources)
        ]

    def test_lru_eviction_by_byte_budget(self):
        probe = federation()
        probe.register_union_view(
            self.second_view_queries(probe), "everything"
        )
        b1 = estimate_bytes(probe.materialize_union(VIEW))
        b2 = estimate_bytes(probe.materialize_union("everything"))

        mediator = federation(
            cache=MatViewPolicy(max_bytes=b1 + b2 - 1)
        )
        mediator.register_union_view(
            self.second_view_queries(mediator), "everything"
        )
        mediator.materialize_union(VIEW)
        mediator.materialize_union("everything")  # evicts the LRU entry
        info = mediator.matview.info()
        assert info["evictions"] == 1
        assert info["entries"] == 1
        assert info["bytes"] <= b1 + b2 - 1
        mediator.materialize_union("everything")
        assert mediator.last_cache_outcome == "hit"
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"

    def test_oversized_answer_is_not_stored(self):
        mediator = federation(cache=MatViewPolicy(max_bytes=1))
        mediator.materialize_union(VIEW)
        info = mediator.matview.info()
        assert info["entries"] == 0
        assert info["evictions"] == 1
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"


class TestExplain:
    def test_explain_union_reports_cache_status(self):
        mediator = federation()
        plan = mediator.explain_union(VIEW)
        assert plan.cache_status == "cold"
        mediator.materialize_union(VIEW)
        plan = mediator.explain_union(VIEW)
        assert plan.cache_status == "hit"
        assert "cache: hit" in plan.describe()
        document, publication = find_journal_pick(mediator)
        publication.children[0].set_text("dirty")
        assert mediator.explain_union(VIEW).cache_status == "delta"


class TestKernelIntegration:
    def test_matview_section_in_kernel_stats(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        mediator.materialize_union(VIEW)
        section = kernel_stats()["matview"]
        assert section["hits"] >= 1
        assert section["misses"] >= 1
        assert "matview cache:" in render_stats()

    def test_clear_caches_drops_entries_and_counters(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        mediator.materialize_union(VIEW)
        clear_caches()
        info = mediator.matview.info()
        assert info["entries"] == 0
        assert info["hits"] == 0
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"


class TestDeterminism:
    LATENCIES = {f"site{i}": FaultPlan(latency=0.1 * (i + 1)) for i in range(3)}

    def run_once(self):
        clock = FakeClock()
        mediator = build_flaky_federation(
            clock,
            plans=dict(self.LATENCIES),
            n_sources=3,
            fanout=FanoutPolicy(max_workers=3),
            cache=MatViewPolicy(),
        )
        trail = []
        trail.append(serialize_document(mediator.materialize_union(VIEW)))
        trail.append(mediator.last_cache_outcome)
        trail.append(serialize_document(mediator.materialize_union(VIEW)))
        trail.append(mediator.last_cache_outcome)
        document, publication = find_journal_pick(mediator)
        publication.children[0].set_text("determinism probe")
        trail.append(serialize_document(mediator.materialize_union(VIEW)))
        trail.append(mediator.last_cache_outcome)
        trail.append(tuple(sorted(mediator.matview.info().items())))
        trail.append(clock.now())
        mediator.close()
        return trail

    def test_parallel_fanout_with_cache_is_deterministic(self):
        first = self.run_once()
        clear_caches()
        second = self.run_once()
        assert first == second
        # the cached repeat costs no virtual time beyond the two
        # fan-outs (miss + delta both avoid the transport)
        assert first[1] == "miss"
        assert first[3] == "hit"
        assert first[5] == "delta"


class TestDifferentialSoundness:
    """Property test: cached answers equal the full-recompute oracle."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["edit", "add", "remove", "noise"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_random_localized_mutations(self, steps, seed):
        clear_caches()
        mediator = federation(seed=seed)
        registration = mediator.union_views[VIEW]
        mediator.materialize_union(VIEW)
        for op, pick in steps:
            self.apply(mediator, op, pick)
            answer = mediator.materialize_union(VIEW)
            assert validate_document(answer, registration.dtd).ok
            oracle = cold_answer(mediator)
            assert serialize_document(answer) == serialize_document(
                oracle
            )

    SHARDED_VIEW = "articles"

    @classmethod
    def sharded_federation(cls, seed):
        """Two sharded bibliography sites behind one union view.

        ``bib0`` has shards [journal, conference, conference] and a
        branch picking DOI'd conference articles, so shard 0 is pruned
        and the surviving shards come after it.  ``bib1`` has shards
        [journal, conference] and a non-projectable branch (the pick
        is unequal to one of its own children), answered by the
        enumeration fallback; its conference shard is pruned.
        """
        from repro.workloads import bibdb

        mediator = Mediator("sharded", cache=MatViewPolicy())
        mediator.add_source(
            bibdb.sharded_source(
                "bib0", n_docs=6, n_shards=3, seed=seed,
                journal_fraction=1 / 3,
            )
        )
        mediator.add_source(
            bibdb.sharded_source(
                "bib1", n_docs=4, n_shards=2, seed=seed + 1,
                journal_fraction=1 / 2,
            )
        )
        view = cls.SHARDED_VIEW
        conference = parse_query(
            f"""
            {view} = SELECT A
            WHERE <bibdb> <venue> <conferenceInfo/>
                    <volume> <issue> A:<article><doi/></article> </> </>
                  </> </>
            """,
            source="bib0",
        )
        fallback = parse_query(
            f"""
            {view} = SELECT A
            WHERE <bibdb> <venue> <journalInfo/>
                    <volume> <issue> A:<article><author id=U/></article>
                    </> </>
                  </> </>
              AND A != U
            """,
            source="bib1",
        )
        mediator.register_union_view([conference, fallback], view)
        return mediator

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["edit", "add", "remove"]),
                st.integers(min_value=0, max_value=10_000),
                st.booleans(),
            ),
            min_size=5,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_edits_across_shards(self, steps, seed):
        from repro.xmas.engine import compile_query

        mediator = self.sharded_federation(seed)
        view = self.SHARDED_VIEW
        registration = mediator.union_views[view]
        bib0, bib1 = mediator.sources["bib0"], mediator.sources["bib1"]
        assert bib0.prune(registration.branches[0].query) == (
            ["bib0/s1", "bib0/s2"], ["bib0/s0"],
        )
        assert bib1.prune(registration.branches[1].query) == (
            ["bib1/s0"], ["bib1/s1"],
        )
        assert not compile_query(registration.branches[1].query).projectable
        shards = bib0.shards + bib1.shards
        first = mediator.materialize_union(view)
        assert mediator.last_cache_outcome == "miss"
        # the fallback branch picks, so its picks must be spliceable
        assert first.root.children
        for step, (op, pick, noise) in enumerate(steps):
            if noise:  # clock movement outside the federation
                federation(seed=31).sources["site0"].documents[
                    0
                ].root.append_child(elem("entry"))
            # step i lands in shard i: every shard is edited
            documents = shards[step % len(shards)].documents
            self.edit_article(documents[pick % len(documents)], op, pick)
            answer = mediator.materialize_union(view)
            assert mediator.last_cache_outcome == "delta"
            assert validate_document(answer, registration.dtd).ok
            oracle = mediator.materialize_union(view, cache=False)
            assert serialize_document(answer) == serialize_document(
                oracle
            )
        assert mediator.matview.info()["deltas"] == len(steps) > 0

    @staticmethod
    def edit_article(document, op, pick):
        """One stamped edit of a bibliography document that keeps it
        valid under its fragment DTD."""
        issues = [el for el in document.root.iter() if el.name == "issue"]
        issue = issues[pick % len(issues)]
        articles = [a for a in issue.children if a.name == "article"]
        if op == "add":
            issue.append_child(
                elem(
                    "article",
                    text_elem("title", f"gen-{pick}"),
                    text_elem("author", "a"),
                    text_elem("doi", f"10.1/{pick}"),
                )
            )
        elif op == "remove" and len(articles) > 1:
            issue.remove_child(articles[pick % len(articles)])
        else:
            leaves = [
                el
                for el in document.root.iter()
                if isinstance(el.content, str)
            ]
            leaves[pick % len(leaves)].set_text(f"edit-{pick}")

    @staticmethod
    def apply(mediator, op, pick):
        documents = [
            document
            for name in sorted(mediator.sources)
            for document in mediator.sources[name].documents
        ]
        document = documents[pick % len(documents)]
        if op == "noise":
            # clock movement with no contributing-document change
            federation(seed=31).sources["site0"].documents[
                0
            ].root.append_child(elem("entry"))
            return
        if op == "add":
            entries = [
                el for el in document.root.iter() if el.name == "entry"
            ]
            if not entries:
                document.root.append_child(elem("entry"))
                entries = [document.root.children[-1]]
            entries[pick % len(entries)].append_child(
                journal_publication(f"gen-{pick}")
            )
            return
        publications = [
            el
            for el in document.root.iter()
            if el.name == "publication"
        ]
        if not publications:
            return
        target = publications[pick % len(publications)]
        if op == "edit":
            target.children[0].set_text(f"edit-{pick}")
        else:  # remove
            parent_of(document, target).remove_child(target)
