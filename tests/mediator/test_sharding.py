"""Tests for sharded sources (:mod:`repro.mediator.sharding`).

The contract under test is *transparency*: a :class:`ShardedSource`
must answer every query exactly like the unsharded source holding the
same documents in the same order — under pruning, under transient
failure with retries, under subtree fragmentation, and through the
materialized-view cache.  A permanently failed shard fails the whole
logical call, so a mediator union flags, validates and never caches
the degraded answer.  Pruning must be a *proof* (a pruned shard
is never called and never changes the answer), and every observable
must be deterministic under ``FakeClock``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dtd import dtd as make_dtd
from repro.dtd import validate_document
from repro.errors import (
    DIAGNOSTIC_CODES,
    FaultInjected,
    ShardConfigError,
)
from repro.mediator import (
    FakeClock,
    FanoutPolicy,
    FaultPlan,
    FaultySource,
    MatViewPolicy,
    Mediator,
    RetryPolicy,
    ShardedSource,
    Source,
    SourceTransport,
    TransportPolicy,
    fragment_by_child,
    fragment_can_match,
    fragment_specialization_problem,
    partition_documents,
)
from repro.obs import clear_caches, kernel_stats, render_stats
from repro.workloads import bibdb
from repro.xmas import parse_query
from repro.xmas.engine import compile_query
from repro.xmlmodel import serialize_document

VIEW = "journalArticles"


@pytest.fixture(autouse=True)
def fresh():
    clear_caches()
    yield
    clear_caches()


def journal_query(source="bib0", view=VIEW):
    return bibdb.branch_journal_query(source, view)


def all_articles_query(source="bib0", view="allArticles"):
    """A query no fragment DTD can prune (articles live everywhere)."""
    return parse_query(
        f"""
        {view} = SELECT A
        WHERE <bibdb> <venue> <volume> <issue> A:<article/> </> </> </> </>
        """,
        source=source,
    )


def corpus(n_journal=2, n_conference=6, seed=7):
    """Journal-fragment docs first, then conference docs — the
    content-aware layout :func:`bibdb.sharded_source` builds."""
    import random

    rng = random.Random(seed)
    jdtd = bibdb.journal_fragment_dtd()
    cdtd = bibdb.conference_fragment_dtd()
    from repro.dtd import generate_document

    return [
        generate_document(jdtd, rng, star_mean=1.4)
        for _ in range(n_journal)
    ] + [
        generate_document(cdtd, rng, star_mean=1.4)
        for _ in range(n_conference)
    ]


def content_aware_shards(documents, n_journal, n_shards, name="bib0"):
    """Per-shard fragment DTD: journal / conference when pure, else full."""
    jdtd = bibdb.journal_fragment_dtd()
    cdtd = bibdb.conference_fragment_dtd()
    full = bibdb.bibdb_dtd()
    kinds = ["j"] * n_journal + ["c"] * (len(documents) - n_journal)
    shards = []
    for index, (chunk, chunk_kinds) in enumerate(
        zip(
            partition_documents(documents, n_shards),
            partition_documents(kinds, n_shards),
        )
    ):
        kind_set = set(chunk_kinds)
        fragment = (
            jdtd
            if kind_set == {"j"}
            else cdtd
            if kind_set == {"c"}
            else full
        )
        shards.append(
            Source(f"{name}/s{index}", fragment, chunk, validate=False)
        )
    return shards


def sharded(documents, n_journal=2, n_shards=4, name="bib0", **kwargs):
    return ShardedSource(
        name,
        bibdb.bibdb_dtd(),
        content_aware_shards(documents, n_journal, n_shards, name=name),
        validate=False,
        **kwargs,
    )


def oracle(documents, name="bib0"):
    return Source(name, bibdb.bibdb_dtd(), list(documents), validate=False)


class TestFragmentSpecialization:
    def test_fragment_dtds_specialize_the_logical_dtd(self):
        logical = bibdb.bibdb_dtd()
        for fragment in (
            bibdb.journal_fragment_dtd(),
            bibdb.conference_fragment_dtd(),
            logical,
        ):
            assert fragment_specialization_problem(fragment, logical) is None

    def test_widened_content_model_is_rejected(self):
        logical = make_dtd({"a": "b, c", "b": "#PCDATA", "c": "#PCDATA"}, root="a")
        widened = make_dtd({"a": "b*, c", "b": "#PCDATA", "c": "#PCDATA"}, root="a")
        problem = fragment_specialization_problem(widened, logical)
        assert problem is not None
        assert "sub-language" in problem

    def test_extra_names_are_rejected(self):
        logical = make_dtd({"a": "b", "b": "#PCDATA"}, root="a")
        extra = make_dtd({"a": "b", "b": "#PCDATA", "z": "#PCDATA"}, root="a")
        problem = fragment_specialization_problem(extra, logical)
        assert problem is not None
        assert "outside the logical DTD" in problem

    def test_different_root_is_rejected(self):
        logical = make_dtd({"a": "b", "b": "#PCDATA"}, root="a")
        other = make_dtd({"b": "#PCDATA"}, root="b")
        assert fragment_specialization_problem(other, logical) is not None

    def test_constructor_enforces_specialization(self):
        logical = make_dtd({"a": "b, c", "b": "#PCDATA", "c": "#PCDATA"}, root="a")
        widened = make_dtd({"a": "b*, c", "b": "#PCDATA", "c": "#PCDATA"}, root="a")
        with pytest.raises(ShardConfigError) as info:
            ShardedSource(
                "s",
                logical,
                [Source("s/0", widened, [], validate=False)],
                validate=False,
            )
        assert info.value.code == "MED009"

    def test_empty_and_duplicate_shards_are_rejected(self):
        logical = bibdb.bibdb_dtd()
        with pytest.raises(ShardConfigError):
            ShardedSource("s", logical, [], validate=False)
        shard = Source("s/0", logical, [], validate=False)
        twin = Source("s/0", logical, [], validate=False)
        with pytest.raises(ShardConfigError):
            ShardedSource("s", logical, [shard, twin], validate=False)


class TestPruning:
    def test_journal_plan_prunes_conference_fragments(self):
        plan = compile_query(journal_query())
        assert fragment_can_match(plan, bibdb.journal_fragment_dtd())
        assert not fragment_can_match(plan, bibdb.conference_fragment_dtd())
        assert fragment_can_match(plan, bibdb.bibdb_dtd())

    def test_root_letter_set_prunes_foreign_roots(self):
        plan = compile_query(journal_query())
        other = make_dtd({"other": "#PCDATA"}, root="other")
        assert not fragment_can_match(plan, other)

    def test_pruned_shards_are_never_called(self):
        documents = corpus()
        source = sharded(documents)
        survivors, pruned = source.prune(journal_query())
        assert survivors and pruned
        source.query(journal_query())
        for shard in source.shards:
            if shard.name in pruned:
                assert shard.queries_served == 0
            else:
                assert shard.queries_served == 1
        assert source.stats.shards_pruned == len(pruned)
        assert source.stats.shards_called == len(survivors)

    def test_all_pruned_answers_empty_without_calls(self):
        documents = corpus(n_journal=0, n_conference=8)
        source = sharded(documents, n_journal=0)
        answer = source.query(journal_query())
        assert answer.root.name == VIEW
        assert answer.root.children == []
        assert all(shard.queries_served == 0 for shard in source.shards)
        assert source.stats.all_pruned == 1
        assert source.stats.shards_called == 0

    def test_pruning_never_changes_the_answer(self):
        documents = corpus()
        pruning = sharded(documents)
        reference = oracle(documents)
        for query in (journal_query(), all_articles_query()):
            fast = pruning.query(query)
            slow = reference.query(query)
            assert fast.root.structurally_equal(slow.root)
        assert pruning.stats.shards_pruned > 0


class TestMergeOrder:
    def test_partition_is_contiguous_and_order_preserving(self):
        documents = corpus(3, 7)
        chunks = partition_documents(documents, 4)
        assert [d for chunk in chunks for d in chunk] == documents
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_documents_leaves_empty_tails(self):
        documents = corpus(1, 1)
        chunks = partition_documents(documents, 5)
        assert len(chunks) == 5
        assert [d for chunk in chunks for d in chunk] == documents

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ShardConfigError):
            partition_documents([], 0)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_sharded_answer_equals_unsharded_oracle(self, n_shards):
        documents = corpus()
        source = sharded(documents, n_shards=n_shards)
        reference = oracle(documents)
        assert source.documents == documents
        for query in (journal_query(), all_articles_query()):
            assert source.query(query).root.structurally_equal(
                reference.query(query).root
            )


class TestSubtreeFragmentation:
    def test_fragments_replicate_spine_and_split_children(self):
        documents = corpus(1, 0)
        fragments = fragment_by_child(documents[0], "venue", 3)
        total = sum(
            sum(1 for c in f.root.children if c.name == "venue")
            for f in fragments
        )
        original = sum(
            1 for c in documents[0].root.children if c.name == "venue"
        )
        assert total == original
        for fragment in fragments:
            names = [c.name for c in fragment.root.children]
            assert "meta" in names

    def test_subtree_sharded_answer_equals_whole_document(self):
        documents = corpus(1, 0, seed=11)
        fragments = fragment_by_child(documents[0], "venue", 3)
        logical = bibdb.bibdb_dtd()
        source = ShardedSource(
            "bib0",
            logical,
            [
                Source(f"bib0/s{i}", logical, [fragment], validate=False)
                for i, fragment in enumerate(fragments)
            ],
            validate=False,
        )
        reference = oracle([documents[0]])
        query = journal_query()
        assert source.query(query).root.structurally_equal(
            reference.query(query).root
        )

    def test_missing_child_name_rejected(self):
        documents = corpus(1, 0)
        with pytest.raises(ShardConfigError):
            fragment_by_child(documents[0], "nonexistent", 2)


def faulty_shards(documents, n_journal, n_shards, clock, dead):
    """Content-aware shards where the named shard indexes are dead."""
    shards = content_aware_shards(documents, n_journal, n_shards)
    replaced = []
    for index, shard in enumerate(shards):
        if index in dead:
            replaced.append(
                FaultySource(
                    shard.name,
                    shard.dtd,
                    shard.documents,
                    plan=FaultPlan(dead=True),
                    clock=clock,
                    validate=False,
                )
            )
        else:
            replaced.append(shard)
    return replaced


def fast_retries(attempts=2):
    return TransportPolicy(
        retry=RetryPolicy(attempts=attempts, base_delay=0.01, jitter=0.0)
    )


class TestPartialGather:
    """A gather is complete or it fails: no partial sharded answers."""

    def test_failed_shard_fails_the_logical_call_by_default(self):
        clock = FakeClock()
        documents = corpus()
        source = ShardedSource(
            "bib0",
            bibdb.bibdb_dtd(),
            faulty_shards(documents, 2, 4, clock, dead={0}),
            clock=clock,
            validate=False,
        )
        with pytest.raises(FaultInjected, match="bib0/s0"):
            source.query(journal_query())
        assert source.stats.shard_failures == 1

    def test_transient_failures_retry_transparently(self):
        # fail_first below the retry budget of the source's transport:
        # the logical call sees no error and the answer equals the
        # healthy oracle.
        clock = FakeClock()
        documents = corpus(4, 4)
        shards = content_aware_shards(documents, 4, 4)
        shards[0] = FaultySource(
            shards[0].name,
            shards[0].dtd,
            shards[0].documents,
            plan=FaultPlan(fail_first=1),
            clock=clock,
            validate=False,
        )
        source = ShardedSource(
            "bib0", bibdb.bibdb_dtd(), shards, clock=clock, validate=False
        )
        transport = SourceTransport(source, fast_retries(attempts=3), clock)
        answer = transport.call(journal_query())
        assert transport.stats.retries == 1
        assert source.stats.shard_failures == 1
        assert answer.root.structurally_equal(
            oracle(documents).query(journal_query()).root
        )


class TestOneRetryLadder:
    """The mediator's transport is the only layer that retries a
    sharded source: its policy reaches the shards, once."""

    def federation(self, clock, shards, attempts):
        mediator = Mediator(
            "m", policy=fast_retries(attempts=attempts), clock=clock
        )
        mediator.add_source(
            ShardedSource(
                "bib0", bibdb.bibdb_dtd(), shards, clock=clock, validate=False
            )
        )
        mediator.register_union_view([journal_query("bib0")], VIEW)
        return mediator

    def test_dead_shard_is_called_once_per_mediator_attempt(self):
        clock = FakeClock()
        shards = faulty_shards(corpus(4, 4), 4, 4, clock, dead={0})
        mediator = self.federation(clock, shards, attempts=3)
        mediator.materialize_union(VIEW)
        assert set(mediator.last_degradation.skipped) == {"bib0"}
        assert shards[0].injected_errors == 3
        assert len(clock.sleeps) == 2
        assert mediator.transports["bib0"].stats.attempts == 3

    def test_mediator_policy_retries_a_transient_shard_fault(self):
        clock = FakeClock()
        documents = corpus(4, 4)
        shards = content_aware_shards(documents, 4, 4)
        flaky = shards[0] = FaultySource(
            shards[0].name,
            shards[0].dtd,
            shards[0].documents,
            plan=FaultPlan(fail_first=1),
            clock=clock,
            validate=False,
        )
        mediator = self.federation(clock, shards, attempts=2)
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_degradation is None
        assert flaky.injected_errors == 1
        assert flaky.queries_served == 1
        assert mediator.transports["bib0"].stats.retries == 1
        assert answer.root.structurally_equal(
            oracle(documents).query(journal_query(view=VIEW)).root
        )


class TestDeterminism:
    def run_once(self):
        clock = FakeClock()
        documents = corpus(4, 4)
        shards = content_aware_shards(documents, 4, 4)
        for index, shard in enumerate(shards):
            shards[index] = FaultySource(
                shard.name,
                shard.dtd,
                shard.documents,
                plan=FaultPlan(latency=0.05 * (index + 1)),
                clock=clock,
                validate=False,
            )
        source = ShardedSource(
            "bib0",
            bibdb.bibdb_dtd(),
            shards,
            clock=clock,
            fanout=FanoutPolicy(max_workers=4),
            validate=False,
        )
        trail = []
        for _ in range(2):
            answer = source.query(all_articles_query())
            trail.append(serialize_document(answer))
            trail.append(tuple(shard.queries_served for shard in shards))
        trail.append(clock.now())
        trail.append(
            tuple(
                (shard.name, shard.queries_served, shard.injected_latency)
                for shard in shards
            )
        )
        source.close()
        return trail

    def test_parallel_gather_is_run_identical_under_fake_clock(self):
        first = self.run_once()
        clear_caches()
        second = self.run_once()
        assert first == second
        assert first[-2] > 0  # injected latency actually elapsed
        assert first[3] == (2, 2, 2, 2)  # every shard answered twice

    def test_gather_inside_union_fanout_runs_inline(self):
        # A sharded source inside a parallel union leg must not nest
        # real worker pools (under FakeClock a nested cross-instance
        # fan-out would deadlock the all-parked time-advance rule).
        clock = FakeClock()
        mediator = bibdb.sharded_federation(
            n_sources=2,
            n_shards=4,
            n_docs=8,
            clock=clock,
            fanout=FanoutPolicy(max_workers=2),
        )
        answer = mediator.materialize_union(VIEW)
        flat = Mediator("flat", clock=FakeClock())
        queries = []
        for i in range(2):
            name = f"bib{i}"
            flat.add_source(oracle(mediator.sources[name].documents, name))
            queries.append(journal_query(name))
        flat.register_union_view(queries, VIEW)
        assert answer.root.structurally_equal(
            flat.materialize_union(VIEW).root
        )
        for name in ("bib0", "bib1"):
            assert mediator.sources[name].parallel.parallel_fanouts == 0
        mediator.close()

    def test_fanout_none_gathers_inline(self):
        # Like Mediator(fanout=None): no pool, legs on the caller's
        # thread (what `repro serve --workers 0 --shards N` builds).
        source = sharded(corpus(4, 4), n_journal=4)
        survivors, _ = source.prune(all_articles_query())
        assert len(survivors) == 4
        source.query(all_articles_query())
        assert source.parallel.parallel_fanouts == 0
        assert source.parallel.inline_fanouts == 1
        source.close()


class TestMatViewIntegration:
    def federation(self):
        return bibdb.sharded_federation(
            n_sources=2,
            n_shards=4,
            n_docs=16,
            seed=7,
            cache=MatViewPolicy(),
        )

    @staticmethod
    def find_text_leaf(document, name):
        for element in document.root.iter():
            if element.name == name and isinstance(element.content, str):
                return element
        raise AssertionError(f"no {name!r} leaf in document")

    def test_repeat_materialization_hits(self):
        mediator = self.federation()
        first = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        second = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "hit"
        assert serialize_document(second) == serialize_document(first)

    def test_mutation_in_surviving_shard_is_delta_maintained(self):
        mediator = self.federation()
        mediator.materialize_union(VIEW)
        source = mediator.sources["bib0"]
        journal_shard = source.shards[0]
        doi = self.find_text_leaf(journal_shard.documents[0], "doi")
        doi.set_text("sharded delta probe")
        answer = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert "sharded delta probe" in serialize_document(answer)
        fresh_answer = mediator.materialize_union(VIEW, cache=False)
        assert answer.root.structurally_equal(fresh_answer.root)

    def test_mutation_in_pruned_shard_keeps_answer_unchanged(self):
        mediator = self.federation()
        before = mediator.materialize_union(VIEW)
        source = mediator.sources["bib0"]
        conference_shard = source.shards[-1]
        leaf = self.find_text_leaf(conference_shard.documents[0], "location")
        leaf.set_text("moved nowhere")
        after = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert after.root.structurally_equal(before.root)


class TestShardFaultsThroughTheCache:
    """shards × faults × matview: a dead shard degrades its whole
    source, and the degraded union answer is flagged, sound, and never
    served from the cache once the shard recovers."""

    def test_degraded_answer_is_flagged_valid_and_never_cached(self):
        clock = FakeClock()
        documents = corpus(4, 4)
        shards = faulty_shards(documents, 4, 4, clock, dead={0})
        dead = shards[0]
        mediator = Mediator(
            "m", policy=fast_retries(), clock=clock, cache=MatViewPolicy()
        )
        mediator.add_source(
            ShardedSource(
                "bib0",
                bibdb.bibdb_dtd(),
                shards,
                clock=clock,
                validate=False,
            )
        )
        healthy = corpus(2, 2, seed=9)
        mediator.add_source(oracle(healthy, "bib1"))
        mediator.register_union_view(
            [journal_query("bib0"), journal_query("bib1")], VIEW
        )
        view_dtd = mediator.union_views[VIEW].dtd

        degraded = mediator.materialize_union(VIEW)
        report = mediator.last_degradation
        assert report is not None and report.degraded
        assert set(report.skipped) == {"bib0"}
        assert report.answer_valid
        assert validate_document(degraded, view_dtd).ok
        assert mediator.last_cache_outcome == "miss"
        assert degraded.root.structurally_equal(
            oracle(healthy, "bib1").query(journal_query("bib1")).root
        )

        dead.plan = FaultPlan()  # the shard recovers ...
        clock.advance(60.0)  # ... and every breaker may half-open
        recovered = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        assert mediator.last_degradation is None
        flat = Mediator("flat", clock=FakeClock())
        flat.add_source(oracle(documents, "bib0"))
        flat.add_source(oracle(healthy, "bib1"))
        flat.register_union_view(
            [journal_query("bib0"), journal_query("bib1")], VIEW
        )
        assert recovered.root.structurally_equal(
            flat.materialize_union(VIEW).root
        )
        assert len(recovered.root.children) > len(degraded.root.children)


class TestKernelIntegration:
    def test_sharding_section_in_kernel_stats(self):
        documents = corpus()
        source = sharded(documents)
        source.query(journal_query())
        section = kernel_stats()["sharding"]
        assert section["sources"] >= 1
        assert section["queries"] >= 1
        assert section["pruned"] >= 1
        assert section["called"] >= 1
        assert "sharded sources:" in render_stats()

    def test_clear_caches_resets_shard_counters(self):
        documents = corpus()
        source = sharded(documents)
        source.query(journal_query())
        assert source.stats.queries == 1
        clear_caches()
        assert source.stats.queries == 0
        section = kernel_stats()["sharding"]
        assert section["queries"] == 0
        assert section["pruned"] == 0


class TestDiagnostics:
    def test_shard_codes_are_registered(self):
        assert ShardConfigError.code == "MED009"
        assert "MED009" in DIAGNOSTIC_CODES

    def test_every_registered_code_is_catalogued(self):
        # Importing the packages that register codes, then checking
        # the catalogue: the same parity `make check-docs` enforces
        # (scripts/check_docs_links.py), asserted here so a plain
        # pytest run catches a missing row too.
        import pathlib

        import repro.lint  # noqa: F401  (registers MIX1xx rule codes)
        import repro.serve  # noqa: F401  (registers SRVxxx codes)

        catalogue = (
            pathlib.Path(__file__).resolve().parents[2]
            / "docs"
            / "DIAGNOSTICS.md"
        ).read_text()
        missing = sorted(
            code for code in DIAGNOSTIC_CODES if code not in catalogue
        )
        assert missing == []


class TestDifferentialProperty:
    """Property test: sharded ≡ unsharded under random fragmentations."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_journal=st.integers(min_value=0, max_value=3),
        n_conference=st.integers(min_value=0, max_value=5),
        n_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_random_fragmentations_answer_like_the_oracle(
        self, n_journal, n_conference, n_shards, seed
    ):
        if n_journal + n_conference == 0:
            n_journal = 1
        documents = corpus(n_journal, n_conference, seed=seed)
        source = sharded(
            documents,
            n_journal=n_journal,
            n_shards=n_shards,
        )
        reference = oracle(documents)
        for query in (journal_query(), all_articles_query()):
            assert source.query(query).root.structurally_equal(
                reference.query(query).root
            )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_shards=st.integers(min_value=2, max_value=5),
        flaky_shard=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_transient_shard_faults_stay_transparent(
        self, n_shards, flaky_shard, seed
    ):
        clock = FakeClock()
        documents = corpus(3, 5, seed=seed)
        shards = content_aware_shards(documents, 3, n_shards)
        index = flaky_shard % n_shards
        shards[index] = FaultySource(
            shards[index].name,
            shards[index].dtd,
            shards[index].documents,
            plan=FaultPlan(fail_first=1),
            clock=clock,
            validate=False,
        )
        source = ShardedSource(
            "bib0", bibdb.bibdb_dtd(), shards, clock=clock, validate=False
        )
        transport = SourceTransport(source, fast_retries(attempts=3), clock)
        reference = oracle(documents)
        query = all_articles_query()
        assert transport.call(query).root.structurally_equal(
            reference.query(query).root
        )
        assert transport.stats.retries == 1
        assert source.stats.shard_failures == 1
