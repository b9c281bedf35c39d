"""Cached union answers served as pre-encoded bytes.

A matview entry keeps its answer as the wire needs it: per-pick
serialized fragments (JSON string bodies) and the assembled JSON
string literal.  The contract under test is *byte identity* -- the
cached bytes decode to exactly ``serialize_document(answer)``, and a
response line that splices them in equals the line for the plain
string -- plus the refusals: the cache hands out bytes only for its
current, unedited master.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mediator import FakeClock, FaultPlan, MatViewPolicy
from repro.mediator.matview import estimate_bytes
from repro.obs import clear_caches
from repro.serve import MediatorServer, ServeClient, protocol
from repro.workloads.flaky import build_flaky_federation
from repro.xmas import parse_query
from repro.xmlmodel import Document, elem, serialize_document, text_elem

VIEW = "journals"


def federation(n_sources=3, n_docs=2, seed=7, cache=None):
    return build_flaky_federation(
        FakeClock(),
        plans={f"site{i}": FaultPlan() for i in range(n_sources)},
        n_sources=n_sources,
        n_docs=n_docs,
        seed=seed,
        cache=cache if cache is not None else MatViewPolicy(),
    )


def journal_publication(title):
    return elem(
        "publication",
        text_elem("title", title),
        text_elem("author", "a"),
        text_elem("journal", "j"),
    )


def source_elements(mediator, name):
    return [
        element
        for source in sorted(mediator.sources)
        for document in mediator.sources[source].documents
        for element in document.root.iter()
        if element.name == name
    ]


def parent_of(mediator, child):
    for entry in source_elements(mediator, "entry"):
        if any(candidate is child for candidate in entry.children):
            return entry
    raise AssertionError("publication has no entry parent")


def journal_pick(mediator):
    for publication in source_elements(mediator, "publication"):
        if any(child.name == "journal" for child in publication.children):
            return publication
    raise AssertionError("workload has no journal publication")


def response(answer, outcome="hit"):
    return {
        "ok": True,
        "answer": answer,
        "degraded": False,
        "elapsed": 0.0042,
        "cache": outcome,
        "id": 7,
    }


def assert_byte_identical(mediator, answer):
    encoded = mediator.matview.answer_json(answer)
    assert encoded is not None
    text = serialize_document(answer)
    assert json.loads(encoded) == text
    outcome = mediator.last_cache_outcome
    assert protocol.encode(
        response(protocol.Encoded(encoded), outcome)
    ) == protocol.encode(response(text, outcome))


TEXT = st.text(
    st.sampled_from(list("&<>\"\\\n'ab ") + ["é", "€", " ", "\U0001f600"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=12,
)

STEP = st.one_of(
    st.tuples(st.just("set_text"), st.integers(0, 999), TEXT),
    st.tuples(st.just("append"), st.integers(0, 999), TEXT),
    st.tuples(st.just("insert"), st.integers(0, 999), TEXT),
    st.tuples(st.just("remove"), st.integers(0, 999), st.just("")),
    st.tuples(st.just("caller"), st.integers(0, 999), TEXT),
    st.tuples(st.just("noise"), st.just(0), st.just("")),
)


class TestByteIdentityDifferential:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(STEP, min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=5),
        n_sources=st.integers(min_value=1, max_value=3),
        n_docs=st.integers(min_value=1, max_value=3),
    )
    def test_cached_bytes_equal_the_serialized_answer(
        self, steps, seed, n_sources, n_docs
    ):
        clear_caches()
        mediator = federation(n_sources, n_docs, seed)
        held = mediator.materialize_union(VIEW)
        assert_byte_identical(mediator, held)
        for op, pick, value in steps:
            if op == "caller":
                self.edit_served(held, pick, value)
                assert mediator.matview.answer_json(held) is None
            else:
                self.edit_source(mediator, op, pick, value)
            answer = mediator.materialize_union(VIEW)
            assert_byte_identical(mediator, answer)
            if answer is not held:
                assert mediator.matview.answer_json(held) is None
            held = answer

    @staticmethod
    def edit_served(answer, pick, value):
        leaves = [el for el in answer.root.iter() if el.is_pcdata]
        if leaves:
            leaves[pick % len(leaves)].set_text(value)
        else:
            answer.root.append_child(journal_publication(value))

    @staticmethod
    def edit_source(mediator, op, pick, value):
        if op == "noise":
            elem("elsewhere").set_text(value)  # moves the clock only
            return
        if op == "set_text":
            leaves = [
                el
                for name in ("title", "author", "journal", "name")
                for el in source_elements(mediator, name)
            ]
            leaves[pick % len(leaves)].set_text(value)
            return
        if op in ("append", "insert"):
            entries = source_elements(mediator, "entry")
            if not entries:
                return
            entry = entries[pick % len(entries)]
            if op == "append":
                entry.append_child(journal_publication(value))
            else:
                entry.insert_child(0, journal_publication(value))
            return
        publications = source_elements(mediator, "publication")
        if publications:
            target = publications[pick % len(publications)]
            parent_of(mediator, target).remove_child(target)


class TestRefusals:
    def test_old_answer_held_across_a_delta(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        held = mediator.materialize_union(VIEW)
        assert mediator.matview.answer_json(held) is not None
        journal_pick(mediator).children[0].set_text("retitled")
        fresh = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert mediator.matview.answer_json(held) is None
        assert_byte_identical(mediator, fresh)

    def test_caller_poisoned_master(self):
        mediator = federation()
        held = mediator.materialize_union(VIEW)
        assert mediator.matview.answer_json(held) is not None
        leaf = next(el for el in held.root.iter() if el.is_pcdata)
        leaf.set_text("vandalised")
        assert mediator.matview.answer_json(held) is None
        healed = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"
        assert "vandalised" not in json.loads(
            mediator.matview.answer_json(healed)
        )

    def test_replaced_root_of_the_master(self):
        mediator = federation()
        held = mediator.materialize_union(VIEW)
        assert mediator.matview.answer_json(held) is not None
        held.replace_root(elem(VIEW))
        assert mediator.matview.answer_json(held) is None
        mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "miss"

    def test_stale_delta_fallback(self):
        mediator = federation()
        held = mediator.materialize_union(VIEW)
        assert mediator.matview.answer_json(held) is not None
        # A pick the view DTD rejects: the splice fails MED007 and the
        # entry is dropped.
        journal_pick(mediator).append_child(elem("bogus"))
        mediator.materialize_union(VIEW)
        assert mediator.matview.info()["stale_delta_fallbacks"] == 1
        assert mediator.matview.answer_json(held) is None

    def test_evicted_entry(self):
        def with_second_view(cache=None):
            mediator = federation(cache=cache)
            mediator.register_union_view(
                [
                    parse_query(
                        "everything = SELECT P WHERE <site> <entry> "
                        "P:<publication/> </> </>",
                        source=name,
                    )
                    for name in sorted(mediator.sources)
                ],
                "everything",
            )
            return mediator

        probe = with_second_view()
        probe.matview.answer_json(probe.materialize_union(VIEW))
        budget = probe.matview.info()["bytes"] + estimate_bytes(
            probe.materialize_union("everything")
        )
        mediator = with_second_view(MatViewPolicy(max_bytes=budget - 1))
        held = mediator.materialize_union(VIEW)
        assert mediator.matview.answer_json(held) is not None
        mediator.materialize_union("everything")
        assert mediator.matview.info()["evictions"] == 1
        assert mediator.matview.answer_json(held) is None

    def test_answers_the_cache_never_stored(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        bypassed = mediator.materialize_union(VIEW, cache=False)
        assert mediator.matview.answer_json(bypassed) is None
        stranger = Document(elem(VIEW))
        assert mediator.matview.answer_json(stranger) is None


class TestServedBytes:
    def test_served_hits_send_the_cached_bytes(self):
        mediator = federation()
        mediator.materialize_union(VIEW)
        before = mediator.matview.info()
        with MediatorServer(mediator) as server:
            with ServeClient(*server.address) as client:
                first = client.union(VIEW)
                second = client.union(VIEW)
                stats = client.stats()["matview"]
        assert first["cache"] == second["cache"] == "hit"
        assert first["answer"] == second["answer"] == serialize_document(
            mediator.materialize_union(VIEW)
        )
        # The byte budget is charged for the kept bytes (and the
        # fragments they were assembled from).
        cached = json.dumps(second["answer"]).encode("ascii")
        assert stats["bytes"] - before["bytes"] >= len(cached)
        assert stats["encoded_answers"] >= stats["hits"] == 2
        assert stats["fragments_built"] == len(
            mediator.materialize_union(VIEW).root.children
        )

    def test_a_delta_renders_only_the_fresh_picks(self):
        mediator = federation(n_docs=3)
        answer = mediator.materialize_union(VIEW)
        mediator.matview.answer_json(answer)
        built = mediator.matview.info()["fragments_built"]
        assert built == len(answer.root.children)
        journal_pick(mediator).children[0].set_text("retitled")
        spliced = mediator.materialize_union(VIEW)
        assert mediator.last_cache_outcome == "delta"
        assert_byte_identical(mediator, spliced)
        rendered = mediator.matview.info()["fragments_built"] - built
        assert 1 <= rendered < len(spliced.root.children)


def test_encode_without_encoded_values_is_unchanged():
    message = {"ok": True, "answer": "<a>é\n</a>", "n": [1, 2.5, None]}
    assert protocol.encode(message) == (
        json.dumps(message, separators=(",", ":")) + "\n"
    ).encode("utf-8")
