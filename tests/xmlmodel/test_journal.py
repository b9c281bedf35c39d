"""Tests for the bounded mutation journal (:mod:`repro.xmlmodel.element`).

Every freshness question -- is a cached document index still exact,
is a served matview master intact, which contributing documents are
dirty -- is answered from the journal suffix after a stamp.  The
differential below checks each answer against the per-element scans
kept in :mod:`tests.oracles`: equal whenever the journal reaches back
to the stamp, and never "fresh" where the scan says stale once it
does not.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mediator import FakeClock, FaultPlan, MatViewPolicy
from repro.obs import clear_caches
from repro.workloads.flaky import build_flaky_federation
from repro.xmlmodel import Document, document_index, elem, text_elem
from repro.xmlmodel import element as journal
from repro.xmlmodel.element import (
    JOURNAL_SIZE,
    mutation_stamp,
    touched_since,
)
from repro.xmlmodel.index import _INDEX_CACHE, _revalidate
from tests import oracles

VIEW = "journals"


@pytest.fixture(autouse=True)
def fresh():
    clear_caches()
    yield
    clear_caches()


class TestTouchedSince:
    def test_suffix_newest_first_with_repeats(self):
        a, b = text_elem("a", "1"), text_elem("b", "2")
        stamp = mutation_stamp()
        assert touched_since(stamp) == []
        a.set_text("x")
        b.set_attribute("k", "v")
        a.set_text("y")
        assert touched_since(stamp) == [a, b, a]
        assert touched_since(stamp + 2) == [a]
        assert touched_since(mutation_stamp()) == []

    def test_replace_root_journals_the_document(self):
        document = Document(elem("list"))
        stamp = mutation_stamp()
        document.replace_root(elem("list"))
        assert touched_since(stamp) == [document]

    def test_unknown_once_the_journal_no_longer_reaches_back(self):
        leaf = text_elem("a", "0")
        stamp = mutation_stamp()
        for i in range(JOURNAL_SIZE):
            leaf.set_text(str(i))
        assert len(touched_since(stamp)) == JOURNAL_SIZE
        leaf.set_text("one more")
        assert touched_since(stamp) is None
        assert touched_since(stamp + 1) == [leaf] * JOURNAL_SIZE

    def test_overflow_rebuilds_the_index(self):
        document = Document(elem("list", text_elem("title", "t")))
        index = document_index(document)
        noise = text_elem("noise", "")
        for i in range(JOURNAL_SIZE + 1):
            noise.set_text(str(i))
        assert not index.fresh_at(index.stamp)
        rebuilt = document_index(document)
        assert rebuilt is not index
        assert rebuilt.fresh_at(rebuilt.stamp)


class TestConcurrentStamps:
    THREADS = 4
    EDITS = 2000

    def test_racing_edits_get_distinct_stamps_and_readers_never_raise(self):
        # Every edit advances the clock by exactly one under the
        # journal's lock: a lost update would leave the clock short of
        # the number of edits and two edits sharing a stamp.
        leaves = [text_elem(f"t{i}", "") for i in range(self.THREADS)]
        start = mutation_stamp()
        done = threading.Event()
        errors: list[BaseException] = []

        def edit(leaf):
            for i in range(self.EDITS):
                leaf.set_text(str(i))

        def read():
            while not done.is_set():
                try:
                    touched_since(max(start, mutation_stamp() - 64))
                    touched_since(start)
                except BaseException as exc:  # the invariant under test
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            writers = [
                threading.Thread(target=edit, args=(leaf,)) for leaf in leaves
            ]
            reader.start()
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in writers)
        assert not reader.is_alive()
        assert errors == []
        assert mutation_stamp() - start == self.THREADS * self.EDITS
        stamps = [stamp for stamp, _ in journal._journal]
        assert stamps == list(range(stamps[0], stamps[0] + len(stamps)))
        assert stamps[-1] == mutation_stamp()


# -- differential: journal against the per-element scans ----------------------

OPS = (
    "read", "index", "set_text", "set_attribute", "append_child",
    "insert_child", "remove_child", "set_content", "replace_root",
    "unrelated", "master", "burst",
)


def _federation(seed):
    return build_flaky_federation(
        FakeClock(),
        plans={f"site{i}": FaultPlan() for i in range(3)},
        n_sources=3,
        n_docs=2,
        seed=seed,
        cache=MatViewPolicy(),
    )


def _entry(mediator):
    entries = mediator.matview._entries
    return next(iter(entries.items()), (None, None))


def _apply(op, pick, mediator, documents, unrelated):
    document = documents[pick % len(documents)]
    elements = list(document.root.iter())
    inner = [el for el in elements if not el.is_pcdata]
    leaves = [el for el in elements if el.is_pcdata] or elements
    if op == "read":
        mediator.materialize_union(VIEW)
    elif op == "index":
        document_index(document)
    elif op == "set_text":
        leaves[pick % len(leaves)].set_text(f"t{pick}")
    elif op == "set_attribute":
        elements[pick % len(elements)].set_attribute("k", str(pick))
    elif op in ("append_child", "insert_child") and not inner:
        pass  # set_text can turn the last element node into PCDATA
    elif op == "append_child":
        inner[pick % len(inner)].append_child(
            elem("publication", text_elem("title", f"a{pick}"),
                 text_elem("journal", "j"))
        )
    elif op == "insert_child":
        inner[pick % len(inner)].insert_child(0, text_elem("title", "i"))
    elif op == "remove_child":
        parents = [el for el in inner if el.children]
        if parents:
            parent = parents[pick % len(parents)]
            parent.remove_child(parent.children[pick % len(parent.children)])
    elif op == "set_content":
        if pick % 2 or not inner:
            leaves[pick % len(leaves)].set_content(f"c{pick}")
        else:
            target = inner[pick % len(inner)]
            target.set_content(list(reversed(target.children)))
    elif op == "replace_root":
        document.replace_root(document.root.deep_copy(fresh_ids=True))
    elif op == "unrelated":
        unrelated.root.children[0].set_text(f"u{pick}")
    elif op == "master":
        _, entry = _entry(mediator)
        if entry is not None:
            served = list(entry.answer.root.iter())
            target = served[pick % len(served)]
            if target.is_pcdata:
                target.set_text(f"m{pick}")
            else:
                target.append_child(text_elem("title", "m"))
    elif op == "burst":
        # around the journal's size: some bursts still fit, some not
        leaf = unrelated.root.children[0]
        for i in range(JOURNAL_SIZE - 2 + pick % 5):
            leaf.set_text(str(i))


def _check(mediator, documents, unrelated, version):
    stamp = mutation_stamp()
    for document in [*documents, unrelated]:
        index = _INDEX_CACHE.get(document)
        if index is None:
            continue
        mine = _revalidate(index, stamp)
        if touched_since(index.stamp) is None:
            assert mine == "rebuild"
            assert not index.fresh_at(index.stamp)
            continue
        assert mine == oracles.index_verdict(document, index, stamp, version)
        assert index.fresh_at(index.stamp) == oracles.index_is_fresh(
            document, index, version
        )
    key, entry = _entry(mediator)
    if entry is None:
        return
    cache = mediator.matview
    if touched_since(entry.stamp) is None:
        assert entry.answer_intact() is None
        assert cache.peek(key) == "recompute"
        return
    assert entry.answer_intact() == oracles.answer_intact(entry, version)
    for state in entry.docs:
        assert state.index.fresh_at(entry.stamp) == oracles.doc_fresh_at(
            state, entry.stamp, version
        )
    assert cache.peek(key) == oracles.matview_peek(
        cache, key, version
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=3),
    steps=st.lists(
        st.tuples(
            st.sampled_from(OPS), st.integers(min_value=0, max_value=10_000)
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_journal_answers_equal_the_scans(seed, steps):
    clear_caches()
    with oracles.recording_versions() as version:
        mediator = _federation(seed)
        documents = [
            document
            for source in mediator.sources.values()
            for document in source.documents
        ]
        unrelated = Document(elem("list", text_elem("title", "u")))
        document_index(unrelated)
        mediator.materialize_union(VIEW)
        _check(mediator, documents, unrelated, version)
        for op, pick in steps:
            _apply(op, pick, mediator, documents, unrelated)
            _check(mediator, documents, unrelated, version)
