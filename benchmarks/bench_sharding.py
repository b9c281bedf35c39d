"""E24: fragmentation-aware sharding, measured — and its gates.

The PR 9 performance claim: on a **pruned workload** — a selective
view over a content-aware sharding where most fragments provably
cannot match — per-query cost falls near-linearly with the shard
count until only the matching fragments remain, because pruned shards
are never called and never scanned.  The ladder runs one bibliography
site of 256 documents (1/64 journal, the rest conference) sharded
1 → 4 → 16 → 64 ways under a journal-venue view: every conference-
pure shard is pruned statically, so the documents actually evaluated
shrink 256 → 64 → 16 → 4.

The view picks the journal venues' *name leaves* (not whole article
subtrees) so per-query cost is dominated by scanning non-matching
documents — the cost pruning removes — rather than by deep-copying a
large constant answer that every rung pays alike.

Gates:

1. **Prune correctness** (gate).  At every rung the sharded answer
   must be structurally identical to the unsharded oracle holding the
   same documents — pruning must be a proof, not a heuristic.
2. **Pruned speedup ≥ 3×** (gate).  The best-pruned rung must answer
   at least 3× faster than the single-shard baseline.
3. **Unprunable overhead** (recorded).  A smaller ladder under a view
   no fragment DTD can prune — the scatter-gather tax when sharding
   buys nothing — recorded per rung as a multiple of the baseline.

``extra_info`` carries the per-rung microseconds, called/pruned shard
counts, and speedups so ``BENCH_PR9.json`` records the claim
machine-readably (docs/SHARDING.md has the methodology).
"""

from __future__ import annotations

from measure import best_call_time
from repro.mediator import Source
from repro.obs import clear_caches
from repro.workloads import bibdb
from repro.xmas import parse_query

VIEW = "journalVenues"
LADDER = (1, 4, 16, 64)
N_DOCS = 256
JOURNAL_FRACTION = 1 / 64


def build_rung(n_shards: int, n_docs: int = N_DOCS):
    source = bibdb.sharded_source(
        "bib0",
        n_docs=n_docs,
        n_shards=n_shards,
        seed=7,
        journal_fraction=JOURNAL_FRACTION,
    )
    source.warm_indexes()
    return source


def unsharded_oracle(source):
    oracle = Source(
        "bib0", bibdb.bibdb_dtd(), list(source.documents), validate=False
    )
    oracle.warm_indexes()
    return oracle


def journal_venue_query():
    """Journal venues' name leaves: selective, prunable, tiny picks."""
    return parse_query(
        f"""
        {VIEW} = SELECT N
        WHERE <bibdb> <venue> N:<venueName/> <journalInfo/> </> </>
        """,
        source="bib0",
    )


def unprunable_query():
    """Articles everywhere: no fragment DTD can rule a shard out."""
    return parse_query(
        """
        allArticles = SELECT A
        WHERE <bibdb> <venue> <volume> <issue> A:<article/> </> </> </> </>
        """,
        source="bib0",
    )


class TestPruningLadder:
    def test_shard_ladder_prunes_near_linearly(self, benchmark):
        """Gates 1+2: oracle equality per rung, >= 3x at the best rung."""
        clear_caches()
        query = journal_venue_query()
        times: dict[int, float] = {}
        for n_shards in LADDER:
            source = build_rung(n_shards)
            oracle = unsharded_oracle(source)
            sharded_answer = source.query(query)
            oracle_answer = oracle.query(query)
            assert sharded_answer.root.structurally_equal(
                oracle_answer.root
            ), f"sharded answer diverges from oracle at {n_shards} shards"
            times[n_shards] = best_call_time(
                lambda: source.query(query), repeat=5, rounds=10
            )
            called, pruned = source.prune(query)
            benchmark.extra_info[f"shards_{n_shards}_us"] = round(
                times[n_shards] * 1e6, 2
            )
            benchmark.extra_info[f"shards_{n_shards}_called"] = len(called)
            benchmark.extra_info[f"shards_{n_shards}_pruned"] = len(pruned)
            source.close()
        baseline = times[LADDER[0]]
        for n_shards in LADDER[1:]:
            benchmark.extra_info[f"shards_{n_shards}_speedup"] = round(
                baseline / times[n_shards], 2
            )
        best_speedup = max(
            baseline / times[n_shards] for n_shards in LADDER[1:]
        )
        benchmark.extra_info["best_speedup"] = round(best_speedup, 2)
        hot = build_rung(64)
        answer = benchmark(lambda: hot.query(query))
        assert answer.root.name == VIEW
        hot.close()
        assert best_speedup >= 3, (
            f"best pruned rung is only {best_speedup:.2f}x the "
            "single-shard baseline (gate: 3x)"
        )

    def test_unprunable_gather_overhead(self, benchmark):
        """Recorded: the scatter-gather tax when pruning buys nothing."""
        clear_caches()
        query = unprunable_query()
        times: dict[int, float] = {}
        for n_shards in (1, 4, 16):
            source = build_rung(n_shards, n_docs=32)
            oracle = unsharded_oracle(source)
            assert source.query(query).root.structurally_equal(
                oracle.query(query).root
            )
            assert source.prune(query)[1] == []
            times[n_shards] = best_call_time(
                lambda: source.query(query), repeat=3, rounds=6
            )
            source.close()
        baseline = times[1]
        for n_shards, measured in times.items():
            benchmark.extra_info[f"unpruned_{n_shards}_us"] = round(
                measured * 1e6, 2
            )
            benchmark.extra_info[f"unpruned_{n_shards}_ratio"] = round(
                measured / baseline, 3
            )
        hot = build_rung(4, n_docs=32)
        answer = benchmark(lambda: hot.query(query))
        assert answer.root.name == "allArticles"
        hot.close()
