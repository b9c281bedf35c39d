"""E22: the parallel fan-out, measured — max-not-sum and its gates.

The PR 7 performance claim has three parts, each pinned here:

1. **Single-source overhead < 5%** (gate).  A mediator configured with
   a :class:`FanoutPolicy` serves a one-branch union through the
   inline path — no threads, no pool.  The parallel machinery (cost
   model probe, inline dispatch) must cost < 5% over a ``fanout=None``
   mediator on the compiled-engine serving path.  Every union now
   goes through ``ParallelTransport.fan_out``, so the gate measures
   real inline dispatch on both sides (a one-branch union used to skip
   the transport on both); the configured side adds the cost-model
   probe.
2. **4-source fan-out within 1.3× the slowest source** (gate).  On the
   *system* clock, four sources with equal injected latency L answer a
   union in ≤ 1.3 L when fanned out in parallel, where inline fan-out
   (``fanout=None``) needs ~4 L.  Real sleeps, real threads — this is
   the wall-clock claim the serving front end inherits.
3. **Virtual-time economics** (recorded).  The same federation on
   :class:`FakeClock`: parallel virtual cost = max(latencies),
   inline = sum(latencies) — exact, deterministic, asserted.

``extra_info`` carries the measured ratios so ``BENCH_PR7.json``
records the claim machine-readably (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import time

import pytest

from measure import overhead_ratio
from repro.mediator import (
    FakeClock,
    FanoutPolicy,
    FaultPlan,
    SystemClock,
    TransportPolicy,
)
from repro.workloads import flaky

#: injected per-source latency for the wall-clock fan-out rung (small
#: enough to keep `make bench-smoke` fast, large enough to dwarf
#: dispatch overhead)
LATENCY = 0.04
N_SOURCES = 4


def latency_plans(latency: float = LATENCY) -> dict[str, FaultPlan]:
    return {
        f"site{i}": FaultPlan(latency=latency) for i in range(N_SOURCES)
    }


def build_real_clock_federation(fanout: FanoutPolicy | None):
    mediator = flaky.build_flaky_federation(
        SystemClock(),
        n_sources=N_SOURCES,
        plans=latency_plans(),
        fanout=fanout,
    )
    mediator.warm()
    return mediator


def best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestSingleSourceOverhead:
    def test_inline_fanout_overhead_under_5_percent(self, benchmark):
        """Gate: FanoutPolicy must be free when there is one branch."""

        def build(fanout):
            mediator = flaky.build_flaky_federation(
                SystemClock(),
                n_sources=1,
                n_docs=6,
                plans={"site0": FaultPlan()},
                seed=11,
                fanout=fanout,
            )
            mediator.warm()
            deadline = None
            return mediator, deadline

        sequential, _ = build(None)
        parallel, _ = build(FanoutPolicy(max_workers=4))
        # warm plan caches and latency histograms on both
        sequential.materialize_union("journals")
        parallel.materialize_union("journals")

        base, inline, overhead = overhead_ratio(
            lambda: sequential.materialize_union("journals"),
            lambda: parallel.materialize_union("journals"),
        )
        answer = benchmark(
            lambda: parallel.materialize_union("journals")
        )
        assert answer.root.name == "journals"
        benchmark.extra_info["sequential_us"] = round(base * 1e6, 2)
        benchmark.extra_info["inline_parallel_us"] = round(inline * 1e6, 2)
        benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
        # The single-branch union never touches the pool.
        assert parallel.parallel.parallel_fanouts == 0
        assert overhead < 0.05, (
            f"a FanoutPolicy costs {overhead:.1%} over a fanout=None "
            "mediator on a single-source union"
        )
        parallel.close()


class TestWallClockFanout:
    def test_four_sources_cost_max_not_sum(self, benchmark):
        """Gate: 4 equal-latency sources answer within 1.3x one source."""
        parallel = build_real_clock_federation(
            FanoutPolicy(max_workers=N_SOURCES)
        )
        sequential = build_real_clock_federation(None)
        # Warm (first call builds plan caches and latency history).
        parallel.materialize_union("journals", parallel.deadline(5.0))
        sequential.materialize_union(
            "journals", sequential.deadline(5.0)
        )

        elapsed_parallel = best_of(
            lambda: parallel.materialize_union(
                "journals", parallel.deadline(5.0)
            )
        )
        elapsed_sequential = best_of(
            lambda: sequential.materialize_union(
                "journals", sequential.deadline(5.0)
            )
        )
        answer = benchmark.pedantic(
            lambda: parallel.materialize_union(
                "journals", parallel.deadline(5.0)
            ),
            rounds=3,
            iterations=1,
        )
        assert answer.root.name == "journals"
        ratio = elapsed_parallel / LATENCY
        benchmark.extra_info["latency_s"] = LATENCY
        benchmark.extra_info["parallel_s"] = round(elapsed_parallel, 4)
        benchmark.extra_info["sequential_s"] = round(elapsed_sequential, 4)
        benchmark.extra_info["parallel_over_slowest"] = round(ratio, 3)
        benchmark.extra_info["speedup"] = round(
            elapsed_sequential / elapsed_parallel, 2
        )
        assert ratio <= 1.3, (
            f"parallel 4-source union took {ratio:.2f}x the slowest "
            f"source (gate: 1.3x)"
        )
        # Inline fan-out really does pay the sum (sanity for the
        # speedup headline; generous bound to stay timing-robust).
        assert elapsed_sequential >= 3.5 * LATENCY
        parallel.close()
        sequential.close()


class TestVirtualTimeEconomics:
    LATENCIES = [0.1, 0.2, 0.3, 0.4]

    def build(self, fanout):
        return flaky.build_flaky_federation(
            FakeClock(),
            n_sources=4,
            plans={
                f"site{i}": FaultPlan(latency=latency)
                for i, latency in enumerate(self.LATENCIES)
            },
            fanout=fanout,
        )

    def test_parallel_virtual_cost_is_the_max(self, benchmark):
        """Deterministic: virtual elapsed == max(latencies), exactly.

        The timing measures the *machinery* (threads, scheduler,
        spans) — the virtual sleeps are free.
        """
        mediator = self.build(FanoutPolicy(max_workers=4))

        def run():
            start = mediator.clock.now()
            mediator.materialize_union("journals", mediator.deadline(5.0))
            return mediator.clock.now() - start

        virtual = benchmark(run)
        assert virtual == pytest.approx(max(self.LATENCIES))
        benchmark.extra_info["virtual_elapsed_s"] = virtual
        benchmark.extra_info["virtual_sequential_s"] = sum(self.LATENCIES)
        mediator.close()

    def test_sequential_virtual_cost_is_the_sum(self, benchmark):
        mediator = self.build(None)

        def run():
            start = mediator.clock.now()
            mediator.materialize_union("journals", mediator.deadline(5.0))
            return mediator.clock.now() - start

        virtual = benchmark(run)
        assert virtual == pytest.approx(sum(self.LATENCIES))
        benchmark.extra_info["virtual_elapsed_s"] = virtual


class TestServeThroughput:
    def test_server_answers_concurrent_load(self, benchmark):
        """The serving front end under load: all answered, qps recorded."""
        from repro.serve import (
            MediatorServer,
            ServePolicy,
            build_paper_federation,
            run_bench,
        )

        mediator = build_paper_federation(
            n_sources=4, fanout=FanoutPolicy(max_workers=4)
        )
        with MediatorServer(
            mediator, ServePolicy(max_inflight=8)
        ) as server:
            host, port = server.address

            def run():
                return run_bench(
                    host, port, "journals", requests=50, concurrency=8
                )

            result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result["answered"] == 50
        assert result["failures"] == 0
        benchmark.extra_info["qps"] = result["qps"]
        benchmark.extra_info["p95_s"] = result["latency"]["p95"]
