"""Tests for the parallel union fan-out (:mod:`repro.mediator.parallel`).

The defining property under test: with a :class:`FakeClock`, the
parallel fan-out is *deterministic* — the virtual-time scheduler only
advances the clock when every fan-out worker is parked, so timeout
verdicts, trace timestamps, and health counters are pure functions of
the scheduled latencies, independent of OS thread interleaving — and
a union over N sources costs the **max**, not the sum, of its legs.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.mediator import (
    BreakerPolicy,
    FakeClock,
    FanoutPolicy,
    FaultPlan,
    ParallelTransport,
    RetryPolicy,
    TransportPolicy,
)
from repro.mediator.faults import slow
from repro.mediator.parallel import MIN_HISTORY
from repro.workloads.flaky import build_flaky_federation

LATENCIES = [0.1, 0.2, 0.3, 0.4]


def latency_plans(latencies=LATENCIES):
    return {
        f"site{i}": FaultPlan(latency=latency)
        for i, latency in enumerate(latencies)
    }


def build(clock, fanout, plans=None, n_sources=4, **kwargs):
    return build_flaky_federation(
        clock,
        n_sources=n_sources,
        plans=plans if plans is not None else latency_plans(),
        fanout=fanout,
        **kwargs,
    )


class TestParallelCostsTheMax:
    def test_union_latency_is_max_of_legs(self):
        clock = FakeClock()
        mediator = build(clock, FanoutPolicy(max_workers=4))
        start = clock.now()
        mediator.materialize_union("journals", mediator.deadline(5.0))
        assert clock.now() - start == pytest.approx(max(LATENCIES))
        mediator.close()

    def test_sequential_costs_the_sum(self):
        clock = FakeClock()
        mediator = build(clock, fanout=None)
        start = clock.now()
        mediator.materialize_union("journals", mediator.deadline(5.0))
        assert clock.now() - start == pytest.approx(sum(LATENCIES))

    def test_bounded_pool_costs_the_makespan(self):
        # 2 workers over legs of 0.1/0.2/0.3/0.4s.  Slowest-first
        # dispatch packs them 0.4+0.1 and 0.3+0.2:
        # makespan 0.5, better than in-order dispatch's 0.6.
        clock = FakeClock()
        mediator = build(clock, FanoutPolicy(max_workers=2))
        for transport, latency in zip(
            mediator.transports.values(), LATENCIES
        ):
            transport.latency.observe(latency)
            transport.latency.observe(latency)
            transport.latency.observe(latency)
            transport.latency.observe(latency)
        start = clock.now()
        mediator.materialize_union("journals", mediator.deadline(5.0))
        assert clock.now() - start == pytest.approx(0.5)
        mediator.close()

    def test_parallel_and_sequential_answers_agree(self):
        # Inline (fanout=None), a one-worker pool, and a four-worker
        # pool over a federation with a dead site: same answer bytes,
        # same degradation report, same degrade=False error.
        from repro.errors import SourceTimeout, SourceUnavailable
        from repro.xmlmodel import serialize_document

        def dead_site_plans():
            plans = latency_plans()
            plans["site1"] = FaultPlan(dead=True)
            return plans

        modes = (
            None,
            FanoutPolicy(max_workers=1),
            FanoutPolicy(max_workers=4),
        )
        answers, reports, errors = [], [], []
        for fanout in modes:
            mediator = build(FakeClock(), fanout, plans=dead_site_plans())
            document = mediator.materialize_union(
                "journals", mediator.deadline(5.0)
            )
            answers.append(serialize_document(document))
            reports.append(mediator.last_degradation.describe())
            mediator.close()
            mediator = build(FakeClock(), fanout, plans=dead_site_plans())
            with pytest.raises((SourceTimeout, SourceUnavailable)) as excinfo:
                mediator.materialize_union(
                    "journals", mediator.deadline(5.0), degrade=False
                )
            errors.append((type(excinfo.value), str(excinfo.value)))
            mediator.close()
        assert len(set(answers)) == 1
        assert len(set(reports)) == 1
        assert "site1" in reports[0]
        assert len(set(errors)) == 1
        assert "site1" in errors[0][1]


class TestDispatchOrder:
    @staticmethod
    def make_legs(estimates):
        class FakeHistogram:
            def __init__(self, p95):
                # enough history iff an estimate exists
                self.count = 8 if p95 is not None else 0
                self._p95 = p95

            def quantile(self, q=0.95):
                return self._p95

        return [
            (f"s{i}", None, FakeHistogram(p95))
            for i, p95 in enumerate(estimates)
        ]

    def test_slowest_first(self):
        transport = ParallelTransport(FakeClock(), FanoutPolicy())
        legs = self.make_legs([0.1, 0.4, 0.2])
        order = transport.dispatch_order(legs)
        assert order == [1, 2, 0]

    def test_unknown_history_goes_first(self):
        # A source with no latency history could be arbitrarily slow:
        # schedule it before known-fast sources.
        transport = ParallelTransport(FakeClock(), FanoutPolicy())
        legs = self.make_legs([0.1, None, 0.2])
        order = transport.dispatch_order(legs)
        assert order == [1, 2, 0]

    def test_legs_without_history_keep_leg_order(self):
        # A shard gather's legs keep no histogram: shard order.
        transport = ParallelTransport(FakeClock(), FanoutPolicy())
        legs = [(f"s{i}", None, None) for i in range(3)]
        assert transport.dispatch_order(legs) == [0, 1, 2]


class TestOneTimeoutRule:
    """Only the policy timeout and the shared deadline bound a call."""

    def test_healthy_slow_leg_is_never_abandoned(self):
        # A source measured at 10 ms that answers once in 200 ms is
        # slow, not broken: inside a 1 s policy timeout and a 5 s
        # deadline its answer is kept, not discarded and retried.
        clock = FakeClock()
        plans = latency_plans([0.01, 0.01])
        plans["site0"] = FaultPlan(
            schedule=[slow(0.01)] * MIN_HISTORY + [slow(0.2)]
        )
        mediator = build(
            clock,
            FanoutPolicy(max_workers=2),
            plans=plans,
            n_sources=2,
            policy=TransportPolicy(timeout=1.0),
        )
        for _ in range(MIN_HISTORY):
            mediator.materialize_union("journals", mediator.deadline(5.0))
        transport = mediator.transports["site0"]
        assert transport.latency.count == MIN_HISTORY
        mediator.materialize_union("journals", mediator.deadline(5.0))
        assert mediator.last_degradation is None
        assert mediator.parallel.parallel_fanouts == MIN_HISTORY + 1
        assert transport.stats.successes == MIN_HISTORY + 1
        assert transport.stats.retries == 0
        assert transport.stats.timeouts == 0
        mediator.close()


class TestDegradedParallel:
    def test_dead_source_is_skipped_not_fatal(self):
        clock = FakeClock()
        plans = latency_plans()
        plans["site3"] = FaultPlan(dead=True)
        mediator = build(clock, FanoutPolicy(max_workers=4), plans=plans)
        document = mediator.materialize_union(
            "journals", mediator.deadline(5.0)
        )
        assert document is not None
        report = mediator.last_degradation
        assert report is not None
        assert set(report.skipped) == {"site3"}
        assert report.answered == ["site0", "site1", "site2"]
        mediator.close()

    def test_degrade_false_raises_first_branch_error(self):
        from repro.errors import SourceUnavailable

        clock = FakeClock()
        plans = latency_plans()
        plans["site1"] = FaultPlan(dead=True)
        mediator = build(clock, FanoutPolicy(max_workers=4), plans=plans)
        with pytest.raises(SourceUnavailable) as excinfo:
            mediator.materialize_union(
                "journals", mediator.deadline(5.0), degrade=False
            )
        assert "site1" in str(excinfo.value)
        mediator.close()

    def test_slow_source_cut_off_by_deadline(self):
        clock = FakeClock()
        plans = latency_plans([0.1, 0.1, 0.1, 9.0])
        mediator = build(
            clock,
            FanoutPolicy(max_workers=4),
            plans=plans,
            policy=TransportPolicy(
                timeout=20.0, retry=RetryPolicy(attempts=1)
            ),
        )
        start = clock.now()
        document = mediator.materialize_union(
            "journals", mediator.deadline(1.0)
        )
        # Timeouts are cooperative: the slow leg's answer arrives at
        # 9.0s virtual time, is measured against the 1.0s budget, and
        # is discarded — the union degrades instead of waiting on a
        # retry ladder for a source that cannot make the deadline.
        assert clock.now() - start == pytest.approx(9.0)
        assert document is not None
        report = mediator.last_degradation
        assert set(report.skipped) == {"site3"}
        assert mediator.transports["site3"].stats.timeouts >= 1
        mediator.close()


class TestInlineFallback:
    def test_single_leg_runs_inline(self):
        clock = FakeClock()
        mediator = build(
            clock,
            FanoutPolicy(max_workers=4),
            plans=latency_plans([0.1]),
            n_sources=1,
        )
        mediator.materialize_union("journals", mediator.deadline(5.0))
        # One branch: the mediator skips the pool entirely.
        assert mediator.parallel.parallel_fanouts == 0
        mediator.close()

    def test_max_workers_one_runs_inline(self):
        clock = FakeClock()
        mediator = build(clock, FanoutPolicy(max_workers=1))
        start = clock.now()
        mediator.materialize_union("journals", mediator.deadline(5.0))
        assert clock.now() - start == pytest.approx(sum(LATENCIES))
        assert mediator.parallel.inline_fanouts == 1
        mediator.close()


class TestDeterminism:
    """Identical seeds and fault plans ⇒ identical *everything*."""

    POLICY = TransportPolicy(
        retry=RetryPolicy(attempts=4, base_delay=0.01),
        breaker=BreakerPolicy(failure_rate=0.9),
    )

    def run_once(self, max_workers):
        obs.clear_caches()
        clock = FakeClock()
        tracer = obs.install_tracer(obs.Tracer(clock=clock))
        try:
            mediator = build_flaky_federation(
                clock,
                policy=self.POLICY,
                n_sources=4,
                fanout=FanoutPolicy(max_workers=max_workers),
            )
            for _ in range(3):
                mediator.materialize_union(
                    "journals", mediator.deadline(5.0)
                )
            report = mediator.last_degradation
            outcome = {
                "trace": tracer.render(),
                "degradation": report.describe() if report else None,
                "health": mediator.health(),
                "stats": {
                    name: vars(transport.stats).copy()
                    for name, transport in sorted(
                        mediator.transports.items()
                    )
                },
                "elapsed": clock.now(),
            }
            mediator.close()
            return outcome
        finally:
            obs.uninstall_tracer()

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_repeated_runs_identical(self, max_workers):
        first = self.run_once(max_workers)
        second = self.run_once(max_workers)
        for key in ("degradation", "health", "stats", "elapsed"):
            assert first[key] == second[key], key
        assert first["trace"] == second["trace"]

    def test_trace_children_follow_dispatch_order(self):
        # Leg spans are pre-created on the dispatching thread, so the
        # trace tree is stable even though legs finish concurrently.
        outcome = self.run_once(4)
        legs = [
            line.strip().split("source=")[1]
            for line in outcome["trace"].splitlines()
            if "fanout.leg" in line
        ]
        assert len(legs) == 12  # 4 legs x 3 requests
        # Within one request the legs appear in dispatch order, which
        # for a fresh mediator (no latency history) is branch order.
        assert legs[:4] == ["site0", "site1", "site2", "site3"]


class TestVirtualClockScheduler:
    def test_time_never_advances_while_a_worker_runs(self):
        # A worker that reads the clock twice without sleeping sees no
        # time pass, even with siblings sleeping concurrently.
        clock = FakeClock()
        mediator = build(clock, FanoutPolicy(max_workers=4))
        before = clock.now()
        mediator.materialize_union("journals", mediator.deadline(5.0))
        # All sleeps resolved; the final time is exactly the makespan,
        # not makespan plus scheduling noise.
        assert clock.now() == before + max(LATENCIES)
        mediator.close()

    def test_reserve_workers_blocks_early_advance(self):
        import threading

        clock = FakeClock()
        clock.reserve_workers(2)
        results = []

        def sleeper(duration):
            clock.claim_worker()
            try:
                clock.sleep(duration)
                results.append((duration, clock.now()))
            finally:
                clock.release_worker()

        threads = [
            threading.Thread(target=sleeper, args=(d,))
            for d in (0.3, 0.1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(results) == [(0.1, 0.1), (0.3, 0.3)]
        assert clock.now() == pytest.approx(0.3)
