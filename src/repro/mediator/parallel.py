"""Parallel source fan-out: a union pays max, not sum, of latencies.

Every union fan-out of :class:`~repro.mediator.mediator.Mediator`
goes through :meth:`ParallelTransport.fan_out`.  Inline fan-out (a
pool of one, ``Mediator(fanout=None)``) calls each union branch's
transport in turn under one shared
:class:`~repro.mediator.transport.Deadline`; N sources cost the *sum*
of their latencies.  A larger pool dispatches the legs on worker
threads so they cost the *max* — the single largest hot-path win
left after compilation and indexing (see ``BENCH_PR7.json``).

Three properties of inline fan-out are preserved on the pool:

* **Determinism under** :class:`~repro.mediator.transport.FakeClock`.
  The fake clock doubles as a virtual-time scheduler (workers park on
  wake times; time jumps only when every worker is parked), so leg
  start times, timeout verdicts, ``CallStats``, degradation reports,
  and span timestamps are identical across runs — OS thread
  interleaving cannot leak into any observable.
* **Cooperative timeouts and shared deadlines.**  Each leg still runs
  through its :class:`~repro.mediator.transport.SourceTransport`
  against the same deadline budget; budget now drains concurrently
  (wall time), which is the point.
* **Per-source breakers.**  Breakers (and the metrics registry, and
  the engine's caches) are lock-guarded, because legs now hit them
  concurrently.

**Cost-aware dispatch.**  Every transport keeps a histogram of
measured answer latencies (``SourceTransport.latency``, the
``repro.obs`` histogram type).  The fan-out dispatches
**slowest-first** — the classic longest-processing-time heuristic:
when legs outnumber workers, starting the slowest source earliest
minimizes the makespan — and derives a **p95-based per-call timeout**
(``p95 × TIMEOUT_HEADROOM``) for sources with enough history, so a
source that has gone slow is cut off early and degraded answers under
deadline pressure preferentially keep the fast, healthy sources.

See ``docs/RELIABILITY.md`` (semantics) and ``docs/SERVING.md`` (how
the serving front end drives this) for the full story.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

from .. import obs
from ..errors import SourceTimeout, SourceUnavailable
from ..xmas import Query
from ..xmlmodel import Document
from .transport import Clock, Deadline, SourceTransport, SystemClock

#: A derived per-call timeout is this multiple of the source's p95
#: latency...
TIMEOUT_HEADROOM = 2.0
#: ...floored here, so one fast answer cannot strangle a source's
#: natural variance...
MIN_TIMEOUT = 0.05
#: ...and derived (and used to order dispatch) only after this many
#: measured answers.
MIN_HISTORY = 4


@dataclass(frozen=True)
class FanoutPolicy:
    """How a mediator parallelizes its union fan-outs.

    ``max_workers`` bounds the pool (legs beyond it queue and start as
    workers free up).  ``cost_aware`` turns slowest-first ordering and
    p95-derived timeouts (see :data:`TIMEOUT_HEADROOM`) off together
    (registration order, policy timeouts only).
    """

    max_workers: int = 4
    cost_aware: bool = True


#: The fan-out of ``fanout=None`` (a mediator's unions, a sharded
#: source's gathers): legs run one after another on the caller's
#: thread, in leg order, under the policy's timeouts only.
INLINE = FanoutPolicy(max_workers=1, cost_aware=False)


@dataclass
class LegResult:
    """One fan-out leg's outcome, in the caller's original leg order."""

    source: str
    answer: Document | None = None
    error: Exception | None = None
    #: seconds this leg spent in its transport call (clock time)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _virtual(clock: Clock) -> bool:
    """Does this clock speak the virtual-worker protocol?"""
    return hasattr(clock, "reserve_workers") and hasattr(
        clock, "claim_worker"
    )


#: Is this thread currently running a fan-out leg?  Process-wide (not
#: per-instance): a leg that fans out again through a *different*
#: ParallelTransport — a stacked mediator, or a sharded source's
#: gather inside a union leg — must also run inline.  Nesting real
#: pools squares the thread count for no win, and under a virtual
#: clock the outer worker would block unparked on the inner fan-out,
#: deadlocking the fake clock's all-parked time-advance rule.
_FANOUT_STATE = threading.local()


class ParallelTransport:
    """Fan a set of transport calls out over a bounded worker pool.

    One instance per mediator (or server); the pool is created lazily
    and shared across fan-outs.  ``fan_out`` never raises for leg
    failures the transport classifies (:class:`SourceTimeout` /
    :class:`SourceUnavailable` land in the :class:`LegResult`); any
    *other* exception escaping a leg is a bug and is re-raised.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        policy: FanoutPolicy | None = None,
    ) -> None:
        self.clock: Clock = clock or SystemClock()
        self.policy = policy or INLINE
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        #: fan-outs dispatched in parallel / answered inline
        self.parallel_fanouts = 0
        self.inline_fanouts = 0

    # -- cost model ------------------------------------------------------

    def dispatch_order(
        self, legs: list[tuple[SourceTransport, Query]]
    ) -> list[int]:
        """Leg indexes in dispatch order (slowest p95 first).

        Sources without enough latency history sort ahead of known
        ones — an unmeasured source must be assumed slow, and starting
        it early is free when it turns out fast.  Ties (and the
        cost-model-off case) keep registration order, so the order is
        always deterministic.
        """
        indexes = list(range(len(legs)))
        if not self.policy.cost_aware:
            return indexes
        estimates: list[float] = []
        for transport, _ in legs:
            p95 = None
            if transport.latency.count >= MIN_HISTORY:
                p95 = transport.latency_quantile(0.95)
            estimates.append(float("inf") if p95 is None else p95)
        indexes.sort(key=lambda i: (-estimates[i], i))
        return indexes

    def derived_timeout(self, transport: SourceTransport) -> float | None:
        """The p95-based per-call timeout for one leg (None = policy).

        Only derived once the source has ``MIN_HISTORY`` measured
        answers; the transport takes the *minimum* of this and its
        policy timeout, so derivation can only tighten.
        """
        if not self.policy.cost_aware:
            return None
        if transport.latency.count < MIN_HISTORY:
            return None
        p95 = transport.latency_quantile(0.95)
        if p95 is None:
            return None
        return max(MIN_TIMEOUT, p95 * TIMEOUT_HEADROOM)

    # -- fan-out ---------------------------------------------------------

    def fan_out(
        self,
        legs: list[tuple[SourceTransport, Query]],
        deadline: Deadline | None = None,
    ) -> list[LegResult]:
        """Call every leg; results come back in the input leg order."""
        if not legs:
            return []
        workers = min(self.policy.max_workers, len(legs))
        if workers <= 1 or len(legs) == 1 or getattr(
            _FANOUT_STATE, "active", False
        ):
            # Single-source serving path (the <5% overhead gate), a
            # worker-pool of one, or a nested fan-out from inside a
            # worker (stacked mediators, sharded-source gathers): run
            # inline — no threads, no pool, just the cost model.
            self.inline_fanouts += 1
            return [
                self._run_leg(transport, query, deadline)
                for transport, query in legs
            ]
        self.parallel_fanouts += 1
        order = self.dispatch_order(legs)
        results: list[LegResult | None] = [None] * len(legs)
        work: deque = deque()
        for index in order:
            transport, query = legs[index]
            leg_span = obs.start_span("fanout.leg")
            leg_span.set_attribute("source", transport.name)
            work.append((index, transport, query, leg_span))
        virtual = _virtual(self.clock)
        if virtual:
            # Reserve before any worker can run: a worker that parks
            # before its siblings' threads start must not advance time.
            self.clock.reserve_workers(workers)
        futures = [
            self._pool().submit(self._runner, work, results, deadline, virtual)
            for _ in range(workers)
        ]
        wait(futures)
        for future in futures:
            future.result()  # surface runner bugs, never leg failures
        return [result for result in results if result is not None]

    def _runner(
        self,
        work: deque,
        results: list,
        deadline: Deadline | None,
        virtual: bool,
    ) -> None:
        if virtual:
            self.clock.claim_worker()
        _FANOUT_STATE.active = True
        try:
            while True:
                try:
                    index, transport, query, leg_span = work.popleft()
                except IndexError:
                    break
                with obs.attach(leg_span):
                    results[index] = self._run_leg(
                        transport, query, deadline
                    )
                obs.finish_span(leg_span)
        finally:
            _FANOUT_STATE.active = False
            if virtual:
                self.clock.release_worker()

    def _run_leg(
        self,
        transport: SourceTransport,
        query: Query,
        deadline: Deadline | None,
    ) -> LegResult:
        started = self.clock.now()
        try:
            answer = transport.call(
                query, deadline, timeout=self.derived_timeout(transport)
            )
        except (SourceTimeout, SourceUnavailable) as error:
            return LegResult(
                source=transport.name,
                error=error,
                elapsed=self.clock.now() - started,
            )
        return LegResult(
            source=transport.name,
            answer=answer,
            elapsed=self.clock.now() - started,
        )

    # -- pool lifecycle --------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = self._executor = ThreadPoolExecutor(
                        max_workers=self.policy.max_workers,
                        thread_name_prefix="repro-fanout",
                    )
        return executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "ParallelTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
