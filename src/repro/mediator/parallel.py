"""Parallel fan-out: a union pays max, not sum, of latencies.

Every union fan-out of :class:`~repro.mediator.mediator.Mediator` and
every shard gather of :class:`~repro.mediator.sharding.ShardedSource`
goes through :meth:`ParallelTransport.fan_out`.  A leg is
``(name, call, latency)``: ``call()`` answers it, and ``latency`` is
the histogram its dispatch order reads (``None`` for none).  A union
leg calls its source's
:class:`~repro.mediator.transport.SourceTransport`, the one layer that
times, retries and breaks a source call; a shard leg calls the shard's
``query()`` directly, so a sharded source is retried as one logical
source by its mediator's transport.

Inline fan-out (a pool of one, ``fanout=None``) calls the legs in
turn, in leg order; N sources cost the *sum* of their latencies.  A
larger pool dispatches the legs on worker threads so they cost the
*max* — the single largest hot-path win left after compilation and
indexing (see ``BENCH_PR7.json``).

Two properties of inline fan-out are preserved on the pool:

* **Determinism under** :class:`~repro.mediator.transport.FakeClock`.
  The fake clock doubles as a virtual-time scheduler (workers park on
  wake times; time jumps only when every worker is parked), so leg
  start times, timeout verdicts, ``CallStats``, degradation reports,
  and span timestamps are identical across runs — OS thread
  interleaving cannot leak into any observable.
* **Shared deadlines and per-source breakers.**  A union leg's call
  carries the fan-out's :class:`~repro.mediator.transport.Deadline`,
  whose budget now drains concurrently (wall time), which is the
  point.  Breakers (and the metrics registry, and the engine's caches)
  are lock-guarded, because legs now hit them concurrently.

**Slowest-first dispatch.**  A pooled fan-out starts the legs with
the slowest measured p95 first — the classic longest-processing-time
heuristic: when legs outnumber workers, starting the slowest source
earliest minimizes the makespan.  Dispatch order changes no answer
and no timeout; only the policy timeout and the shared deadline bound
a call.

See ``docs/RELIABILITY.md`` (semantics) and ``docs/SERVING.md`` (how
the serving front end drives this) for the full story.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

from .. import obs
from ..errors import ReproError
from ..xmlmodel import Document
from .transport import Clock, SystemClock

#: A leg's latency history orders dispatch only after this many
#: measured answers.
MIN_HISTORY = 4

#: One fan-out leg: its name, the call that answers it, and the
#: latency histogram dispatch order reads (None keeps leg order).
Leg = tuple[str, Callable[[], Document], obs.Histogram | None]


@dataclass(frozen=True)
class FanoutPolicy:
    """How a mediator parallelizes its fan-outs.

    ``max_workers`` bounds the pool (legs beyond it queue and start as
    workers free up, slowest p95 first).
    """

    max_workers: int = 4


#: The fan-out of ``fanout=None`` (a mediator's unions, a sharded
#: source's gathers): legs run one after another on the caller's
#: thread, in leg order.
INLINE = FanoutPolicy(max_workers=1)


@dataclass
class LegResult:
    """One fan-out leg's outcome, in the caller's original leg order."""

    source: str
    answer: Document | None = None
    error: Exception | None = None


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
    """Fan a set of legs out over a bounded worker pool.

    One instance per mediator (or sharded source); the pool is created
    lazily and shared across fan-outs.  ``fan_out`` never raises for a
    leg's :class:`~repro.errors.ReproError` (it lands in the
    :class:`LegResult`); any *other* exception escaping a leg is a bug
    and is re-raised.
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

    @staticmethod
    def dispatch_order(legs: list[Leg]) -> list[int]:
        """Leg indexes in dispatch order (slowest p95 first).

        A leg with too little latency history (or none kept) sorts
        ahead of measured ones — an unmeasured source must be assumed
        slow, and starting it early is free when it turns out fast.
        Ties keep leg order, so the order is always deterministic.
        """
        estimates: list[float] = []
        for _, _, latency in legs:
            p95 = None
            if latency is not None and latency.count >= MIN_HISTORY:
                p95 = latency.quantile(0.95)
            estimates.append(float("inf") if p95 is None else p95)
        return sorted(range(len(legs)), key=lambda i: (-estimates[i], i))

    def fan_out(self, legs: list[Leg]) -> list[LegResult]:
        """Call every leg; results come back in the input leg order."""
        if not legs:
            return []
        workers = min(self.policy.max_workers, len(legs))
        if workers <= 1 or getattr(_FANOUT_STATE, "active", False):
            # Single-source serving path (the <5% overhead gate), a
            # worker-pool of one, or a nested fan-out from inside a
            # worker (stacked mediators, sharded-source gathers): run
            # inline, in leg order — no threads, no pool.
            self.inline_fanouts += 1
            return [self._run_leg(name, call) for name, call, _ in legs]
        self.parallel_fanouts += 1
        results: list[LegResult | None] = [None] * len(legs)
        work: deque = deque()
        for index in self.dispatch_order(legs):
            name, call, _ = legs[index]
            leg_span = obs.start_span("fanout.leg")
            leg_span.set_attribute("source", name)
            work.append((index, name, call, leg_span))
        virtual = _virtual(self.clock)
        if virtual:
            # Reserve before any worker can run: a worker that parks
            # before its siblings' threads start must not advance time.
            self.clock.reserve_workers(workers)
        futures = [
            self._pool().submit(self._runner, work, results, virtual)
            for _ in range(workers)
        ]
        wait(futures)
        for future in futures:
            future.result()  # surface runner bugs, never leg failures
        return [result for result in results if result is not None]

    def _runner(self, work: deque, results: list, virtual: bool) -> None:
        if virtual:
            self.clock.claim_worker()
        _FANOUT_STATE.active = True
        try:
            while True:
                try:
                    index, name, call, leg_span = work.popleft()
                except IndexError:
                    break
                with obs.attach(leg_span):
                    results[index] = self._run_leg(name, call)
                obs.finish_span(leg_span)
        finally:
            _FANOUT_STATE.active = False
            if virtual:
                self.clock.release_worker()

    def _run_leg(
        self, name: str, call: Callable[[], Document]
    ) -> LegResult:
        try:
            return LegResult(name, answer=call())
        except ReproError as error:
            return LegResult(name, error=error)

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
