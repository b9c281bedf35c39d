"""Fault-tolerant source calls: timeouts, retries, circuit breakers.

The paper's Figure 1 stacks mediators over wrappers that always
answer; a real federation cannot assume that.  This module wraps every
:meth:`Source.query <repro.mediator.source.Source.query>` in a
*transport policy*:

* a **per-call timeout** and a **deadline budget** shared by every
  call of one fan-out (a slow source cannot starve its siblings);
* **bounded retries** with exponential backoff and seeded jitter;
* a per-source **circuit breaker** (closed / open / half-open, with a
  failure-rate threshold over a sliding window) so a broken source
  fails fast instead of burning the deadline of every query.

Time is injectable: every component takes a :class:`Clock`, and
:class:`FakeClock` advances only when something sleeps on it, so the
whole policy — backoff schedules, breaker recovery, deadline
exhaustion — is testable deterministically without wall-clock sleeps
(see :mod:`repro.mediator.faults` for the matching fault-injection
harness).

Timeouts are detected *cooperatively*: the transport cannot preempt a
synchronous wrapper, so it measures each call's elapsed time on the
clock, discards answers that arrive after the effective timeout, and
charges the elapsed time against the deadline budget.  With
:class:`FakeClock` + latency schedules this is exact; with the system
clock it is an accounting discipline, not preemption.

Semantics, the state machine, and the soundness argument for degraded
answers are documented in ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

from .. import obs
from ..errors import ReproError, SourceTimeout, SourceUnavailable
from ..xmas import Query
from ..xmlmodel import Document
from .source import Source

# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------


class Clock(Protocol):
    """The time interface every transport component is written against."""

    def now(self) -> float:
        """Monotonic seconds."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (advance time)."""
        ...


class SystemClock:
    """Wall-clock time (``time.monotonic`` / ``time.sleep``)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock:
    """A manual clock: time advances only via :meth:`sleep`/:meth:`advance`.

    Deterministic by construction — the test suite never sleeps for
    real.  ``sleeps`` records every sleep request so backoff schedules
    can be asserted exactly.

    **Virtual-time scheduling.**  The parallel fan-out
    (:mod:`repro.mediator.parallel`) runs source calls on real worker
    threads; to keep them deterministic the clock doubles as a
    virtual-time scheduler.  The dispatching thread *reserves* worker
    slots up front (:meth:`reserve_workers`), each worker *claims* one
    as its first act (:meth:`claim_worker`) and *releases* it when its
    work queue is drained (:meth:`release_worker`).  A ``sleep`` from a
    claimed worker does not advance time — it parks the thread on a
    wake time.  Only when **every** reserved worker is parked (or
    released) does the clock jump to the earliest wake time and resume
    the threads due then.  Because time can never move while any worker
    is between sleeps, every ``now()`` read, timeout verdict, and span
    timestamp is a pure function of the scheduled latencies — identical
    across runs regardless of OS thread interleaving.  Reserving up
    front (rather than on claim) is what closes the startup race: a
    worker that sleeps before its siblings' threads have even started
    cannot advance time past their start.

    Threads that never claimed (the single-threaded test suite, the
    dispatching thread itself) keep the legacy semantics: ``sleep``
    advances time immediately.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self.sleeps: list[float] = []
        self._cond = threading.Condition()
        #: reserved virtual-worker slots (claimed or still starting up)
        self._reserved = 0
        #: thread idents that claimed a slot
        self._workers: set[int] = set()
        #: claimed workers currently parked in a virtual sleep
        self._parked = 0
        #: min-heap of (wake_at, seq) for parked workers
        self._waiters: list[tuple[float, int]] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        wait = max(0.0, seconds)
        with self._cond:
            self.sleeps.append(seconds)
            if threading.get_ident() not in self._workers:
                # Legacy path: a non-worker owns time and moves it.
                self._now += wait
                self._wake_due()
                return
            if wait == 0.0:
                return
            self._seq += 1
            entry = (self._now + wait, self._seq)
            heapq.heappush(self._waiters, entry)
            self._parked += 1
            self._advance_if_stalled()
            while self._now < entry[0]:
                self._cond.wait()
            # _parked was given back in _wake_due when this entry
            # became due: from that instant this thread is logically
            # runnable (it may just not hold the OS's attention yet),
            # and counting it as parked would let a sibling's
            # release_worker() advance time right past it.

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        with self._cond:
            self._now += max(0.0, seconds)
            self._wake_due()

    # -- virtual-worker protocol (used by the parallel fan-out) ----------

    def reserve_workers(self, n: int) -> None:
        """Account for ``n`` workers about to claim (dispatcher side)."""
        with self._cond:
            self._reserved += n

    def claim_worker(self) -> None:
        """Mark the current thread as one of the reserved workers."""
        with self._cond:
            self._workers.add(threading.get_ident())

    def release_worker(self) -> None:
        """Give back this thread's slot (its work queue is drained)."""
        with self._cond:
            self._workers.discard(threading.get_ident())
            self._reserved = max(0, self._reserved - 1)
            self._advance_if_stalled()

    def _advance_if_stalled(self) -> None:
        # With the lock held: when every reserved worker is parked, no
        # thread can observe time anymore — jump to the earliest waiter.
        if self._reserved and self._parked >= self._reserved and self._waiters:
            self._now = max(self._now, self._waiters[0][0])
            self._wake_due()

    def _wake_due(self) -> None:
        while self._waiters and self._waiters[0][0] <= self._now:
            heapq.heappop(self._waiters)
            # One popped entry = one worker now runnable again.
            self._parked = max(0, self._parked - 1)
        self._cond.notify_all()


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


@dataclass
class Deadline:
    """A budget shared across one fan-out's source calls.

    Every call charges its elapsed time (including backoff sleeps)
    against the same budget, so the deadline of a federated query is a
    property of the *query*, not of each source call.
    """

    clock: Clock
    expires_at: float

    @classmethod
    def after(cls, clock: Clock, budget: float) -> "Deadline":
        """A deadline ``budget`` seconds from now on ``clock``."""
        return cls(clock, clock.now() + budget)

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.expires_at - self.clock.now())

    @property
    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at

    def require(self, what: str) -> None:
        """Raise :class:`SourceTimeout` when the budget is spent."""
        if self.expired:
            raise SourceTimeout(f"deadline budget exhausted before {what}")


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``attempts`` counts total tries (1 = fail-fast).  The delay before
    retry ``k`` (1-based) is ``base_delay * multiplier**(k-1)`` capped
    at ``max_delay``, then jittered by a uniform factor in
    ``[1-jitter, 1+jitter]`` drawn from the transport's seeded RNG —
    deterministic for a fixed seed, decorrelated across sources.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1

    def backoff(self, retry_number: int, rng: random.Random) -> float:
        """Delay before the ``retry_number``-th retry (1-based)."""
        delay = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (retry_number - 1),
        )
        if self.jitter:
            delay *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay


@dataclass(frozen=True)
class BreakerPolicy:
    """When a source trips open and how it recovers.

    The breaker trips when, among the last ``window`` calls (and at
    least ``min_calls`` of them), the failure rate reaches
    ``failure_rate``.  After ``reset_timeout`` seconds open it admits
    ``half_open_probes`` trial calls; that many consecutive successes
    close it, any failure reopens it.
    """

    window: int = 8
    min_calls: int = 4
    failure_rate: float = 0.5
    reset_timeout: float = 30.0
    half_open_probes: int = 1


@dataclass(frozen=True)
class TransportPolicy:
    """The full per-source call policy: timeout + retries + breaker.

    ``timeout`` is the per-call limit in seconds (``None`` = no
    limit).  ``seed`` makes the jitter RNG deterministic; each
    transport derives its own stream from it and the source name.
    """

    timeout: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    seed: int = 0


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """A per-source breaker: closed → open → half-open → closed.

    * **closed** — calls flow; outcomes feed a sliding window; when
      the windowed failure rate reaches the threshold, trip open.
    * **open** — calls are rejected without touching the source until
      ``reset_timeout`` elapses, then the next call probes half-open.
    * **half-open** — up to ``half_open_probes`` calls are admitted;
      that many consecutive successes close the breaker (window
      cleared), any failure reopens it and restarts the timer.
    """

    def __init__(self, policy: BreakerPolicy, clock: Clock) -> None:
        self.policy = policy
        self.clock = clock
        # The parallel fan-out and the serving front end admit calls
        # from many threads at once; every transition and the probe
        # accounting run under this lock.  Methods that already hold it
        # use `_advance_state` (not the `state` property) — the lock is
        # deliberately non-reentrant to keep the happy path cheap
        # (bench_faults.py gates transport overhead at <5%).
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=policy.window)
        self._opened_at = 0.0
        self._half_open_successes = 0
        self._half_open_inflight = 0
        #: times the breaker tripped open (including reopens)
        self.times_opened = 0
        #: calls rejected while open
        self.rejections = 0

    @property
    def state(self) -> BreakerState:
        """Current state, applying the open → half-open timeout."""
        with self._lock:
            return self._advance_state()

    def _advance_state(self) -> BreakerState:
        """Apply the open → half-open timeout; caller holds ``_lock``."""
        if (
            self._state is BreakerState.OPEN
            and self.clock.now() - self._opened_at
            >= self.policy.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._half_open_successes = 0
            self._half_open_inflight = 0
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Counts rejections.)"""
        return self.admit()[0]

    def admit(self) -> tuple[bool, BreakerState]:
        """Atomic admission: ``(admitted, state the verdict was made in)``.

        Callers that need to know whether their admission took a
        half-open probe slot (and so owe the breaker a verdict or a
        ``release_probe``) must use this rather than reading ``state``
        and calling ``allow`` separately: under a real clock the
        breaker can transition between the two, and the caller would
        mislabel its admission and leak the slot.
        """
        with self._lock:
            state = self._state
            if state is BreakerState.CLOSED:
                # Fast path: no clock read, no transition to apply.
                return True, state
            state = self._advance_state()
            if state is BreakerState.OPEN:
                self.rejections += 1
                return False, state
            if state is BreakerState.HALF_OPEN:
                if self._half_open_inflight >= self.policy.half_open_probes:
                    self.rejections += 1
                    return False, state
                self._half_open_inflight += 1
            return True, state

    def record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.CLOSED:
                # Fast path mirror of `admit`'s: a closed breaker just
                # feeds its sliding window.
                self._outcomes.append(True)
                return
            if self._advance_state() is BreakerState.HALF_OPEN:
                self._release_slot()
                self._half_open_successes += 1
                if self._half_open_successes >= self.policy.half_open_probes:
                    self._state = BreakerState.CLOSED
                    self._outcomes.clear()
                    self._half_open_successes = 0
                    self._half_open_inflight = 0
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._advance_state() is BreakerState.HALF_OPEN:
                self._release_slot()
                self._trip()
                return
            self._outcomes.append(False)
            if len(self._outcomes) >= self.policy.min_calls:
                failures = sum(1 for ok in self._outcomes if not ok)
                if failures / len(self._outcomes) >= self.policy.failure_rate:
                    self._trip()

    def release_probe(self) -> None:
        """Give back a half-open probe slot taken by :meth:`allow`.

        Every admission in HALF_OPEN must be balanced by exactly one of
        ``record_success``, ``record_failure``, or this method.  The
        transport calls it when a call exits *without a verdict* — the
        shared deadline expired before the source was tried, or a
        non-transport exception escaped — otherwise the slot leaks and,
        with ``half_open_probes`` slots leaked, the breaker rejects
        every probe forever (HALF_OPEN has no re-arm timer).

        Reads the raw state on purpose: the ``state`` property's
        OPEN→HALF_OPEN transition must not fire from a cleanup path.
        """
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._release_slot()

    def _release_slot(self) -> None:
        if self._half_open_inflight > 0:
            self._half_open_inflight -= 1

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self.clock.now()
        self.times_opened += 1
        self._outcomes.clear()
        # A trip ends any half-open episode: stale probe accounting
        # must not survive into the *next* half-open window.
        self._half_open_successes = 0
        self._half_open_inflight = 0

    def probe_slots_inflight(self) -> int:
        """Half-open probe admissions not yet balanced (test hook)."""
        with self._lock:
            return self._half_open_inflight


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------


@dataclass
class CallStats:
    """Per-source transport accounting (surfaced by ``Mediator.health``)."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    successes: int = 0
    failures: int = 0
    timeouts: int = 0
    breaker_rejections: int = 0
    gate_rejections: int = 0


class SourceTransport:
    """A :class:`Source` behind a :class:`TransportPolicy`.

    ``call`` is the only entry point the mediator uses for source
    fan-outs; it applies, in order: breaker admission, deadline check,
    the (cooperatively timed) source call, failure classification, and
    the backoff/retry loop.  All failures surface as
    :class:`SourceTimeout` or :class:`SourceUnavailable` with the last
    underlying error attached as ``__cause__``.
    """

    def __init__(
        self,
        source: Source,
        policy: TransportPolicy | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.source = source
        self.policy = policy or TransportPolicy()
        self.clock = clock or SystemClock()
        self.breaker = CircuitBreaker(self.policy.breaker, self.clock)
        # Stable per-source jitter stream: deterministic for a fixed
        # policy seed, decorrelated between sources of one mediator.
        self._rng = random.Random(f"{self.policy.seed}:{source.name}")
        self.stats = CallStats()
        # Counters are read-modify-write; the serving front end calls
        # one transport from many threads at once.
        self._stats_lock = threading.Lock()
        #: measured per-attempt latencies of answers (successes and
        #: over-budget discards) — the cost model behind slowest-first
        #: dispatch (repro.mediator.parallel).
        #: Deliberately NOT registered in the global metrics registry:
        #: cross-test registry resets must not skew dispatch, and the
        #: happy path has a <5% overhead gate (bench_faults.py) with no
        #: room for a second lock-guarded observation per call.  The
        #: quantiles are surfaced through ``health()`` instead.
        self.latency = obs.Histogram()
        #: optional per-source concurrency gate (a semaphore) installed
        #: by the serving front end (repro.serve); ``None`` — the
        #: default everywhere else — bypasses it entirely.  Real-time
        #: only: blocking a virtual-clock worker on a semaphore would
        #: deadlock the fake clock's scheduler.
        self.gate: threading.Semaphore | None = None

    @property
    def name(self) -> str:
        return self.source.name

    def _bump(self, attribute: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(
                self.stats, attribute, getattr(self.stats, attribute) + amount
            )

    def call(self, query: Query, deadline: Deadline | None = None) -> Document:
        """Answer ``query`` under the policy; raise on terminal failure."""
        gate = self.gate
        if gate is None:
            return self._call(query, deadline)
        budget = None if deadline is None else deadline.remaining()
        if not gate.acquire(timeout=budget):
            self._bump("gate_rejections")
            raise SourceTimeout(
                f"deadline budget exhausted waiting for a "
                f"{self.name!r} concurrency slot"
            )
        try:
            return self._call(query, deadline)
        finally:
            gate.release()

    def _call(
        self, query: Query, deadline: Deadline | None = None
    ) -> Document:
        # Stat deltas accumulate in fast locals and flush under ONE
        # lock acquisition in the outer finally — a lock round-trip per
        # event would not fit the <5% happy-path overhead gate
        # (bench_faults.py).
        n_attempts = n_retries = n_successes = 0
        n_failures = n_timeouts = n_breaker_rejections = 0
        try:
            with obs.span("transport.call") as sp:
                # Happy-path span recording is guarded: with tracing
                # off the guard costs one attribute read where the
                # no-op calls would cost half a microsecond — real
                # money under the <5% overhead gate.  Cold paths
                # (failures, rejections) record unguarded.
                recording = sp.recording
                if recording:
                    sp.set_attribute("source", self.name)
                # One atomic admission: an admission in HALF_OPEN takes
                # a probe slot this call is then responsible for giving
                # back, so the verdict and the state it was made in
                # must come from the same lock acquisition.
                admitted, admitted_state = self.breaker.admit()
                if not admitted:
                    n_breaker_rejections = 1
                    sp.set_attribute("outcome", "breaker_rejected")
                    sp.add_event(
                        "breaker.rejected", state=admitted_state.value
                    )
                    raise SourceUnavailable(
                        f"source {self.name!r} unavailable: "
                        f"circuit breaker open"
                    )
                if recording:
                    sp.set_attribute("breaker", admitted_state.value)
                probe_pending = admitted_state is BreakerState.HALF_OPEN
                retry = self.policy.retry
                last_error: Exception | None = None
                timed_out = False
                attempt = 0
                try:
                    for attempt in range(1, max(1, retry.attempts) + 1):
                        if deadline is not None and deadline.expired:
                            n_timeouts += 1
                            sp.set_attribute("outcome", "deadline_expired")
                            sp.add_event("deadline.expired", attempt=attempt)
                            # The budget died between attempts: the
                            # *fan-out* is out of time, which is a
                            # deadline condition, not a verdict on this
                            # source.  The breaker is not charged (the
                            # probe slot, if any, is given back in the
                            # finally below).
                            raise SourceTimeout(
                                f"deadline budget exhausted before calling "
                                f"source {self.name!r} (attempt {attempt})"
                            ) from last_error
                        n_attempts += 1
                        if recording:
                            sp.add_event("attempt", number=attempt)
                        effective_timeout = self._effective_timeout(deadline)
                        started = self.clock.now()
                        try:
                            answer = self.source.query(query)
                        except ReproError as error:
                            last_error = error
                            timed_out = False
                            n_failures += 1
                            probe_pending = False
                            self.breaker.record_failure()
                            sp.add_event(
                                "failure",
                                attempt=attempt,
                                error=type(error).__name__,
                            )
                        else:
                            elapsed = self.clock.now() - started
                            self.latency.observe(elapsed)
                            if (
                                effective_timeout is not None
                                and elapsed > effective_timeout
                            ):
                                # Arrived after its budget: discard it.
                                last_error = SourceTimeout(
                                    f"source {self.name!r} answered in "
                                    f"{elapsed:.3f}s, over its "
                                    f"{effective_timeout:.3f}s budget"
                                )
                                timed_out = True
                                n_timeouts += 1
                                probe_pending = False
                                self.breaker.record_failure()
                                sp.add_event(
                                    "timeout.discarded",
                                    attempt=attempt,
                                    elapsed=round(elapsed, 6),
                                )
                            else:
                                n_successes = 1
                                probe_pending = False
                                self.breaker.record_success()
                                if recording:
                                    sp.set_attribute("attempts", attempt)
                                    sp.set_attribute("outcome", "success")
                                return answer
                        if self.breaker.state is not BreakerState.CLOSED:
                            # tripped mid-loop (or half-open probe failed)
                            sp.add_event(
                                "breaker.state",
                                state=self.breaker.state.value,
                            )
                            break
                        if attempt >= max(1, retry.attempts):
                            break
                        delay = retry.backoff(attempt, self._rng)
                        if (
                            deadline is not None
                            and delay >= deadline.remaining()
                        ):
                            break  # backing off would outlive the budget
                        n_retries += 1
                        sp.add_event("backoff", delay=round(delay, 6))
                        self.clock.sleep(delay)
                finally:
                    # Balance the half-open admission on every exit path
                    # that recorded no verdict: deadline expiry above, or
                    # a non-transport exception escaping source.query.
                    if probe_pending:
                        self.breaker.release_probe()
                sp.set_attribute("attempts", attempt)
                if timed_out and isinstance(last_error, SourceTimeout):
                    sp.set_attribute("outcome", "timeout")
                    raise last_error
                sp.set_attribute("outcome", "unavailable")
                raise SourceUnavailable(
                    f"source {self.name!r} unavailable after "
                    f"{attempt} attempt(s): {last_error}"
                ) from last_error
        finally:
            with self._stats_lock:
                stats = self.stats
                stats.calls += 1
                stats.attempts += n_attempts
                stats.retries += n_retries
                stats.successes += n_successes
                stats.failures += n_failures
                stats.timeouts += n_timeouts
                stats.breaker_rejections += n_breaker_rejections

    def _effective_timeout(self, deadline: Deadline | None) -> float | None:
        """The policy timeout, capped by what the deadline has left."""
        timeout = self.policy.timeout
        if deadline is None:
            return timeout
        remaining = deadline.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)

    def health(self) -> dict:
        """A flat snapshot for ``Mediator.health()`` / the CLI."""
        return {
            "source": self.name,
            "breaker": self.breaker.state.value,
            "times_opened": self.breaker.times_opened,
            "calls": self.stats.calls,
            "attempts": self.stats.attempts,
            "retries": self.stats.retries,
            "successes": self.stats.successes,
            "failures": self.stats.failures,
            "timeouts": self.stats.timeouts,
            "breaker_rejections": self.stats.breaker_rejections,
            "gate_rejections": self.stats.gate_rejections,
            "latency_p50": self.latency.quantile(0.5),
            "latency_p95": self.latency.quantile(0.95),
        }


@dataclass
class DegradationReport:
    """What a degraded (partial) answer left out, and why.

    Attached to ``Mediator.last_degradation`` whenever a fan-out
    skipped sources; ``skipped`` maps each skipped source to the
    diagnostic code + message of its terminal failure.  ``answer_valid``
    records that the partial answer was checked against the inferred
    view DTD (degradation refuses to return an invalid partial answer —
    see docs/RELIABILITY.md for the soundness argument).
    """

    view_name: str
    skipped: dict[str, str] = field(default_factory=dict)
    answered: list[str] = field(default_factory=list)
    answer_valid: bool = True

    @property
    def degraded(self) -> bool:
        return bool(self.skipped)

    def describe(self) -> str:
        lines = [f"answer for view {self.view_name!r}:"]
        if not self.degraded:
            lines.append("  complete (no sources skipped)")
            return "\n".join(lines)
        lines.append(
            f"  DEGRADED: {len(self.skipped)} source(s) skipped, "
            f"{len(self.answered)} answered"
        )
        for name, reason in sorted(self.skipped.items()):
            lines.append(f"    - {name}: {reason}")
        lines.append(
            "  partial answer validates against the inferred view DTD: "
            f"{self.answer_valid}"
        )
        return "\n".join(lines)
