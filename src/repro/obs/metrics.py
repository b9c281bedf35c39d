"""Process-local metrics: counters, gauges, and histograms.

The registry is deliberately tiny and dependency-free: instruments are
plain objects in dicts, created on first use and snapshotted into the
kernel's stats tree (``kernel_stats()["obs"]``) so the CLI ``--stats``
flag, benchmark ``extra_info``, and tests all read one source of
truth.

Instruments are **lock-guarded**: the parallel fan-out
(:mod:`repro.mediator.parallel`) and the serving front end
(:mod:`repro.serve`) record from worker threads concurrently, and a
naive ``value += 1`` is a read-modify-write that loses increments
under contention.  Each instrument carries its own lock (one
uncontended acquire is tens of nanoseconds — far below the transport
overhead gate), and the registry locks instrument creation so two
threads asking for the same name get the same object.

Instruments carry no timestamps: durations are *observed into*
histograms by the tracer (:mod:`repro.obs.tracing`) using whatever
clock it was built with, so metrics stay deterministic under
``FakeClock`` exactly like traces.

``clear_caches()`` resets the registry alongside the language-kernel
caches (the registry registers itself -- see :mod:`repro.obs`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict

#: Default histogram bucket upper bounds, in seconds: microseconds to
#: tens of seconds on a roughly-exponential ladder.  Spans observe
#: durations here; callers may pass their own bounds for other units.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)


@dataclass
class Counter:
    """A monotonically increasing count (thread-safe)."""

    value: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (last write wins; thread-safe)."""

    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


@dataclass
class Histogram:
    """A fixed-bucket distribution summary (thread-safe).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the
    final slot counts overflows.  ``sum``/``min``/``max`` make mean and
    range recoverable without keeping samples.
    """

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """A conservative quantile estimate from the bucket counts.

        Returns the *upper bound* of the first bucket whose cumulative
        count reaches ``q`` of the total — an over-estimate by at most
        one bucket width.  Observations in the overflow bucket answer
        with the true ``max``.  ``None`` when the histogram is empty.
        """
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            cumulative += n
            if cumulative >= target and n:
                if i == len(self.bounds):
                    return self.max
                return min(self.bounds[i], self.max)
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "sum": round(self.sum, 9),
                "mean": round(self.mean, 9),
                "min": round(self.min, 9) if self.count else 0.0,
                "max": round(self.max, 9) if self.count else 0.0,
                "buckets": {
                    (
                        "inf"
                        if i == len(self.bounds)
                        else repr(self.bounds[i])
                    ): n
                    for i, n in enumerate(self.bucket_counts)
                    if n
                },
            }


class MetricsRegistry:
    """Named instruments, created on first use (thread-safe).

    One process-local instance (:data:`REGISTRY`) backs the whole
    package; tests may build private registries to assert in
    isolation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    def reset(self) -> None:
        """Drop every instrument (the ``clear_caches()`` hook)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """The full metrics tree (folded into ``kernel_stats()``)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }


#: The process-local registry every instrumented module records into.
REGISTRY = MetricsRegistry()
