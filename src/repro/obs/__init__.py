"""``repro.obs`` -- zero-dependency tracing and metrics.

The pipeline spans five subsystems (lint -> preflight -> inference ->
compiled engine -> fault-tolerant fan-out) with per-subsystem
introspection only; this package ties one query together end to end:

* :mod:`repro.obs.tracing` -- ``Span``/``Tracer`` with nested spans,
  attributes, events, Chrome ``trace_event`` export, and a no-op fast
  path when no tracer is installed (the default);
* :mod:`repro.obs.metrics` -- process-local counters, gauges, and
  histograms, snapshotted into ``kernel_stats()["obs"]``;
* :mod:`repro.obs.registry` -- the process-wide cache and stats
  registry every layer reports through (:func:`clear_caches`,
  :func:`kernel_stats`, :func:`render_stats`).

Enable with :func:`install_tracer` (CLI: ``repro ask --trace out.json``
or ``repro trace``); everything stays deterministic under the
transport's ``FakeClock``.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from .registry import clear_caches, kernel_stats, render_stats
from .tracing import (
    NOOP_SPAN,
    Span,
    SpanEvent,
    Tracer,
    active_tracer,
    attach,
    enabled,
    event,
    finish_span,
    install_tracer,
    set_attribute,
    span,
    start_span,
    traced,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "REGISTRY",
    "Span",
    "SpanEvent",
    "Tracer",
    "active_tracer",
    "attach",
    "clear_caches",
    "enabled",
    "event",
    "finish_span",
    "install_tracer",
    "kernel_stats",
    "render_stats",
    "set_attribute",
    "span",
    "start_span",
    "traced",
    "uninstall_tracer",
]
