"""Tests for the process-local metrics registry."""

import pytest

from repro import obs
from repro.obs import MetricsRegistry, clear_caches, kernel_stats, render_stats


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_get_or_create_and_inc(self, registry):
        counter = registry.counter("queries")
        counter.inc()
        counter.inc(2)
        assert registry.counter("queries").value == 3
        assert registry.counter("queries") is counter

    def test_gauge_set_and_add(self, registry):
        gauge = registry.gauge("inflight")
        gauge.set(4.0)
        gauge.add(-1.0)
        assert registry.gauge("inflight").value == 3.0


class TestHistograms:
    def test_observe_tracks_count_sum_extrema(self, registry):
        histogram = registry.histogram("latency")
        for value in (0.002, 0.04, 0.0005):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.0425)
        assert histogram.min == pytest.approx(0.0005)
        assert histogram.max == pytest.approx(0.04)
        assert histogram.mean == pytest.approx(0.0425 / 3)

    def test_bucket_boundaries(self, registry):
        histogram = registry.histogram("latency")
        histogram.observe(0.0005)  # <= 1e-3
        histogram.observe(0.5)     # <= 1.0
        histogram.observe(100.0)   # above every bound -> inf
        snapshot = histogram.snapshot()
        buckets = snapshot["buckets"]
        assert sum(buckets.values()) == 3
        assert buckets["inf"] == 1

    def test_empty_histogram_snapshot(self, registry):
        snapshot = registry.histogram("nothing").snapshot()
        assert snapshot["count"] == 0


class TestRegistry:
    def test_snapshot_layout(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.1)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 1.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_reset(self, registry):
        registry.counter("c").inc()
        registry.histogram("h").observe(0.1)
        assert len(registry) == 2
        registry.reset()
        assert len(registry) == 0
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestKernelIntegration:
    def test_obs_section_in_kernel_stats(self):
        clear_caches()
        obs.REGISTRY.counter("test.probe").inc(5)
        stats = kernel_stats()
        assert stats["obs"]["counters"]["test.probe"] == 5
        clear_caches()

    def test_clear_caches_resets_global_registry(self):
        obs.REGISTRY.counter("test.probe").inc()
        clear_caches()
        assert len(obs.REGISTRY) == 0

    def test_render_stats_shows_metrics(self):
        clear_caches()
        obs.REGISTRY.counter("spans.test").inc(2)
        obs.REGISTRY.histogram("span.test").observe(0.001)
        rendered = render_stats()
        assert "obs metrics:" in rendered
        assert "spans.test" in rendered
        clear_caches()
