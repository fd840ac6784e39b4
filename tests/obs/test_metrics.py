"""Tests for counters, gauges, histograms and the registry."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_default_and_amount(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_set_tracks_maximum(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.maximum == 3.0

    def test_add_goes_up_and_down(self):
        gauge = Gauge("g")
        gauge.add(4)
        gauge.add(-3)
        assert gauge.value == 1.0
        assert gauge.maximum == 4.0


class TestHistogramData:
    def test_count_mean_min_max_exact(self):
        hist = HistogramData((1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(22.5 / 3)
        assert hist.minimum == 0.5
        assert hist.maximum == 20.0

    def test_overflow_bucket(self):
        hist = HistogramData((1.0,))
        hist.observe(100.0)
        assert hist.counts == [0, 1]

    def test_quantiles_within_bucket_width(self):
        hist = HistogramData((0.1, 0.25, 0.5, 1.0, 2.5, 5.0))
        values = [0.05 + 0.04 * i for i in range(100)]  # 0.05 .. 4.01
        for value in values:
            hist.observe(value)
        exact_p50 = sorted(values)[50]
        assert hist.quantile(0.5) == pytest.approx(exact_p50, abs=2.5)
        assert hist.quantile(0.0) >= hist.minimum
        assert hist.quantile(1.0) <= hist.maximum

    def test_quantile_empty_is_zero(self):
        assert HistogramData((1.0,)).quantile(0.5) == 0.0

    def test_quantile_validates_range(self):
        with pytest.raises(ConfigurationError):
            HistogramData((1.0,)).quantile(1.5)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            HistogramData(())

    @pytest.mark.parametrize("bounds", [DEFAULT_BUCKETS, (1.0,), (0.5, 0.5, 2.0)])
    def test_bucket_rule_and_observe_many_match_single_observes(self, bounds):
        """The bucket of ``value`` is the first bound with ``value <=
        bound`` (the hand-rolled search ``bisect_left`` replaced), and a
        batch folds exactly like the same observes one by one."""
        ordered = sorted(bounds)
        values = [-1.0, 0.0]
        for bound in ordered:
            values += [bound - 1e-9, bound, bound + 1e-9]
        values += [ordered[-1] * 10, 0.1, 0.2, 0.3]  # overflow; an inexact float sum
        single, batch = HistogramData(bounds), HistogramData(bounds)
        for value in values:
            before = list(single.counts)
            single.observe(value)
            bucket = next(
                (i for i, bound in enumerate(ordered) if value <= bound), len(ordered)
            )
            before[bucket] += 1
            assert single.counts == before, value
        batch.observe_many(values)
        for name in ("counts", "count", "total", "minimum", "maximum"):
            assert getattr(batch, name) == getattr(single, name), name

    def test_as_dict_is_jsonable(self):
        hist = HistogramData((1.0, 2.0))
        hist.observe(0.5)
        payload = hist.as_dict()
        assert payload["count"] == 1
        assert set(payload) == {
            "count",
            "mean",
            "min",
            "max",
            "p50",
            "p90",
            "p95",
            "p99",
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ConfigurationError):
            registry.gauge("a.b")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(0.2)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 3
        assert snapshot["g"] == {"value": 2.5, "max": 2.5}
        assert snapshot["h"]["count"] == 1

    def test_iteration_and_names(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        assert registry.names() == ["a", "z"]
        assert len(registry) == 2
        assert "a" in registry
        assert isinstance(registry.get("a"), Counter)
        assert all(isinstance(m, Counter) for m in registry)

    def test_histogram_custom_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("depth", bounds=(1, 2, 4))
        assert isinstance(hist, Histogram)
        assert hist.data.bounds == (1, 2, 4)
