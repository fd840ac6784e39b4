"""Ring-buffer series, registry sampling and bundle merge."""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import RingBufferSeries, TimeSeriesBundle, TimeSeriesRecorder
from repro.sim.engine import Simulation, instrumented


class TestRingBufferSeries:
    def test_append_and_points(self):
        series = RingBufferSeries("x", capacity=4)
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert series.points() == [(0.0, 1.0), (1.0, 2.0)]
        assert len(series) == 2
        assert series.dropped == 0

    def test_capacity_bounds_memory(self):
        series = RingBufferSeries("x", capacity=8)
        for i in range(10_000):
            series.append(float(i), float(i))
        assert len(series) == 8
        assert series.dropped == 10_000 - 8
        # Only the newest points are retained, oldest first.
        assert series.times == [float(i) for i in range(9992, 10_000)]

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RingBufferSeries("x", capacity=0)


class TestTimeSeriesRecorder:
    def test_samples_counters_and_gauges(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        counter.inc(3)
        gauge.set(7.0)
        recorder = TimeSeriesRecorder(registry, label="cell")
        recorder.sample(now=1.0)
        assert recorder.series["c"].points() == [(1.0, 3)]
        assert recorder.series["g"].points() == [(1.0, 7.0)]
        assert sorted(recorder.series) == ["c", "g"]

    def test_observe_samples_on_interval_boundaries(self):
        registry = MetricsRegistry()
        registry.counter("c")
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        for tick in (0.2, 0.7, 1.1, 1.3, 2.05, 7.5):
            recorder.observe(None, (), 0.0, tick, 0)
        # Crossings at 1.1 (first >= 1.0), 2.05 (>= 2.0) and 7.5
        # (>= 3.0; the idle stretch collapses to one catch-up sample).
        assert recorder.series["c"].times == [1.1, 2.05, 7.5]

    def test_metrics_registered_mid_run_appear(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry)
        recorder.sample(1.0)
        registry.counter("late").inc()
        recorder.sample(2.0)
        assert recorder.series["late"].points() == [(2.0, 1)]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeSeriesRecorder(MetricsRegistry(), interval=0.0)

    def test_export_rows_sorted_by_series(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        recorder = TimeSeriesRecorder(registry, label="cell0")
        recorder.sample(1.0)
        rows = recorder.export_rows()
        assert [row["series"] for row in rows] == ["a", "b"]
        assert all(row["cell"] == "cell0" for row in rows)


class TestTimeSeriesBundle:
    def test_merge_concatenates_in_call_order(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        left, right = TimeSeriesBundle(), TimeSeriesBundle()
        first = left.add(TimeSeriesRecorder(registry, label="cell0"))
        second = right.add(TimeSeriesRecorder(registry, label="cell1"))
        first.sample(1.0)
        second.sample(1.0)
        left.merge(right)
        assert [r.label for r in left.recorders] == ["cell0", "cell1"]
        assert left.total_samples == 2

    def test_write_jsonl_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        bundle = TimeSeriesBundle()
        bundle.add(TimeSeriesRecorder(registry, label="cell")).sample(3.0)
        path = bundle.write_jsonl(tmp_path / "series.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"cell": "cell", "series": "c", "t": 3.0, "value": 2}]

    def test_summary_shape(self):
        registry = MetricsRegistry()
        registry.counter("c")
        bundle = TimeSeriesBundle()
        bundle.add(TimeSeriesRecorder(registry, label="x")).sample(1.0)
        summary = bundle.summary()
        assert summary["recorders"] == 1
        assert summary["cells"] == ["x"]
        assert summary["samples"] == 1


class TestRecordSimulations:
    """A recorder per simulation of an :func:`instrumented` block,
    collected in one bundle, as the executor's ``--profile`` does."""

    def test_each_simulation_gets_a_recorder(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks")
        bundle = TimeSeriesBundle()

        def recorder(sim):
            label = f"run/sim{len(bundle)}"
            return bundle.add(TimeSeriesRecorder(registry, interval=1.0, label=label))

        with instrumented(sim=[recorder]):
            for seed in (1, 2):
                sim = Simulation(seed=seed)
                sim.call_every(0.4, counter.inc)
                sim.run_until(5.0)
        assert [r.label for r in bundle.recorders] == ["run/sim0", "run/sim1"]
        assert bundle.total_samples > 0

    def test_detaches_outside_the_block(self):
        registry = MetricsRegistry()
        bundle = TimeSeriesBundle()
        with instrumented(sim=[lambda sim: bundle.add(TimeSeriesRecorder(registry))]):
            pass
        sim = Simulation(seed=3)
        sim.call_after(0.1, lambda: None)
        sim.run_until(2.0)
        assert len(bundle) == 0
        assert sim.monitors == ()
