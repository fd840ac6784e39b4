"""Flight-recorder merge equivalence across the sweep executor.

Per-cell time-series are a pure function of the event stream (samples
fire on sim-time boundaries, stamped with event times), so one-worker
and multi-worker executions of the same cells must export identical
rows.  Profiler *event counts* are deterministic too; wall-times are
not, so only counts are compared.
"""

import functools

import pytest

from repro.experiments.registry import ExperimentConfig, RunOptions, get_spec
from repro.parallel import run_spec


@functools.cache
def _flight_run(name, workers):
    """One profiled quick run per ``(name, workers)``, shared by every
    test in this module; the tests only read it."""
    return run_spec(
        get_spec(name),
        ExperimentConfig(quick=True),
        RunOptions(profile=True, workers=workers),
    )


class TestTimeSeriesMergeEquivalence:
    @pytest.mark.parametrize("name", ["e2", "e10"])
    def test_serial_vs_parallel_rows_identical(self, name):
        one = _flight_run(name, workers=1)
        two = _flight_run(name, workers=2)
        assert list(one.timeseries.rows())
        assert list(one.timeseries.rows()) == list(two.timeseries.rows())
        assert [r.label for r in one.timeseries.recorders] == [
            r.label for r in two.timeseries.recorders
        ]

    def test_cells_labelled_by_sweep_cell(self):
        spec = get_spec("e2")
        run = _flight_run("e2", workers=2)
        cell_labels = [c.label for c in spec.plan_cells(ExperimentConfig(quick=True))]
        recorded = {r.label.split("/")[0] for r in run.timeseries.recorders}
        assert recorded <= set(cell_labels)

    def test_every_spec_gets_series(self):
        # E5's cell runners declare no ``metrics``: the registry reaches
        # their systems where the trace is built, same as any spec's.
        one, two = _flight_run("e5", workers=1), _flight_run("e5", workers=2)
        assert one.metrics.snapshot() == two.metrics.snapshot() != {}
        assert list(one.timeseries.rows())
        assert list(one.timeseries.rows()) == list(two.timeseries.rows())
        assert one.profile.events == two.profile.events > 0


class TestProfileMergeEquivalence:
    def test_event_counts_identical_across_worker_counts(self):
        one = _flight_run("e2", workers=1)
        two = _flight_run("e2", workers=2)
        counts_one = {
            name: stats[0] for name, stats in one.profile.by_handler.items()
        }
        counts_two = {
            name: stats[0] for name, stats in two.profile.by_handler.items()
        }
        assert counts_one == counts_two
        assert one.profile.events == two.profile.events
        assert one.profile.heap_max == two.profile.heap_max

    def test_profiling_leaves_results_untouched(self, two_worker_run):
        import dataclasses

        bare = two_worker_run("e2")
        instrumented = _flight_run("e2", workers=2)
        assert dataclasses.asdict(instrumented.result) == dataclasses.asdict(
            bare.result
        )
