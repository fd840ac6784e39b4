"""Tests for the process-per-cell executor itself.

Pool tests use :func:`repro.sim.rng.splitmix64` as the cell runner —
a module-level, picklable, pure function — so they exercise the real
spawn + queue machinery without simulation cost.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.registry import RunOptions, SweepCell, get_spec
from repro.parallel import (
    ParallelExecutionError,
    derive_cell_stream,
    run_cells,
)
from repro.sim.rng import splitmix64


def _interrupt():
    raise KeyboardInterrupt


def _mix_cells(values):
    return [
        SweepCell(
            index=i, label=f"value={v}", runner=splitmix64, kwargs={"value": v}
        )
        for i, v in enumerate(values)
    ]


class TestDeriveCellStream:
    def test_deterministic(self):
        assert derive_cell_stream("e2", 3, 7) == derive_cell_stream("e2", 3, 7)

    def test_distinct_across_experiments_cells_seeds(self):
        streams = {
            derive_cell_stream(experiment, cell, seed)
            for experiment in ("e2", "e5", "fuzz")
            for cell in (0, 1, 2**20)
            for seed in (None, 1, 2)
        }
        # seed=None folds to 0, which is distinct from 1 and 2.
        assert len(streams) == 3 * 3 * 3

    def test_none_seed_means_zero(self):
        assert derive_cell_stream("e2", 0, None) == derive_cell_stream("e2", 0, 0)


class TestRunCellsInProcess:
    def test_empty(self):
        assert run_cells([], experiment="t") == []

    def test_results_in_canonical_order(self):
        values = [9, 4, 7, 1]
        outcomes = run_cells(_mix_cells(values), experiment="t")
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.result for o in outcomes] == [splitmix64(v) for v in values]

    def test_manifest_provenance(self):
        (outcome,) = run_cells(_mix_cells([5]), experiment="t", seed=3)
        manifest = outcome.manifest
        assert manifest["experiment"] == "t"
        assert manifest["cell"] == 0
        assert manifest["seed"] == 3
        assert manifest["worker_stream"] == derive_cell_stream("t", 0, 3)
        assert manifest["wall_time_s"] >= 0.0
        assert isinstance(manifest["pid"], int)

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RunOptions(workers=0)

    def test_observer_sinks_stay_in_process(self):
        with pytest.raises(ConfigurationError, match="process boundary"):
            RunOptions(workers=2, sinks=(object(),))

    def test_failing_cell_raises_with_label_and_traceback(self):
        # In-process, a cell's own exception propagates unchanged — no
        # ParallelExecutionError wrapper (that is the pool's contract,
        # TestRunCellsPool below) — so the CLI's failure manifest names
        # the runner's error type.
        cells = _mix_cells([1, 2])
        bad = SweepCell(
            index=2, label="bad", runner=splitmix64, kwargs={"nope": 1}
        )
        with pytest.raises(TypeError, match="nope"):
            run_cells(cells + [bad], experiment="t")

    def test_keyboard_interrupt_is_not_swallowed(self):
        # Every CLI run passes through the in-process path: Ctrl-C must
        # stay a KeyboardInterrupt, not become a cell-failure string.
        cell = SweepCell(index=0, label="ctrl-c", runner=_interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cells([cell], experiment="t")


class TestRunCellsPool:
    def test_pool_matches_in_process(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        serial = run_cells(_mix_cells(values), experiment="t")
        pooled = run_cells(
            _mix_cells(values), RunOptions(workers=3), experiment="t"
        )
        assert [o.result for o in pooled] == [o.result for o in serial]
        assert [o.index for o in pooled] == [o.index for o in serial]
        assert [o.label for o in pooled] == [o.label for o in serial]

    def test_pool_runs_in_child_processes(self):
        import os

        outcomes = run_cells(
            _mix_cells([1, 2, 3, 4]), RunOptions(workers=2), experiment="t"
        )
        pids = {o.manifest["pid"] for o in outcomes}
        assert os.getpid() not in pids

    def test_pool_failure_collected(self):
        cells = _mix_cells([1, 2, 3])
        bad = SweepCell(
            index=3, label="bad", runner=splitmix64, kwargs={"nope": 1}
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_cells(cells + [bad], RunOptions(workers=2), experiment="t")
        assert excinfo.value.experiment == "t"
        assert [f.label for f in excinfo.value.failures] == ["bad"]
        assert "TypeError" in excinfo.value.failures[0].error


class TestSpecCellPlanning:
    def test_decomposable_specs_advertise_cells(self):
        for name in ("e2", "e5", "e7", "e12"):
            assert get_spec(name).supports_cells

    def test_plan_cells_canonically_indexed(self):
        from repro.experiments.registry import ExperimentConfig

        spec = get_spec("e2")
        cells = spec.plan_cells(ExperimentConfig(quick=True))
        assert [cell.index for cell in cells] == list(range(len(cells)))
        assert len(cells) == 2  # quick sizes: (100, 400)

    @pytest.mark.parametrize(
        "name, config_kwargs",
        [
            ("e2", {"overrides": {"sizes": ()}}),
            ("e7", {"overrides": {"loss_rate": 2.0}}),
            ("e5", {"seed": "7"}),
            ("e12", {"seed": "7"}),
        ],
    )
    def test_planning_validates_the_sweep(self, name, config_kwargs):
        # Cells skip the whole runner, so its checks live in the planner:
        # a bad sweep is refused on the cell path as on ``spec.run``.
        from repro.experiments.registry import ExperimentConfig

        config = ExperimentConfig(quick=True, **config_kwargs)
        with pytest.raises(ConfigurationError):
            get_spec(name).plan_cells(config)
        with pytest.raises(ConfigurationError):
            get_spec(name).run(config)

    def test_spec_without_planner_is_one_cell(self):
        from repro.experiments.registry import ExperimentConfig

        spec = get_spec("e1")
        config = ExperimentConfig(quick=True, seed=4)
        assert not spec.supports_cells
        (cell,) = spec.plan_cells(config)
        assert cell.index == 0
        assert cell.runner is spec.runner
        assert cell.kwargs == spec.build_kwargs(config)
        assert spec.merge_cells(config, ["the result"]) == "the result"
