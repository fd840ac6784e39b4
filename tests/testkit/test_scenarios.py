"""Tests for scenario sampling, serialization and execution."""

import dataclasses
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.failures import (
    FAILURE_KINDS,
    FailureEvent,
    FailureInjector,
    FailureSchedule,
)
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Process
from repro.testkit.scenarios import (
    MIN_NODES,
    TESTKIT_TRACE_KINDS,
    FuzzScenario,
    run_scenario,
    sample_scenario,
)


class TestFailureEvent:
    def test_round_trip(self):
        event = FailureEvent("crash", 5.0, duration=10.0, nodes=(3,))
        assert FailureEvent.from_dict(event.as_dict()) == event

    def test_falsy_fields_omitted(self):
        record = FailureEvent("loss-burst", 2.0, duration=4.0, rate=0.2).as_dict()
        assert "nodes" not in record and "groups" not in record

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureEvent("meteor", 1.0)

    def test_kinds_catalogue(self):
        assert set(FAILURE_KINDS) == {
            "crash", "partition", "loss-burst",
            "summary-corruption", "churn-storm",
        }


class TestFailureSchedule:
    def _schedule(self):
        return FailureSchedule((
            FailureEvent("crash", 5.0, duration=0.0, nodes=(2,)),
            FailureEvent("partition", 8.0, duration=10.0, groups=((1, 2),)),
            FailureEvent("loss-burst", 9.0, duration=5.0, rate=0.25),
        ))

    def test_json_round_trip(self):
        schedule = self._schedule()
        assert FailureSchedule.from_json(schedule.to_json()) == schedule

    def test_end_time_and_crashed_forever(self):
        schedule = self._schedule()
        assert schedule.end_time == 18.0
        assert schedule.crashed_forever == {2}

    def test_validate_for_rejects_out_of_range(self):
        schedule = self._schedule()
        schedule.validate_for(4)
        with pytest.raises(ConfigurationError):
            schedule.validate_for(2)

    def test_apply_arms_the_simulator(self):
        sim = Simulation(seed=1)
        network = Network(sim, latency=FixedLatency(0.01))
        injector = FailureInjector(sim, network)
        processes = [
            Process(ZonePath.parse(f"/z/n{i}"), SimRuntime(sim, network))
            for i in range(4)
        ]
        self._schedule().apply(injector, processes)
        sim.run_until(6.0)
        assert processes[2].crashed  # duration 0 = down forever
        assert not processes[1].crashed
        sim.run_until(10.0)
        assert network.is_partitioned
        sim.run_until(30.0)
        assert processes[2].crashed
        assert not network.is_partitioned  # healed at t=18


class TestFuzzScenario:
    def test_sampling_deterministic(self):
        assert sample_scenario(7, quick=True) == sample_scenario(7, quick=True)
        assert sample_scenario(7) != sample_scenario(8)

    def test_sampled_scenarios_valid(self):
        for seed in range(10):
            scenario = sample_scenario(seed, quick=True)
            scenario.validate()
            assert scenario.num_nodes >= MIN_NODES
            assert scenario.publications
            assert scenario.end_time > scenario.publications[-1].time

    def test_json_round_trip(self):
        scenario = sample_scenario(3, quick=True)
        assert FuzzScenario.from_json(scenario.to_json()) == scenario

    def test_read_unwraps_repro_container(self, tmp_path):
        scenario = sample_scenario(4, quick=True)
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({
            "version": 1, "scenario": scenario.as_dict(), "violations": [],
        }))
        assert FuzzScenario.read(path) == scenario

    def test_validate_rejects_bad_fields(self):
        scenario = sample_scenario(0, quick=True)
        for bad in (
            {"num_nodes": MIN_NODES - 1},
            {"branching_factor": 1},
            {"send_to_representatives": 3},
            {"queue_strategy": "mystery"},
            {"scheme": "nope"},
            {"subjects": ()},
            {"publications": ()},
            {"drain_time": 0.0},
        ):
            with pytest.raises(ConfigurationError):
                dataclasses.replace(scenario, **bad).validate()

    def test_trace_kinds_include_lifecycle(self):
        assert {"node-crash", "node-recover"} <= TESTKIT_TRACE_KINDS
        assert "deliver" in TESTKIT_TRACE_KINDS


class TestRunScenario:
    def test_clean_scenario_executes(self):
        scenario = sample_scenario(1, quick=True)
        result = run_scenario(scenario)
        assert result.ok, [str(v) for v in result.violations]
        assert result.delivered > 0
        assert "seed=1" in result.summary_line()
        # The suite observed the whole run, not just deliveries.
        assert result.suite.causal.trees
