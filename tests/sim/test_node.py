"""Tests for the Process base class (timers, crash semantics)."""

import pytest

from repro.core.errors import NetworkError
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Process


def zp(text):
    return ZonePath.parse(text)


class Recorder(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.events = []

    def on_start(self):
        self.events.append("start")

    def on_message(self, sender, message):
        self.events.append(("msg", message))

    def on_crash(self):
        self.events.append("crash")

    def on_recover(self):
        self.events.append("recover")


@pytest.fixture
def node():
    sim = Simulation(seed=2)
    network = Network(sim, latency=FixedLatency(0.01))
    return sim, network, Recorder(zp("/z/n"), SimRuntime(sim, network))


class TestLifecycle:
    def test_sim_network_pair_is_not_a_runtime(self, node):
        sim, network, process = node
        with pytest.raises(TypeError):
            Process(zp("/z/m"), sim, network)

    def test_start_calls_hook(self, node):
        sim, network, process = node
        process.start()
        assert process.events == ["start"]

    def test_crash_sets_flag_and_hook(self, node):
        sim, network, process = node
        process.crash()
        assert process.crashed
        assert "crash" in process.events

    def test_crash_idempotent(self, node):
        sim, network, process = node
        process.crash()
        process.crash()
        assert process.events.count("crash") == 1

    def test_recover_only_after_crash(self, node):
        sim, network, process = node
        process.recover()
        assert "recover" not in process.events
        process.crash()
        process.recover()
        assert "recover" in process.events
        assert not process.crashed


class TestTimers:
    def test_set_timer_fires(self, node):
        sim, network, process = node
        fired = []
        process.set_timer(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]

    def test_crash_cancels_pending_timers(self, node):
        sim, network, process = node
        fired = []
        process.set_timer(1.0, fired.append, "x")
        process.crash()
        sim.run()
        assert fired == []

    def test_crash_cancels_periodic(self, node):
        sim, network, process = node
        fired = []
        process.every(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.5)
        process.crash()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_timer_guard_when_crashed_between(self, node):
        """A timer that fires at the same instant as a crash is guarded."""
        sim, network, process = node
        fired = []
        process.set_timer(1.0, fired.append, "x")
        sim.call_at(0.5, process.crash)
        sim.run()
        assert fired == []

    def test_cannot_set_timer_while_crashed(self, node):
        sim, network, process = node
        process.crash()
        with pytest.raises(NetworkError):
            process.set_timer(1.0, lambda: None)
        with pytest.raises(NetworkError):
            process.every(1.0, lambda: None)

    def test_timer_handle_list_is_pruned(self, node):
        """Fired handles must not accumulate in the tracking list."""
        sim, network, process = node
        for _ in range(100):
            process.set_timer(0.001, lambda: None)
        sim.run()  # all fire (and are marked consumed)
        process.set_timer(0.001, lambda: None)  # triggers the prune
        assert len(process._timers) <= 65


class TestMessaging:
    def test_receive_dispatches_to_hook(self, node):
        sim, network, process = node
        other = Recorder(zp("/z/m"), SimRuntime(sim, network))
        other.send(process.node_id, "ping")
        sim.run()
        assert ("msg", "ping") in process.events

    def test_crashed_node_ignores_delivery(self, node):
        sim, network, process = node
        other = Recorder(zp("/z/m"), SimRuntime(sim, network))
        other.send(process.node_id, "ping")
        process.crash()
        sim.run()
        assert ("msg", "ping") not in process.events
