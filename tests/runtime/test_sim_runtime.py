"""SimRuntime: the thin adapter over the simulation substrate."""

from __future__ import annotations

import pytest

from repro.core.identifiers import NodeId, ZonePath
from repro.runtime.interface import Runtime
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import Network


class Recorder:
    """Minimal message handler."""

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self.inbox = []
        self.crashed = False

    def receive(self, sender, message):
        self.inbox.append((sender, message))


def sim_runtime(seed: int) -> SimRuntime:
    sim = Simulation(seed=seed)
    return SimRuntime(sim, Network(sim))


def test_satisfies_runtime_protocol():
    assert isinstance(sim_runtime(1), Runtime)
    assert sim_runtime(1).kind == "sim"


def test_wraps_existing_simulation_and_network():
    sim = Simulation(seed=3)
    network = Network(sim)
    runtime = SimRuntime(sim, network)
    assert runtime.sim is sim
    assert runtime.network is network
    assert runtime.seed == 3 and runtime.now == 0.0
    # Delegation is by bound method: scheduling through the runtime is
    # indistinguishable from scheduling on the simulation directly.
    assert runtime.call_after.__self__ is sim
    assert runtime.send.__self__ is network


def test_transport_round_trip():
    runtime = sim_runtime(1)
    alice = Recorder(ZonePath(("alice",)))
    bob = Recorder(ZonePath(("bob",)))
    runtime.register(alice)
    runtime.register(bob)
    assert runtime.is_registered(alice.node_id)
    assert set(runtime.node_ids) == {alice.node_id, bob.node_id}

    assert runtime.send(alice.node_id, bob.node_id, "hello")
    runtime.run_for(1.0)
    assert bob.inbox == [(alice.node_id, "hello")]
    assert runtime.node_stats(alice.node_id).sent_messages == 1

    runtime.unregister(bob.node_id)
    assert not runtime.is_registered(bob.node_id)


def test_rng_streams_are_named_and_stable():
    runtime = sim_runtime(5)
    first = runtime.rng("gossip").random()
    assert runtime.rng("gossip") is runtime.rng("gossip")
    other = sim_runtime(5)
    assert other.rng("gossip").random() == pytest.approx(first)


def test_run_passthroughs_advance_virtual_time():
    runtime = sim_runtime(1)
    ticks = []
    runtime.call_after(2.0, ticks.append, "a")
    runtime.call_after(4.0, ticks.append, "b")
    runtime.run_until(3.0)
    assert ticks == ["a"] and runtime.now == 3.0
    runtime.run_for(2.0)
    assert ticks == ["a", "b"] and runtime.now == 5.0
