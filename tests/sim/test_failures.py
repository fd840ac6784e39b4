"""Tests for the failure injector."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector, FloodMessage
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Process


def zp(text):
    return ZonePath.parse(text)


class Sink(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.floods = 0

    def on_message(self, sender, message):
        if isinstance(message, FloodMessage):
            self.floods += 1


@pytest.fixture
def rig():
    sim = Simulation(seed=9)
    network = Network(sim, latency=FixedLatency(0.01))
    injector = FailureInjector(sim, network)
    nodes = [Sink(zp(f"/z/n{i}"), SimRuntime(sim, network)) for i in range(10)]
    return sim, network, injector, nodes


class TestCrashes:
    def test_crash_at(self, rig):
        sim, network, injector, nodes = rig
        injector.crash_at(5.0, nodes[0])
        sim.run_until(4.9)
        assert not nodes[0].crashed
        sim.run_until(5.1)
        assert nodes[0].crashed
        assert injector.stats.crashes == 1

    def test_crash_for_recovers(self, rig):
        sim, network, injector, nodes = rig
        injector.crash_for(1.0, nodes[0], downtime=2.0)
        sim.run_until(2.0)
        assert nodes[0].crashed
        sim.run_until(3.5)
        assert not nodes[0].crashed
        assert injector.stats.recoveries == 1

    def test_crash_fraction_count(self, rig):
        sim, network, injector, nodes = rig
        victims = injector.crash_fraction(1.0, nodes, 0.3)
        assert len(victims) == 3
        sim.run_until(2.0)
        assert sum(1 for node in nodes if node.crashed) == 3

    def test_crash_fraction_validation(self, rig):
        sim, network, injector, nodes = rig
        with pytest.raises(ConfigurationError):
            injector.crash_fraction(1.0, nodes, 1.5)

    def test_crash_fraction_deterministic(self):
        def victims_for(seed):
            sim = Simulation(seed=seed)
            network = Network(sim)
            injector = FailureInjector(sim, network)
            nodes = [Sink(zp(f"/z/n{i}"), SimRuntime(sim, network)) for i in range(10)]
            return [str(v.node_id) for v in injector.crash_fraction(1.0, nodes, 0.5)]

        assert victims_for(4) == victims_for(4)

    def test_churn_keeps_crashing_and_recovering(self, rig):
        sim, network, injector, nodes = rig
        injector.churn(nodes, rate=2.0, downtime=1.0)
        sim.run_until(30.0)
        assert injector.stats.crashes > 10
        assert injector.stats.recoveries > 10

    def test_churn_rate_validation(self, rig):
        sim, network, injector, nodes = rig
        with pytest.raises(ConfigurationError):
            injector.churn(nodes, rate=0.0, downtime=1.0)


class TestPartitionsAndFloods:
    def test_partition_for_heals(self, rig):
        sim, network, injector, nodes = rig
        groups = [[nodes[0].node_id], [nodes[1].node_id]]
        injector.partition_for(1.0, groups, duration=2.0)
        sim.run_until(1.5)
        nodes[0].send(nodes[1].node_id, "during")
        sim.run_until(3.5)
        nodes[0].send(nodes[1].node_id, "after")
        sim.run()
        assert network.stats.dropped_partition == 1
        assert injector.stats.partitions == 1

    def test_flood_delivers_junk(self, rig):
        sim, network, injector, nodes = rig
        injector.flood(nodes[0].node_id, rate=100.0, start=0.0, duration=1.0)
        sim.run_until(2.0)
        assert nodes[0].floods > 50
        assert injector.stats.flood_messages == nodes[0].floods

    def test_flood_rate_validation(self, rig):
        sim, network, injector, nodes = rig
        with pytest.raises(ConfigurationError):
            injector.flood(nodes[0].node_id, rate=0.0, start=0.0, duration=1.0)

    def test_flood_stops_after_duration(self, rig):
        sim, network, injector, nodes = rig
        injector.flood(nodes[0].node_id, rate=100.0, start=0.0, duration=1.0)
        sim.run_until(1.5)
        count = nodes[0].floods
        sim.run_until(5.0)
        assert nodes[0].floods == count

    def test_flood_counts_accumulate_in_failure_stats(self, rig):
        sim, network, injector, nodes = rig
        injector.flood(nodes[0].node_id, rate=50.0, start=0.0, duration=1.0)
        injector.flood(nodes[1].node_id, rate=50.0, start=0.0, duration=1.0)
        sim.run_until(3.0)
        assert injector.stats.flood_messages == nodes[0].floods + nodes[1].floods
        assert injector.stats.flood_messages > 50


class TestFailuresAgainstRealGossip:
    """The injector driving full Astrolabe agents (not bare processes)."""

    def _deployment(self, num_nodes=8, seed=3):
        from repro.astrolabe.deployment import build_astrolabe

        return build_astrolabe(num_nodes, seed=seed)

    def test_crash_silences_and_recover_restores_gossip(self):
        deployment = self._deployment()
        victim = deployment.agents[0]
        deployment.sim.run_until(4.0)
        sent_before = deployment.network.node_stats(victim.node_id).sent_messages
        assert sent_before > 0  # it was gossiping

        deployment.failures.crash_for(5.0, victim, downtime=10.0)
        deployment.sim.run_until(6.0)
        assert victim.crashed
        sent_at_crash = deployment.network.node_stats(victim.node_id).sent_messages
        deployment.sim.run_until(14.5)
        # A crashed agent sends nothing: its timers were cancelled.
        assert (
            deployment.network.node_stats(victim.node_id).sent_messages
            == sent_at_crash
        )

        deployment.sim.run_until(40.0)
        assert not victim.crashed
        # Recovery restarts the gossip timer and traffic resumes.
        assert (
            deployment.network.node_stats(victim.node_id).sent_messages
            > sent_at_crash
        )
        assert deployment.failures.stats.crashes == 1
        assert deployment.failures.stats.recoveries == 1

    def test_partition_heals_and_state_reconverges(self):
        deployment = self._deployment(num_nodes=8, seed=5)
        agents = deployment.agents
        groups = [
            [agent.node_id for agent in agents[:4]],
            [agent.node_id for agent in agents[4:]],
        ]
        # Shorter than the row TTL (30s at default config): the halves
        # keep each other's stale rows and reconverge purely by gossip.
        deployment.failures.partition_for(1.0, groups, duration=10.0)
        deployment.sim.run_until(3.0)
        source, observer = agents[0], agents[-1]
        source.set_attribute("flag", 7)
        deployment.sim.run_until(9.0)  # still partitioned
        row = observer.zone_table(source.parent_zone).row(source.node_id.name)
        assert row is None or row.get("flag") != 7
        deployment.sim.run_until(60.0)  # healed at t=11, plus convergence
        row = observer.zone_table(source.parent_zone).row(source.node_id.name)
        assert row is not None and row.get("flag") == 7
        assert deployment.failures.stats.partitions == 1
