"""Tests for the simulated network."""

import pytest

from repro.core.errors import NetworkError
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import (
    FixedLatency,
    HierarchicalLatency,
    Network,
    UniformLatency,
    estimate_size,
    zone_distance,
)
from repro.sim.node import Process


class Sink(Process):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.sim.now, sender, message))


def zp(text):
    return ZonePath.parse(text)


@pytest.fixture
def net_pair():
    sim = Simulation(seed=1)
    network = Network(sim, latency=FixedLatency(0.5))
    a = Sink(zp("/z/a"), SimRuntime(sim, network))
    b = Sink(zp("/z/b"), SimRuntime(sim, network))
    return sim, network, a, b


class TestDelivery:
    def test_message_arrives_after_latency(self, net_pair):
        sim, network, a, b = net_pair
        a.send(b.node_id, "hello")
        sim.run()
        assert b.received == [(0.5, a.node_id, "hello")]

    def test_self_send_is_instant(self, net_pair):
        sim, network, a, b = net_pair
        network.send(a.node_id, a.node_id, "loop")
        sim.run()
        assert a.received[0][0] == 0.0

    def test_unknown_destination_counted_not_raised(self, net_pair):
        sim, network, a, b = net_pair
        ok = a.send(zp("/z/ghost"), "x")
        assert not ok
        assert network.stats.dropped_unknown == 1

    def test_crashed_destination_drops_at_delivery(self, net_pair):
        sim, network, a, b = net_pair
        a.send(b.node_id, "x")
        b.crash()
        sim.run()
        assert b.received == []
        assert network.stats.dropped_crashed == 1

    def test_sender_crashed_cannot_send(self, net_pair):
        sim, network, a, b = net_pair
        a.crash()
        assert not a.send(b.node_id, "x")

    def test_unregister(self, net_pair):
        sim, network, a, b = net_pair
        network.unregister(b.node_id)
        assert not network.is_registered(b.node_id)
        a.send(b.node_id, "x")
        assert network.stats.dropped_unknown == 1

    def test_stats_count_bytes(self, net_pair):
        sim, network, a, b = net_pair
        a.send(b.node_id, "x", size=1000)
        sim.run()
        assert network.node_stats(a.node_id).sent_bytes == 1000
        assert network.node_stats(b.node_id).received_bytes == 1000
        assert network.stats.total_bytes == 1000

    def test_reset_node_stats(self, net_pair):
        sim, network, a, b = net_pair
        a.send(b.node_id, "x")
        sim.run()
        network.reset_node_stats()
        assert network.node_stats(a.node_id).sent_messages == 0


class TestLoss:
    def test_invalid_loss_rate(self):
        sim = Simulation()
        with pytest.raises(NetworkError):
            Network(sim, loss_rate=1.0)

    def test_loss_drops_roughly_at_rate(self):
        sim = Simulation(seed=3)
        network = Network(sim, latency=FixedLatency(0.01), loss_rate=0.3)
        a = Sink(zp("/z/a"), SimRuntime(sim, network))
        b = Sink(zp("/z/b"), SimRuntime(sim, network))
        for _ in range(1000):
            a.send(b.node_id, "x")
        sim.run()
        assert 200 < network.stats.dropped_loss < 400
        assert len(b.received) == 1000 - network.stats.dropped_loss


class TestPartitions:
    def test_partition_blocks_cross_group(self, net_pair):
        sim, network, a, b = net_pair
        network.partition([[a.node_id], [b.node_id]])
        a.send(b.node_id, "x")
        sim.run()
        assert b.received == []
        assert network.stats.dropped_partition == 1

    def test_partition_allows_same_group(self, net_pair):
        sim, network, a, b = net_pair
        network.partition([[a.node_id, b.node_id]])
        a.send(b.node_id, "x")
        sim.run()
        assert len(b.received) == 1

    def test_heal_restores(self, net_pair):
        sim, network, a, b = net_pair
        network.partition([[a.node_id], [b.node_id]])
        network.heal()
        a.send(b.node_id, "x")
        sim.run()
        assert len(b.received) == 1

    def test_unlisted_nodes_in_group_zero(self, net_pair):
        sim, network, a, b = net_pair
        # b is listed in group 1; a unlisted -> group 0: blocked.
        network.partition([[], [b.node_id]])
        a.send(b.node_id, "x")
        sim.run()
        assert b.received == []


class TestLatencyModels:
    def test_zone_distance(self):
        assert zone_distance(zp("/a/x"), zp("/a/y")) == 1
        assert zone_distance(zp("/a/x"), zp("/b/y")) == 2
        assert zone_distance(zp("/a/x"), zp("/a/x")) == 0
        assert zone_distance(zp("/a/b/c"), zp("/a/b/d")) == 1
        assert zone_distance(zp("/a/b/c"), zp("/a/z/w")) == 2

    def test_hierarchical_latency_bands(self):
        import random
        model = HierarchicalLatency()
        rng = random.Random(1)
        near = model.sample(zp("/a/x"), zp("/a/y"), rng)
        far = model.sample(zp("/a/b/c"), zp("/d/e/f"), rng)
        assert near <= 0.010
        assert far >= 0.030

    def test_uniform_latency_in_range(self):
        import random
        model = UniformLatency(0.1, 0.2)
        sample = model.sample(zp("/a"), zp("/b"), random.Random(1))
        assert 0.1 <= sample <= 0.2

    def test_fixed_latency(self):
        import random
        assert FixedLatency(0.25).sample(zp("/a"), zp("/b"), random.Random()) == 0.25


class TestEstimateSize:
    def test_uses_wire_size_attribute(self):
        class Message:
            wire_size = 777

        assert estimate_size(Message()) == 777

    def test_fallback_for_plain_objects(self):
        assert estimate_size("hello") == 256

    def test_ignores_invalid_wire_size(self):
        class Message:
            wire_size = -5

        assert estimate_size(Message()) == 256
