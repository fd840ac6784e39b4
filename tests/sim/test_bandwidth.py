"""Tests for the per-node egress bandwidth model."""

import pytest

from repro.core.errors import NetworkError
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Process


def zp(text):
    return ZonePath.parse(text)


class Sink(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = []

    def on_message(self, sender, message):
        self.arrivals.append((self.sim.now, message))


def rig(bandwidth):
    sim = Simulation(seed=1)
    network = Network(
        sim, latency=FixedLatency(0.1), bandwidth=bandwidth
    )
    a = Sink(zp("/z/a"), SimRuntime(sim, network))
    b = Sink(zp("/z/b"), SimRuntime(sim, network))
    c = Sink(zp("/z/c"), SimRuntime(sim, network))
    return sim, network, a, b, c


class TestBandwidth:
    def test_transmission_time_added(self):
        sim, network, a, b, c = rig(bandwidth=1000.0)  # 1 KB/s
        a.send(b.node_id, "m", size=500)  # 0.5 s tx + 0.1 s latency
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(0.6)

    def test_messages_serialize_on_uplink(self):
        sim, network, a, b, c = rig(bandwidth=1000.0)
        a.send(b.node_id, "first", size=1000)   # tx 0..1
        a.send(c.node_id, "second", size=1000)  # tx 1..2 (queued)
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(1.1)
        assert c.arrivals[0][0] == pytest.approx(2.1)

    def test_distinct_senders_do_not_queue_on_each_other(self):
        sim, network, a, b, c = rig(bandwidth=1000.0)
        a.send(c.node_id, "from-a", size=1000)
        b.send(c.node_id, "from-b", size=1000)
        sim.run()
        times = sorted(t for t, _ in c.arrivals)
        assert times[0] == pytest.approx(1.1)
        assert times[1] == pytest.approx(1.1)  # parallel uplinks

    def test_link_frees_over_time(self):
        sim, network, a, b, c = rig(bandwidth=1000.0)
        a.send(b.node_id, "first", size=1000)
        sim.run()
        # Much later, a fresh send pays only its own tx time.
        sim.run_until(10.0)
        a.send(c.node_id, "later", size=500)
        sim.run()
        assert c.arrivals[0][0] == pytest.approx(10.6)

    def test_unlimited_by_default(self):
        sim = Simulation(seed=1)
        network = Network(sim, latency=FixedLatency(0.1))
        a = Sink(zp("/z/a"), SimRuntime(sim, network))
        b = Sink(zp("/z/b"), SimRuntime(sim, network))
        a.send(b.node_id, "m", size=10**9)
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(0.1)

    def test_throughput_capped_at_bandwidth(self):
        sim, network, a, b, c = rig(bandwidth=10_000.0)
        for index in range(20):
            a.send(b.node_id, index, size=1000)  # 20 KB at 10 KB/s
        sim.run()
        assert b.arrivals[-1][0] == pytest.approx(2.1)
        assert len(b.arrivals) == 20

    def test_invalid_bandwidth(self):
        sim = Simulation()
        with pytest.raises(NetworkError):
            Network(sim, bandwidth=0.0)


class TestIngressBandwidth:
    def _rig(self, ingress):
        sim = Simulation(seed=2)
        network = Network(
            sim, latency=FixedLatency(0.1), ingress_bandwidth=ingress
        )
        a = Sink(zp("/z/a"), SimRuntime(sim, network))
        b = Sink(zp("/z/b"), SimRuntime(sim, network))
        c = Sink(zp("/z/c"), SimRuntime(sim, network))
        return sim, network, a, b, c

    def test_reception_time_added(self):
        sim, network, a, b, c = self._rig(ingress=1000.0)
        a.send(c.node_id, "m", size=500)
        sim.run()
        assert c.arrivals[0][0] == pytest.approx(0.6)  # 0.1 lat + 0.5 rx

    def test_flood_delays_legitimate_traffic(self):
        """Two senders share the victim's downlink: the second message
        queues behind the first — what a DoS flood does to a server."""
        sim, network, a, b, c = self._rig(ingress=1000.0)
        a.send(c.node_id, "flood", size=2000)
        b.send(c.node_id, "legit", size=100)
        sim.run()
        times = {m: t for t, m in c.arrivals}
        assert times["flood"] == pytest.approx(2.1)
        assert times["legit"] == pytest.approx(2.2)  # queued behind flood

    def test_different_receivers_independent(self):
        sim, network, a, b, c = self._rig(ingress=1000.0)
        a.send(b.node_id, "to-b", size=1000)
        a.send(c.node_id, "to-c", size=1000)
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(1.1)
        assert c.arrivals[0][0] == pytest.approx(1.1)

    def test_invalid_ingress(self):
        sim = Simulation()
        with pytest.raises(NetworkError):
            Network(sim, ingress_bandwidth=-1.0)
