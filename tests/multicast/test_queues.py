"""Tests for forwarding queues and drain strategies."""

import pytest

from repro.core.config import MulticastConfig
from repro.core.errors import ConfigurationError
from repro.core.identifiers import ZonePath
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Process
from repro.multicast.queues import ForwardingQueues


def zp(text):
    return ZonePath.parse(text)


def make_queues(strategy: str, rate: float = 10.0):
    sim = Simulation(seed=1)
    network = Network(sim, latency=FixedLatency(0.001))
    node = Process(zp("/z/fwd"), SimRuntime(sim, network))
    sent = []
    config = MulticastConfig(
        queue_strategy=strategy, max_send_rate=rate, forwarding_delay=0.0
    )
    queues = ForwardingQueues(node, config, send_fn=lambda t, m: sent.append((t, m)))
    return sim, node, queues, sent


class TestPacing:
    def test_messages_sent_at_rate(self):
        sim, node, queues, sent = make_queues("fifo", rate=10.0)
        for index in range(5):
            queues.enqueue(zp("/z/a"), f"m{index}")
        sim.run()
        assert [m for _, m in sent] == [f"m{i}" for i in range(5)]
        # 5 messages at 10/s: last leaves ~0.4s after the first
        assert sim.now >= 0.4

    def test_backlog_tracked(self):
        sim, node, queues, sent = make_queues("fifo", rate=1.0)
        for index in range(3):
            queues.enqueue(zp("/z/a"), index)
        assert queues.backlog == 3
        assert queues.stats.max_backlog == 3
        sim.run()
        assert queues.backlog == 0
        assert queues.stats.sent == 3

    def test_mean_wait_grows_with_backlog(self):
        sim, node, queues, sent = make_queues("fifo", rate=1.0)
        for index in range(5):
            queues.enqueue(zp("/z/a"), index)
        sim.run()
        assert queues.stats.mean_wait > 1.0


class TestStrategies:
    def test_fifo_preserves_order(self):
        sim, node, queues, sent = make_queues("fifo")
        for index in range(10):
            queues.enqueue(zp(f"/z/t{index % 3}"), index, urgency=index % 9 + 1)
        sim.run()
        assert [m for _, m in sent] == list(range(10))

    def test_urgency_first_prioritizes_low_urgency_values(self):
        """NITF: urgency 1 is a flash, 8 is routine."""
        sim, node, queues, sent = make_queues("urgency_first")
        queues.enqueue(zp("/z/a"), "routine", urgency=8)
        queues.enqueue(zp("/z/a"), "flash", urgency=1)
        queues.enqueue(zp("/z/a"), "normal", urgency=5)
        sim.run()
        assert [m for _, m in sent] == ["flash", "normal", "routine"]

    def test_urgency_ties_broken_by_arrival(self):
        sim, node, queues, sent = make_queues("urgency_first")
        queues.enqueue(zp("/z/a"), "first", urgency=5)
        queues.enqueue(zp("/z/a"), "second", urgency=5)
        sim.run()
        assert [m for _, m in sent] == ["first", "second"]

    def test_weighted_rr_shares_proportional_to_weight(self):
        sim, node, queues, sent = make_queues("weighted_rr")
        for index in range(30):
            queues.enqueue(zp("/z/big"), ("big", index), weight=3.0)
            queues.enqueue(zp("/z/small"), ("small", index), weight=1.0)
        sim.run_until(1.95)  # ~19 sends at 10/s
        big = sum(1 for _, m in sent if m[0] == "big")
        small = sum(1 for _, m in sent if m[0] == "small")
        assert big > 2 * small  # ~3:1 service share

    def test_weighted_rr_fifo_within_queue(self):
        sim, node, queues, sent = make_queues("weighted_rr")
        for index in range(5):
            queues.enqueue(zp("/z/a"), index)
        sim.run()
        assert [m for _, m in sent] == list(range(5))

    def test_shortest_queue_drains_small_flows_first(self):
        sim, node, queues, sent = make_queues("shortest_queue")
        for index in range(10):
            queues.enqueue(zp("/z/big"), ("big", index))
        queues.enqueue(zp("/z/small"), ("small", 0))
        sim.run_until(0.35)  # a few sends
        labels = [m[0] for _, m in sent]
        assert "small" in labels[:3]

    def test_weight_must_be_positive(self):
        sim, node, queues, sent = make_queues("weighted_rr")
        with pytest.raises(ConfigurationError):
            queues.enqueue(zp("/z/a"), "x", weight=0.0)


class TestCrashBehaviour:
    def test_crash_clears_queues(self):
        sim, node, queues, sent = make_queues("fifo", rate=1.0)
        for index in range(5):
            queues.enqueue(zp("/z/a"), index)
        node.crash()
        dropped = queues.clear()
        assert dropped == 5
        assert queues.stats.dropped_on_crash == 5
        sim.run()
        assert len(sent) == 0

    def test_restart_resumes_draining(self):
        sim, node, queues, sent = make_queues("fifo", rate=100.0)
        node.crash()
        node.recover()
        queues.enqueue(zp("/z/a"), "x")
        queues.restart()
        sim.run()
        assert [m for _, m in sent] == ["x"]
