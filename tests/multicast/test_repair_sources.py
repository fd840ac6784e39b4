"""Tests for repair sources: delivery caches and forwarding logs (§9)."""

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.astrolabe.deployment import build_astrolabe
from repro.multicast.messages import Envelope, RepairDigest, RepairRequest
from repro.multicast.node import MulticastNode


def build(num_nodes=40, seed=2):
    config = NewsWireConfig(branching_factor=6)
    return build_astrolabe(
        num_nodes, config, seed=seed, agent_class=MulticastNode,
        trace_kinds={"deliver"},
    )


def envelope(key, sim):
    return Envelope(
        item_key=key, payload={"k": key}, publisher="p", subject="s",
        created_at=sim.now,
    )


class TestForwardLog:
    def test_forwarders_log_items_they_handle(self):
        deployment = build()
        deployment.run_rounds(2)
        sender = deployment.agents[0]
        env = envelope("k1", deployment.sim)
        sender.send_to_zone(ZonePath(), env)
        deployment.sim.run_for(10)
        logged = sum(
            1 for agent in deployment.agents if "k1" in agent.forward_log
        )
        # Every node that handled the envelope at any level logged it.
        assert logged >= len(deployment.agents) * 0.9

    def test_repair_request_served_from_forward_log(self):
        """A node that merely forwarded (no local delivery — plain
        MulticastNode accepts everything, so simulate a non-acceptor)."""
        deployment = build()
        deployment.run_rounds(2)
        source = deployment.agents[1]
        requester = deployment.agents[2]
        env = envelope("k9", deployment.sim)
        # Put the envelope only in the *forward log* of the source.
        source.forward_log.add("k9", env)
        assert "k9" not in source.delivered
        source.receive(requester.node_id, RepairRequest(("k9",)))
        deployment.sim.run_for(2)
        assert "k9" in requester.delivered

    def test_unknown_keys_produce_no_response(self):
        deployment = build()
        source = deployment.agents[1]
        requester = deployment.agents[2]
        before = deployment.network.stats.delivered
        source.receive(requester.node_id, RepairRequest(("ghost",)))
        deployment.sim.run_for(2)
        assert "ghost" not in requester.delivered


class TestRepairDigest:
    def test_entries_rebuilt_only_when_deliveries_change(self):
        """A node reuses its digest entries until ``delivered`` moves,
        and the entries always equal a fresh build, in the same order."""
        deployment = build()
        deployment.run_rounds(2)
        node = deployment.agents[0]
        digests = []
        node.send = lambda target, message: digests.append(message)

        def fresh():
            return tuple(
                (key, env.subject, env.hints, env.scope)
                for key, env in (
                    (k, node.delivered.get(k)) for k in node.delivered.digest()
                )
            )

        for key in ("k1", "k2", "k3"):
            node.delivered.add(key, envelope(key, deployment.sim))
        node._repair_round()
        before = fresh()
        node._repair_round()
        node.delivered.add("k4", envelope("k4", deployment.sim))
        node._repair_round()
        first, second, third = [
            message.entries for message in digests if isinstance(message, RepairDigest)
        ]
        assert first == before
        assert second is first
        assert third is not first
        assert third == fresh()
        assert {entry[0] for entry in first} == {"k1", "k2", "k3"}
