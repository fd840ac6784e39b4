"""Tests for publisher zone predicates (§8 future work).

"A future feature planned for the system is to allow the publisher
more control over the dissemination by adding a predicate to the
metadata that needs to be evaluated using the attribute values of a
child zone before it can be forwarded to that zone."
"""


import pytest

import repro.astrolabe.aql as aql
from repro.core.config import NewsWireConfig
from repro.astrolabe.certificates import AggregationCertificate
from repro.astrolabe.mib import Row
from repro.multicast.messages import Envelope
from repro.multicast.node import MulticastNode
from repro.pubsub.engine import build_pubsub
from repro.pubsub.subscription import Subscription

SUBJECT = "reuters/world"
TRACE_KINDS = {"deliver", "forward", "filtered", "predicate-filtered"}


def build(num_nodes=64, seed=5, configure=None):
    deployment = build_pubsub(
        num_nodes,
        NewsWireConfig(branching_factor=8),
        subscriptions_for=lambda i: (Subscription(SUBJECT),),
        seed=seed,
        trace_kinds=set(TRACE_KINDS),
    )
    return deployment


class TestZonePredicates:
    def test_true_predicate_changes_nothing(self):
        deployment = build()
        deployment.run_rounds(2)
        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p", zone_predicate="TRUE"
        )
        deployment.sim.run_for(10)
        assert deployment.trace.count("deliver") == 64

    def test_false_predicate_blocks_everything(self):
        deployment = build()
        deployment.run_rounds(2)
        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p", zone_predicate="FALSE"
        )
        deployment.sim.run_for(30)
        assert deployment.trace.count("deliver") == 0
        assert deployment.trace.count("predicate-filtered") > 0

    def test_composable_attribute_predicate_targets_premium(self):
        """The paper's example: an item 'only to premium subscribers'.

        Premium leaves export ``premium=1``; a custom aggregation makes
        the flag composable (``MAX`` = logical OR up the tree); the
        publisher's predicate then prunes whole non-premium subtrees
        AND gates each leaf.
        """
        deployment = build()
        certificate = AggregationCertificate.issue(
            "premiumflag",
            "SELECT MAX(COALESCE(premium, 0)) AS premium",
            "admin",
            deployment.keychain,
            issued_at=1.0,
        )
        deployment.install_everywhere(certificate)
        premium_nodes = []
        for index, agent in enumerate(deployment.agents):
            flag = 1 if index % 4 == 0 else 0
            agent.set_attribute("premium", flag)
            if flag:
                premium_nodes.append(str(agent.node_id))
        deployment.run_rounds(8)

        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p",
            zone_predicate="COALESCE(premium, 0) = 1",
        )
        deployment.sim.run_for(20)
        delivered = {
            e["node"] for e in deployment.trace.events("deliver")
        }
        assert delivered == set(premium_nodes)

    def test_repair_cannot_bypass_predicate(self):
        """The leaf applies the predicate at delivery, so even items
        arriving via anti-entropy repair honour it."""
        deployment = build()
        deployment.run_rounds(2)
        victim = deployment.agents[5]
        envelope = deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p",
            zone_predicate="COALESCE(premium, 0) = 1",
        )
        deployment.sim.run_for(10)
        # Hand-deliver (as a repair response would):
        victim._deliver(envelope)
        assert str(victim.node_id) not in {
            e["node"] for e in deployment.trace.events("deliver")
        }

    def test_malformed_predicate_fails_open(self):
        deployment = build()
        deployment.run_rounds(2)
        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p",
            zone_predicate="NOT A VALID ((( EXPRESSION",
        )
        deployment.sim.run_for(10)
        assert deployment.trace.count("deliver") == 64

    def test_min_zone_size_predicate_composition_caveat(self):
        """A predicate on nmembers must account for leaf rows
        (nmembers=1); `... OR leaf` keeps deliveries flowing."""
        deployment = build()
        deployment.run_rounds(2)
        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p",
            zone_predicate="COALESCE(nmembers, 1) >= 4 OR leaf",
        )
        deployment.sim.run_for(10)
        assert deployment.trace.count("deliver") == 64


class TestPredicateErrors:
    def test_evaluation_error_fails_open_and_is_counted(self):
        deployment = build()
        deployment.run_rounds(2)
        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p", zone_predicate="ABS(contacts) > 0"
        )
        deployment.sim.run_for(10)
        assert deployment.trace.count("deliver") == 64
        errors = deployment.trace.metrics.snapshot()["multicast.predicate_errors"]
        assert errors > 0

    def test_error_free_run_reports_no_error_counter(self):
        deployment = build()
        deployment.run_rounds(2)
        deployment.agents[0].publish(
            SUBJECT, {"h": 1}, publisher="p", zone_predicate="nmembers >= 1"
        )
        deployment.sim.run_for(10)
        assert deployment.trace.count("deliver") == 64
        assert "multicast.predicate_errors" not in deployment.trace.metrics.snapshot()

    def test_non_aql_compile_failure_propagates(self, monkeypatch):
        def broken(source):
            raise RuntimeError("compiler bug")

        monkeypatch.setattr(aql, "compile_predicate", broken)
        monkeypatch.setattr(MulticastNode, "_predicate_cache", {})
        node = build(num_nodes=4).agents[0]
        envelope = Envelope(
            item_key=1, payload=None, publisher="p", subject=SUBJECT,
            zone_predicate="x = 1",
        )
        with pytest.raises(RuntimeError):
            node._zone_predicate_allows(Row({"x": 1}, (1.0, "w"), "w"), envelope)
