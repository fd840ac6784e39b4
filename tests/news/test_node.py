"""Tests for the NewsWire node: publishing rules, auth, state transfer."""

import pytest

from repro.core.config import NewsWireConfig
from repro.core.errors import CertificateError, FlowControlError, PublishError
from repro.core.identifiers import ItemId, ZonePath
from repro.multicast.messages import Envelope
from repro.news.deployment import build_newswire
from repro.news.item import NewsItem
from repro.pubsub.subscription import Subscription

SUBJECT = "slashdot/tech"


def build(num_nodes=60, seed=8, publisher_rate=10.0, **config_overrides):
    config = NewsWireConfig(branching_factor=6, **config_overrides)
    return build_newswire(
        num_nodes,
        config,
        publisher_names=("slashdot",),
        publisher_rate=publisher_rate,
        subscriptions_for=lambda index: (Subscription(SUBJECT),),
        seed=seed,
    )


class TestPublishingRules:
    def test_publish_requires_certificate(self):
        system = build()
        uncertified = system.subscribers[0]
        with pytest.raises(PublishError):
            uncertified.publish_news(SUBJECT, "nope")

    def test_flow_control_enforced(self):
        system = build(publisher_rate=5.0)
        publisher = system.publisher("slashdot")
        blocked = 0
        for index in range(20):
            try:
                publisher.publish_news(SUBJECT, f"h{index}")
            except FlowControlError:
                blocked += 1
        assert blocked == 15  # burst of 5, then blocked

    def test_flow_control_tokens_refill(self):
        system = build(publisher_rate=5.0)
        publisher = system.publisher("slashdot")
        for index in range(5):
            publisher.publish_news(SUBJECT, f"h{index}")
        with pytest.raises(FlowControlError):
            publisher.publish_news(SUBJECT, "over")
        system.run_for(1.0)  # 5 tokens back
        publisher.publish_news(SUBJECT, "after refill")

    def test_scope_enforced_by_certificate(self):
        system = build()
        publisher = system.publisher("slashdot")
        scoped_node = system.subscribers[0]
        certificate = system.grant_publisher(
            scoped_node,
            "regional",
            scope=ZonePath(scoped_node.node_id.labels[:1]),
        )
        with pytest.raises(CertificateError):
            scoped_node.publish_news(SUBJECT, "too wide")  # root > scope
        scoped_node.publish_news(
            SUBJECT, "ok", zone=ZonePath(scoped_node.node_id.labels[:1])
        )

    def test_cannot_publish_as_someone_else(self):
        system = build()
        publisher = system.publisher("slashdot")
        original = publisher.publish_news(SUBJECT, "mine")
        import dataclasses
        forged = dataclasses.replace(original, publisher="reuters")
        with pytest.raises(PublishError):
            publisher.publish_revision(forged)

    def test_serials_monotonic(self):
        system = build(publisher_rate=100.0)
        publisher = system.publisher("slashdot")
        serials = [
            publisher.publish_news(SUBJECT, f"h{k}").item_id.serial
            for k in range(5)
        ]
        assert serials == [1, 2, 3, 4, 5]

    def test_items_are_signed(self):
        system = build()
        publisher = system.publisher("slashdot")
        item = publisher.publish_news(SUBJECT, "signed")
        secret = system.deployment.keychain.secret_for("slashdot")
        assert item.verify_signature(secret)


class TestDeliveryAndAuth:
    def test_delivered_items_enter_cache(self):
        system = build()
        system.run_for(4.0)
        item = system.publisher("slashdot").publish_news(SUBJECT, "story")
        system.run_for(15.0)
        cached = sum(1 for node in system.nodes if item.item_id in node.cache)
        assert cached == len(system.nodes)

    def test_forged_item_rejected_at_delivery(self):
        system = build()
        victim = system.subscribers[0]
        forged = NewsItem(
            ItemId("slashdot", 999), SUBJECT, "FAKE NEWS", publisher="slashdot"
        )
        envelope = Envelope(
            item_key=forged.item_id,
            payload=forged,
            publisher="slashdot",
            subject=SUBJECT,
            hints=victim.scheme.hints_for(SUBJECT, "slashdot"),
        )
        victim._deliver(envelope)
        assert system.trace.count("auth-rejected") == 1
        assert forged.item_id not in victim.cache

    def test_unknown_publisher_rejected(self):
        system = build()
        victim = system.subscribers[0]
        forged = NewsItem(
            ItemId("ghost", 1), SUBJECT, "??", publisher="ghost"
        ).signed(b"whatever")
        envelope = Envelope(
            item_key=forged.item_id,
            payload=forged,
            publisher="ghost",
            subject=SUBJECT,
            hints=victim.scheme.hints_for(SUBJECT, "ghost"),
        )
        victim._deliver(envelope)
        assert forged.item_id not in victim.cache

    def test_revision_fusion_across_network(self):
        system = build()
        system.run_for(4.0)
        publisher = system.publisher("slashdot")
        original = publisher.publish_news(SUBJECT, "v1")
        system.run_for(10.0)
        publisher.publish_revision(original, headline="v2")
        system.run_for(15.0)
        for node in system.subscribers:
            latest = node.cache.latest(original.story_key)
            assert latest is not None and latest.headline == "v2"


class TestStateTransfer:
    def test_joiner_receives_recent_matching_items(self):
        system = build()
        system.run_for(4.0)
        publisher = system.publisher("slashdot")
        items = [publisher.publish_news(SUBJECT, f"h{k}") for k in range(3)]
        system.run_for(15.0)

        veteran = system.subscribers[0]
        newbie = system.deployment.add_agent(
            veteran.node_id.parent().child("n999"),
            introducer=veteran.node_id,
        )
        newbie.subscribe(Subscription(SUBJECT))
        newbie.request_state_transfer(veteran.node_id)
        system.run_for(5.0)
        assert all(item.item_id in newbie.cache for item in items)
        assert system.trace.count("state-transfer") == 3

    def test_state_transfer_filters_by_subject(self):
        system = build()
        system.run_for(4.0)
        publisher = system.publisher("slashdot")
        publisher.publish_news(SUBJECT, "wanted")
        system.run_for(15.0)

        veteran = system.subscribers[0]
        newbie = system.deployment.add_agent(
            veteran.node_id.parent().child("n999"),
            introducer=veteran.node_id,
        )
        newbie.subscribe(Subscription("slashdot/other"))
        newbie.request_state_transfer(veteran.node_id)
        system.run_for(5.0)
        assert len(newbie.cache) == 0
