"""End-to-end NewsWire scenarios across all subsystems."""

import pytest

from repro.core.config import (
    GossipConfig,
    MulticastConfig,
    NewsWireConfig,
)
from repro.experiments.common import receiver_indices
from repro.news.deployment import build_newswire
from repro.pubsub.subscription import Subscription
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import tech_news_scenario


SUBJECTS = ["slashdot/tech", "slashdot/science", "slashdot/games"]


def build(num_nodes=90, seed=21, loss_rate=0.0, **config_overrides):
    config = NewsWireConfig(branching_factor=6, **config_overrides)
    interests = InterestModel(SUBJECTS, subscriptions_per_node=2, seed=seed)
    system = build_newswire(
        num_nodes,
        config,
        publisher_names=("slashdot",),
        publisher_rate=100.0,
        subscriptions_for=interests.subscriptions_for,
        seed=seed,
        loss_rate=loss_rate,
    )
    return system, interests


class TestHappyPath:
    def test_full_day_of_publishing(self):
        system, interests = build()
        system.run_for(4.0)
        publisher = system.publisher("slashdot")
        items = []
        for index in range(12):
            items.append(
                publisher.publish_news(
                    SUBJECTS[index % 3], f"story {index}", body="w " * 100
                )
            )
            system.run_for(2.0)
        system.run_for(30.0)
        for item in items:
            want = len(receiver_indices(interests, 90, item.subject))
            got = sum(1 for node in system.nodes if item.item_id in node.cache)
            assert got == want

    def test_multiple_publishers(self):
        config = NewsWireConfig(branching_factor=6)
        system = build_newswire(
            60,
            config,
            publisher_names=("slashdot", "wired"),
            publisher_rate=50.0,
            subscriptions_for=lambda i: (
                Subscription("slashdot/tech"), Subscription("wired/tech"),
            ),
            seed=4,
        )
        system.run_for(4.0)
        a = system.publisher("slashdot").publish_news("slashdot/tech", "A")
        b = system.publisher("wired").publish_news("wired/tech", "B")
        system.run_for(20.0)
        node = system.subscribers[5]
        assert a.item_id in node.cache and b.item_id in node.cache

    def test_publisher_discovery_via_aggregation(self):
        system, interests = build()
        system.run_for(20.0)
        observer = system.subscribers[-1]
        assert observer.root_aggregate("publishers") == ("slashdot",)


class TestLossyNetwork:
    def test_high_loss_still_converges_with_repair(self):
        system, interests = build(
            loss_rate=0.10,
            multicast=MulticastConfig(
                representatives=3, send_to_representatives=2,
                repair_interval=2.0,
            ),
        )
        system.run_for(4.0)
        publisher = system.publisher("slashdot")
        item = publisher.publish_news(SUBJECTS[0], "lossy story")
        system.run_for(90.0)
        want = len(receiver_indices(interests, 90, SUBJECTS[0]))
        got = sum(1 for node in system.nodes if item.item_id in node.cache)
        assert got >= 0.97 * want


class TestChurn:
    def test_delivery_under_continuous_churn(self):
        system, interests = build(
            multicast=MulticastConfig(
                representatives=3, send_to_representatives=2,
                repair_interval=2.0,
            ),
        )
        system.run_for(4.0)
        system.deployment.failures.churn(
            system.nodes[1:], rate=0.5, downtime=6.0
        )
        publisher = system.publisher("slashdot")
        items = []
        for index in range(5):
            items.append(publisher.publish_news(SUBJECTS[0], f"s{index}"))
            system.run_for(5.0)
        system.run_for(60.0)
        want = len(receiver_indices(interests, 90, SUBJECTS[0]))
        for item in items:
            got = sum(
                1
                for node in system.nodes
                if not node.crashed and item.item_id in node.cache
            )
            # Nodes that were down during dissemination may have missed
            # items outside the repair window; the bulk must arrive.
            assert got >= 0.9 * want

    def test_zone_reconfiguration_after_rep_crash(self):
        """Killing one zone's representatives must not wedge delivery:
        aggregation re-elects contacts and later items flow (§10).

        (Simultaneously decapitating *every* zone partitions the root
        level until out-of-band reintroduction — the configuration
        machinery the paper explicitly scopes out in §8.)
        """
        system, interests = build(
            gossip=GossipConfig(interval=1.0, row_ttl_rounds=5),
        )
        system.run_for(3.0)
        publisher = system.publisher("slashdot")
        # Crash every elected contact of the publisher's own top zone
        # (except the publisher itself, which must stay up to publish).
        observer = publisher
        root = observer.zones[0]
        own_top_label = publisher.node_id.labels[0]
        row = observer.zone_table(root).row(own_top_label)
        contacts = set(row.get("contacts", ()))
        victims = [
            node for node in system.nodes
            if str(node.node_id) in contacts and node is not publisher
        ]
        for victim in victims:
            victim.crash()
        system.run_for(15.0)  # expiry + re-election
        item = publisher.publish_news(SUBJECTS[0], "after reconfig")
        system.run_for(60.0)
        alive_want = sum(
            1
            for index, node in enumerate(system.nodes)
            if not node.crashed
            and any(
                s.subject == SUBJECTS[0]
                for s in interests.subscriptions_for(index)
            )
        )
        got = sum(
            1
            for node in system.nodes
            if not node.crashed and item.item_id in node.cache
        )
        assert got >= 0.9 * alive_want


class TestJoiningFlow:
    def test_full_join_with_state_transfer(self):
        system, interests = build()
        system.run_for(4.0)
        publisher = system.publisher("slashdot")
        old_item = publisher.publish_news(SUBJECTS[0], "before join")
        system.run_for(20.0)

        veteran = next(
            node for node in system.subscribers
            if old_item.item_id in node.cache
        )
        newbie = system.deployment.add_agent(
            veteran.node_id.parent().child("n500"),
            introducer=veteran.node_id,
        )
        newbie.subscribe(Subscription(SUBJECTS[0]))
        newbie.request_state_transfer(veteran.node_id)
        system.run_for(30.0)

        # Past state arrived...
        assert old_item.item_id in newbie.cache
        # ...and future items flow to the joiner through the tree.
        new_item = publisher.publish_news(SUBJECTS[0], "after join")
        system.run_for(30.0)
        assert new_item.item_id in newbie.cache


class TestScenarioReplay:
    @pytest.mark.slow
    def test_tech_news_scenario_replays(self):
        scenario = tech_news_scenario(duration=3600.0, items_per_day=400.0, seed=2)
        config = NewsWireConfig(branching_factor=8)
        system = build_newswire(
            50,
            config,
            publisher_names=scenario.publishers,
            publisher_rate=100.0,
            subscriptions_for=scenario.interests.subscriptions_for,
            seed=2,
        )
        from repro.experiments.common import drive_trace

        stats = drive_trace(system, scenario.publishers[0], scenario.trace)
        system.sim.run_until(3700.0)
        assert stats.published == len(scenario.trace)
        assert stats.flow_controlled == 0
        assert system.trace.count("deliver") > 0
