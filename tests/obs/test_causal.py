"""Tests for causal dissemination tracing (span trees, paths, losses).

Two layers: synthetic event streams exercising the reconstruction
rules in isolation, and real protocol runs pinning the end-to-end
invariants (exact critical-path telescoping, 100% loss attribution,
JSONL replay fidelity).
"""

import json

import pytest

from repro.core.config import GossipConfig, MulticastConfig, NewsWireConfig
from repro.core.identifiers import ItemId
from repro.news.deployment import build_newswire
from repro.obs.causal import CausalSink, format_causal_report
from repro.obs.sinks import JsonlFileSink
from repro.pubsub.subscription import Subscription
from repro.sim.engine import instrumented


def feed(sink, events):
    for time, kind, fields in events:
        sink.emit(time, kind, fields)


def two_hop_sink():
    """p publishes; n1 delivers at hop 1; n1 forwards on to n2."""
    sink = CausalSink()
    feed(sink, [
        (0.0, "publish", {"node": "/a/p", "item": "i", "subject": "news/world"}),
        (0.0, "forward",
         {"zone": "/a", "to": "/a/n1", "item": "i", "parent": "/a/p", "hop": 1}),
        (0.5, "queue-sent", {"node": "/a/p", "to": "/a/n1", "item": "i", "wait": 0.5}),
        (1.5, "deliver",
         {"node": "/a/n1", "item": "i", "latency": 1.5, "sender": "/a/p",
          "hop": 1, "via": "tree"}),
        (1.5, "forward",
         {"zone": "/a", "to": "/a/n2", "item": "i", "parent": "/a/n1", "hop": 2}),
        (1.7, "queue-sent", {"node": "/a/n1", "to": "/a/n2", "item": "i", "wait": 0.2}),
        (3.0, "deliver",
         {"node": "/a/n2", "item": "i", "latency": 3.0, "sender": "/a/n1",
          "hop": 2, "via": "tree"}),
    ])
    return sink


class TestTreeReconstruction:
    def test_spans_chain_parent_links(self):
        tree = two_hop_sink().tree("i")
        assert tree.publisher == "/a/p"
        assert tree.span("/a/n1").parent == "/a/p"
        assert tree.span("/a/n2").parent == "/a/n1"
        assert tree.span("/a/n2").hop == 2
        assert tree.delivered_nodes == {"/a/n1", "/a/n2"}
        assert tree.children("/a/p") == ("/a/n1",)

    def test_critical_path_decomposition_telescopes(self):
        tree = two_hop_sink().tree("i")
        path = tree.critical_path()
        assert path.leaf == "/a/n2"
        assert path.hops == 2
        assert path.queue_wait == pytest.approx(0.5 + 0.2)
        assert path.net_wait == pytest.approx(1.0 + 1.3)
        assert path.round_wait == 0.0
        # The per-segment waits sum exactly to the delivery latency.
        assert path.total == pytest.approx(3.0)
        assert path.queue_wait + path.net_wait + path.round_wait == (
            pytest.approx(path.total)
        )

    def test_path_to_intermediate_leaf(self):
        tree = two_hop_sink().tree("i")
        path = tree.path_to("/a/n1")
        assert path.hops == 1
        assert path.total == pytest.approx(1.5)
        assert path.segments[0].parent == "/a/p"

    def test_repair_delivery_decomposes_round_then_wire(self):
        sink = two_hop_sink()
        feed(sink, [
            (5.0, "repair-digest", {"node": "/a/n1", "to": "/a/n3", "entries": 1}),
            (6.0, "deliver",
             {"node": "/a/n3", "item": "i", "latency": 6.0, "sender": "/a/n1",
              "hop": 0, "via": "repair"}),
        ])
        span = sink.tree("i").span("/a/n3")
        assert span.via == "repair"
        assert span.parent == "/a/n1"
        # Partner held the item from t=1.5; digest went out at t=5.0.
        assert span.round_wait == pytest.approx(5.0 - 1.5)
        assert span.net_wait == pytest.approx(1.0)

    def test_repair_without_digest_charges_round_wait(self):
        sink = two_hop_sink()
        sink.emit(6.0, "deliver",
                  {"node": "/a/n3", "item": "i", "latency": 6.0,
                   "sender": "/a/n1", "hop": 0, "via": "repair"})
        span = sink.tree("i").span("/a/n3")
        assert span.round_wait == pytest.approx(6.0 - 1.5)
        assert span.net_wait == 0.0

    def test_hop_counts_exclude_repairs(self):
        sink = two_hop_sink()
        sink.emit(6.0, "deliver",
                  {"node": "/a/n3", "item": "i", "latency": 6.0,
                   "sender": "/a/n1", "hop": 0, "via": "repair"})
        tree = sink.tree("i")
        assert tree.hop_counts() == {1: 1, 2: 1}
        assert tree.repair_deliveries == 1

    def test_fanout_by_level(self):
        tree = two_hop_sink().tree("i")
        assert tree.fanout_by_level() == {0: [1], 1: [1]}

    def test_clear_resets_trees_and_expectations(self):
        sink = two_hop_sink()
        sink.expect("i", {"/a/n1"})
        sink.clear()
        assert sink.trees == {}
        assert sink.events_seen == 0
        assert sink.expected_for("i") is None

    def test_summary_is_jsonable(self):
        sink = two_hop_sink()
        sink.expect("i", {"/a/n1", "/a/n2", "/a/n9"})
        payload = json.loads(json.dumps(sink.summary()))
        assert payload["items"] == 1
        assert payload["deliveries"] == 2
        assert payload["critical_path"]["count"] == 1
        assert payload["losses"]["missing"] == 1

    def test_report_renders_sections(self):
        sink = two_hop_sink()
        sink.expect("i", {"/a/n1", "/a/n2"})
        text = format_causal_report(sink)
        assert "critical paths" in text
        assert "hop-count distribution" in text
        assert "loss attribution" in text


class TestLossAttribution:
    def test_each_evidence_kind_maps_to_its_class(self):
        sink = two_hop_sink()
        feed(sink, [
            (2.0, "net-drop",
             {"reason": "partition", "src": "/a/p", "dst": "/b/n4",
              "item": "i", "zone": "/b", "hop": 1}),
            (2.0, "queue-dropped",
             {"node": "/a/p", "to": "/a/n5", "item": "i", "zone": "/a/n5"}),
            (2.0, "filtered", {"zone": "/c", "item": "i"}),
        ])
        tree = sink.tree("i")
        expected = {"/a/n1", "/a/n2", "/b/n4", "/a/n5", "/c/n6", "/d/n7"}
        misses = tree.misses(expected)
        assert misses == {
            "/b/n4": "partitioned",
            "/a/n5": "queue-dropped",
            "/c/n6": "bloom-filtered",
            "/d/n7": "never-forwarded",  # no evidence: total fallback
        }

    def test_deepest_zone_wins(self):
        sink = two_hop_sink()
        feed(sink, [
            (2.0, "net-drop",
             {"reason": "partition", "src": "/a/p", "dst": "/b",
              "item": "i", "zone": "/b", "hop": 1}),
            (2.5, "filtered", {"zone": "/b/n4", "item": "i"}),
        ])
        tree = sink.tree("i")
        # /b/n4 has deeper (more specific) filtering evidence; the
        # sibling /b/n5 only falls under the zone-level partition.
        assert tree.classify_miss("/b/n4") == "bloom-filtered"
        assert tree.classify_miss("/b/n5") == "partitioned"

    def test_same_depth_breaks_ties_by_priority(self):
        sink = two_hop_sink()
        feed(sink, [
            (2.0, "filtered", {"zone": "/b", "item": "i"}),
            (2.5, "net-drop",
             {"reason": "partition", "src": "/a/p", "dst": "/b",
              "item": "i", "zone": "/b", "hop": 1}),
        ])
        # Infrastructure failure outranks a filtering decision.
        assert sink.tree("i").classify_miss("/b/n4") == "partitioned"

    def test_crash_and_rejection_classes(self):
        sink = two_hop_sink()
        feed(sink, [
            (2.0, "net-drop",
             {"reason": "crashed", "src": "/a/p", "dst": "/a/n8",
              "item": "i", "zone": "/a/n8", "hop": 1}),
            (2.0, "rejected", {"node": "/a/n9", "item": "i"}),
        ])
        tree = sink.tree("i")
        assert tree.classify_miss("/a/n8") == "dropped-on-crash"
        assert tree.classify_miss("/a/n9") == "rejected-at-node"

    def test_expected_for_derives_from_subscribe_events(self):
        sink = CausalSink()
        feed(sink, [
            (0.0, "subscribe", {"node": "/a/n1", "subject": "news/world"}),
            (0.0, "subscribe", {"node": "/a/n2", "subject": "news/*"}),
            (0.0, "subscribe", {"node": "/a/n3", "subject": "sports"}),
            (1.0, "publish",
             {"node": "/a/p", "item": "i", "subject": "news/world"}),
            (2.0, "deliver", {"node": "/a/n1", "item": "j"}),
        ])
        assert sink.expected_for("i") == {"/a/n1", "/a/n2"}
        # No publish seen for j: no subject to match, nothing derived.
        assert sink.expected_for("j") is None
        # An explicit expectation overrides the derived one.
        sink.expect("i", {"/a/n1"})
        assert sink.expected_for("i") == {"/a/n1"}

    def test_expected_for_reads_an_expectation_under_a_non_string_item(self):
        sink = CausalSink()
        item = ItemId("/a/p", 7)
        sink.expect(item, ["/a/n1", "/a/n2"])
        assert sink.registered_expected(item) == {"/a/n1", "/a/n2"}
        assert sink.expected_for(item) == {"/a/n1", "/a/n2"}
        assert sink.expected_for(str(item)) == {"/a/n1", "/a/n2"}

    def test_attribution_is_total_on_real_partition_losses(self):
        """E11-style run: every genuine miss lands in exactly one class."""
        from repro.experiments.e11_partition import run_e11

        causal = CausalSink()
        with instrumented(trace=[lambda trace: causal]):
            run_e11(
                num_nodes=32,
                durations=(24.0,),
                buffer_capacities=(2,),
                publish_interval=3.0,
                seed=3,
            )
        losses = causal.summary()["losses"]
        # The tiny repair buffer ages items out during the partition,
        # so this run has real, unrecovered misses...
        assert losses["missing"] > 0
        # ...and the classifier accounts for every single one of them.
        assert sum(losses["attributed"].values()) == losses["missing"]


def tree_state(tree):
    """Comparable snapshot of everything a tree reconstructed."""
    return {
        "item": tree.item,
        "publisher": tree.publisher,
        "publish_time": tree.publish_time,
        "subject": tree.subject,
        "spans": {
            node: (span.hop, span.parent, span.first_time, span.delivered_at,
                   span.latency, span.via, span.queue_wait, span.net_wait,
                   span.round_wait)
            for node, span in sorted(tree.spans.items())
        },
        "edges": {
            pair: [(e.status, e.enqueued_at, e.sent_at, e.arrived_at)
                   for e in records]
            for pair, records in sorted(tree.edges.items())
        },
        "prunes": tree.prunes,
        "queue_drops": tree.queue_drops,
        "net_drops": tree.net_drops,
        "rejected": sorted(tree.rejected_nodes),
        "dup_drops": tree.dup_drops,
    }


class TestJsonlRoundTrip:
    def test_replayed_trees_match_in_process(self, tmp_path):
        """Offline replay reconstructs the exact same forest."""
        path = tmp_path / "trace.jsonl"
        live = CausalSink()
        with JsonlFileSink(path) as jsonl:
            config = NewsWireConfig(
                branching_factor=4,
                gossip=GossipConfig(interval=1.0),
                multicast=MulticastConfig(
                    representatives=2, send_to_representatives=2,
                    repair_interval=2.0,
                ),
            )
            system = build_newswire(
                24,
                config,
                publisher_names=("reuters",),
                subscriptions_for=lambda i: (Subscription("reuters/world"),),
                seed=7,
                sinks=[live, jsonl],
            )
            system.run_for(3.0)
            publisher = system.publisher("reuters")
            items = [
                publisher.publish_news("reuters/world", f"flash-{i}")
                for i in range(3)
            ]
            system.run_for(30.0)

        replayed = CausalSink.replay(path)
        assert replayed.events_seen == live.events_seen
        assert set(replayed.trees) == set(live.trees)
        assert set(replayed.trees) == {str(item.item_id) for item in items}
        for key in live.trees:
            assert tree_state(replayed.trees[key]) == tree_state(live.trees[key])
        # Derived aggregates agree too (same trees in, same summary out).
        assert replayed.summary() == live.summary()

    def test_replay_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 0.0, "kind": "publish", "node": "/p", "item": "i"}\n'
            "\n"
            '{"t": 1.0, "kind": "deliver", "node": "/n", "item": "i", '
            '"latency": 1.0, "sender": "/p", "hop": 1, "via": "tree"}\n'
        )
        sink = CausalSink.replay(path)
        assert sink.events_seen == 2
        assert sink.tree("i").delivered_nodes == {"/n"}
