"""Representative selection on the forward path.

Contacts come out of gossiped rows, so the forward path must survive a
row whose ``contacts`` hold garbage, draw exactly what it always drew
from a healthy row, and parse each contact string once per process
rather than once per forward.
"""

import random

import pytest

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.astrolabe.agent import _node_id
from repro.news import build_newswire
from repro.news.item import NewsItem
from repro.pubsub import Subscription
from tests.multicast.test_node import envelope, make_deployment


@pytest.mark.parametrize("length", range(1, 31))
def test_choice_draws_what_a_sample_of_one_draws(length):
    """``choice(seq)`` and ``sample(seq, 1)[0]`` pick the same element
    and leave the generator in the same state, on both of ``sample``'s
    internal paths (pool below 22 elements, selection set above)."""
    contacts = tuple(f"/z/n{index}" for index in range(length))
    for seed in range(200):
        by_choice, by_sample = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert by_choice.choice(contacts) == by_sample.sample(contacts, 1)[0]
        assert by_choice.getstate() == by_sample.getstate()


def _corrupt_foreign_child(sender, contacts):
    """Overwrite one root row outside ``sender``'s branch; return its zone
    and the other foreign children the walk should still reach."""
    root = sender.zone_table(ZonePath())
    foreign = [
        label for label in root.labels() if label != sender.node_id.labels[0]
    ]
    assert len(foreign) >= 2
    victim = foreign[0]
    row = root.row(victim)
    root.put_row(
        victim,
        row.updated({"contacts": contacts}, (row.timestamp + 1e-6, row.version[1])),
    )
    return ZonePath((victim,)), {ZonePath((label,)) for label in foreign[1:]}


class TestUnusableContacts:
    def test_a_garbage_row_does_not_abort_the_walk(self):
        deployment = make_deployment(num_nodes=40)
        deployment.run_rounds(2)
        sender = deployment.agents[0]
        broken, others = _corrupt_foreign_child(sender, ("not-a-path", 7, None))
        sender.send_to_zone(ZonePath(), envelope("k1", deployment.sim))
        trace = deployment.trace
        assert {e["zone"] for e in trace.events("no-representative")} == {
            str(broken)
        }
        forwarded = {
            e["zone"] for e in trace.events("forward") if e["parent"] == str(sender.node_id)
        }
        assert {str(zone) for zone in others} <= forwarded
        assert str(broken) not in forwarded
        deployment.sim.run_for(10)  # nothing raises out of the event loop

    def test_valid_contacts_beside_garbage_are_used(self):
        deployment = make_deployment(num_nodes=40)
        deployment.run_rounds(2)
        sender = deployment.agents[0]
        root = sender.zone_table(ZonePath())
        label = next(
            label for label in root.labels() if label != sender.node_id.labels[0]
        )
        good = root.row(label)["contacts"][0]
        broken, _ = _corrupt_foreign_child(sender, ("not-a-path", good))
        sender.send_to_zone(ZonePath(), envelope("k1", deployment.sim))
        targets = {
            e["to"] for e in deployment.trace.events("forward") if e["zone"] == str(broken)
        }
        assert targets == {good}
        assert deployment.trace.count("no-representative") == 0


def test_forward_path_parses_each_contact_once_and_builds_no_metadata(monkeypatch):
    """A small seeded feed: contact strings go through the shared
    ``_node_id`` cache (each parsed at most once in the process)
    and, with no predicate subscription anywhere, the leaf never builds
    an item's metadata."""
    parsed = []
    parse = ZonePath.parse.__func__
    monkeypatch.setattr(
        ZonePath, "parse", classmethod(lambda cls, text: parsed.append(text) or parse(cls, text))
    )
    metadata_built = []
    as_metadata = NewsItem.as_metadata
    monkeypatch.setattr(
        NewsItem,
        "as_metadata",
        lambda item: metadata_built.append(item) or as_metadata(item),
    )
    subjects = ("wire/a", "wire/b", "wire/c")
    system = build_newswire(
        num_nodes=60,
        config=NewsWireConfig(branching_factor=6),
        publisher_names=("wire",),
        publisher_rate=20.0,
        subscriptions_for=lambda index: (Subscription(subjects[index % 3]),),
        seed=7,
    )
    _node_id.cache_clear()
    system.run_for(10.0)
    publisher = system.publisher("wire")
    for index in range(10):
        publisher.publish_news(
            subject=subjects[index % 3], headline=f"story {index}", body="word " * 50
        )
    system.run_for(20.0)

    trace = system.trace
    targets = {event["to"] for event in trace.events("forward")}
    assert trace.count("forward") > 2 * len(targets)
    assert trace.count("deliver") == 200
    assert not [text for text in parsed if text in targets]
    assert _node_id.cache_info().misses <= len(system.nodes)
    assert metadata_built == []
