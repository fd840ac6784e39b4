"""The leaf's final test and repair interest, against their plain rules.

``accept`` builds an item's metadata only when a subject-matching
subscription has a predicate, and ``wants_repair`` remembers its answer
per subject until the subscription list changes.  Both must give the
verdict the uncached rules give, whatever the subscription history.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import NewsWireConfig
from repro.multicast.messages import Envelope
from repro.pubsub.engine import build_pubsub
from repro.pubsub.node import item_metadata
from repro.pubsub.subscription import Subscription

ITEM_SUBJECTS = ["a", "a/b", "a/b/c", "b", "ab"]
SUBJECTS = ["a", "a/b", "b", "a/*", "a/b/*", "b/*"]
PREDICATES = [
    None,
    None,
    "urgency < 3",
    "publisher = 'p1'",
    "ABS(publisher) > 1",  # compiles, raises on every item
]


class Story:
    """A payload with its own metadata, counting how often it is built."""

    def __init__(self, subject, publisher, urgency):
        self.fields = {"subject": subject, "publisher": publisher, "urgency": urgency}
        self.built = 0

    def as_metadata(self):
        self.built += 1
        return dict(self.fields)


def fresh_node():
    deployment = build_pubsub(
        2, NewsWireConfig(branching_factor=4), subscriptions_for=lambda i: ()
    )
    return deployment.agents[0]


subscriptions = st.builds(
    Subscription, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES)
)


@given(
    held=st.lists(subscriptions, max_size=5),
    subject=st.sampled_from(ITEM_SUBJECTS),
    publisher=st.sampled_from(["p1", "p2"]),
    urgency=st.integers(1, 8),
    news=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_accept_matches_the_eager_rule(held, subject, publisher, urgency, news):
    node = fresh_node()
    for subscription in held:
        node.subscribe(subscription)
    story = Story(subject, publisher, urgency)
    envelope = Envelope(
        item_key=1,
        payload=story if news else {"body": "x"},
        publisher=publisher,
        subject=subject,
        urgency=urgency,
    )
    metadata = item_metadata(envelope)
    expected = bool(node.subscriptions) and any(
        s.matches(subject, metadata) for s in node.subscriptions
    )
    story.built = 0
    assert node.accept(envelope) == expected
    if all(s.predicate_source is None for s in node.subscriptions):
        assert story.built == 0


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), subscriptions),
        st.tuples(st.just("unsubscribe"), subscriptions),
        st.tuples(
            st.just("resubscribe"),
            st.one_of(st.none(), subscriptions),
            st.one_of(st.none(), subscriptions),
        ),
        st.tuples(st.just("rotate"), st.integers(0, 1000)),
    ),
    max_size=30,
)


@given(operations=OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_wants_repair_matches_the_uncached_rule(operations):
    node = fresh_node()
    for operation, *args in operations:
        if operation == "subscribe":
            node.subscribe(*args)
        elif operation == "unsubscribe":
            node.unsubscribe(*args)
        elif operation == "resubscribe":
            node.resubscribe(*args)
        else:
            node.rotate_subscription(random.Random(args[0]), SUBJECTS)
        # Ask after every step, so a stale memo would be caught at once.
        for subject in ITEM_SUBJECTS:
            assert node.wants_repair(subject, ()) == any(
                s.matches_subject(subject) for s in node.subscriptions
            )


def _envelope(subject):
    return Envelope(
        item_key=1, payload={"body": "x"}, publisher="p1", subject=subject, urgency=2
    )


def test_a_raising_predicate_does_not_match_and_is_counted():
    node = fresh_node()
    node.subscribe(Subscription("a", "ABS(publisher) > 1"))
    assert not node.accept(_envelope("a"))
    assert not node.accept(_envelope("a"))
    # A subject the subscription does not match never runs the predicate.
    assert not node.accept(_envelope("b"))
    assert node.trace.metrics.snapshot()["pubsub.predicate_errors"] == 2
    # A later subscription that admits the item still delivers it.
    node.subscribe(Subscription("a", "urgency < 3"))
    assert node.accept(_envelope("a"))


def test_error_free_leaf_matching_reports_no_error_counter():
    node = fresh_node()
    node.subscribe(Subscription("a", "urgency < 3"))
    node.subscribe(Subscription("b", "urgency > 3"))
    assert node.accept(_envelope("a"))
    assert not node.accept(_envelope("b"))
    assert "pubsub.predicate_errors" not in node.trace.metrics.snapshot()
