"""ColumnarNewsWire's run path: batched deliveries behave like the
one-event-per-delivery path they replaced, and a publish leaves no
garbage behind."""

import gc

from repro.core.config import GossipConfig, NewsWireConfig
from repro.pubsub.subscription import Subscription
from repro.scale.backend import build_columnar

SUBJECT = "news/base"
FRESH = "news/fresh"
NODES = 200


def build():
    config = NewsWireConfig(
        gossip=GossipConfig(interval=1.0, jitter=0.0), branching_factor=6
    )
    system = build_columnar(
        NODES, config, subscriptions_for=lambda index: (Subscription(SUBJECT),), seed=3
    )
    system.run_for(2.0)
    return system


def publish(system, subject=SUBJECT):
    return system.publisher("newswire").publish_news(subject, "headline")["item"]


def delivered(system, item):
    """``[(time, node)]`` of ``item``'s deliveries, in trace order."""
    return [
        (event.time, event["node"])
        for event in system.trace.events("deliver")
        if event["item"] == item
    ]


def index_of(system, node):
    return next(i for i in range(NODES) if system.node_name(i) == node)


def undisturbed():
    """Arrival schedule of the first publish when nothing else happens."""
    system = build()
    item = publish(system)
    system.run_for(30.0)
    arrivals = delivered(system, item)
    assert len(arrivals) == NODES
    assert arrivals == sorted(arrivals, key=lambda pair: pair[0])
    return arrivals


class TestFailuresInFlight:
    def test_crashed_gets_nothing_recovered_before_arrival_delivers(self):
        arrivals = undisturbed()
        # Neighbouring rows of the one lane, well inside a run.
        (before, _), (crash_at, crashed) = arrivals[100:102]
        (prior, _), (recover_by, recovered) = arrivals[150:152]
        assert before < crash_at and prior < recover_by

        system = build()
        sim = system.sim
        item = publish(system)
        # Both copies are in flight.  One node crashes between two
        # neighbouring arrivals and stays down; the other is down from
        # the start and back just before its copy lands.
        system.fail_node(index_of(system, recovered))
        sim.call_at((before + crash_at) / 2, system.fail_node, index_of(system, crashed))
        sim.call_at(
            (prior + recover_by) / 2, system.recover_node, index_of(system, recovered)
        )
        system.run_for(30.0)
        assert delivered(system, item) == [
            pair for pair in arrivals if pair[1] != crashed
        ]


class TestSubscribeBetweenRows:
    def run(self, drive):
        arrivals = undisturbed()
        (before, _), (after, _) = arrivals[120:122]
        assert before < after
        system = build()
        sim = system.sim
        start = sim.now
        publish(system)
        newcomer = NODES - 1
        sim.call_at(
            (before + after) / 2, system.subscribe, newcomer, Subscription(FRESH)
        )
        sim.call_at(start + 40.0, publish, system, FRESH)
        drive(sim, start + 60.0)
        events = [
            (event.time, event.kind, event.fields) for event in system.trace.events()
        ]
        return events, system.node_name(newcomer)

    def test_same_trace_as_one_event_per_row(self):
        def stepwise(sim, end):  # step() fires one row per dispatch
            while sim.now < end and sim.step():
                pass

        batched, newcomer = self.run(lambda sim, end: sim.run_until(end))
        single, _ = self.run(stepwise)
        assert batched == single
        kinds = [kind for _, kind, _ in batched]
        at = kinds.index("subscribe")
        assert kinds[at - 1] == kinds[at + 1] == "deliver"
        assert [time for time, _, _ in batched] == sorted(t for t, _, _ in batched)
        # The late subject routed: its one subscriber got the second item.
        assert [dict(fields)["node"] for _, _, fields in batched[-1:]] == [newcomer]


class TestWalkLeavesNoGarbage:
    def test_publish_and_drain_free_the_rows_by_refcount(self):
        system = build()
        gc.collect()
        gc.disable()
        try:
            item = publish(system)
            system.run_for(30.0)
            assert system.trace.count("deliver") == NODES

            def is_rows(found):
                try:
                    return isinstance(found, list) and found[0][1] == item
                except (IndexError, KeyError, TypeError):
                    return False

            # With collection off, only reference counts free anything:
            # no list of this publish's rows may still be alive ...
            assert not [found for found in gc.get_objects() if is_rows(found)]
            # ... and a collection finds nothing of repro.scale's to free.
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                found
                for found in gc.garbage
                if str(getattr(found, "__module__", "")).startswith("repro.scale")
                or is_rows(found)
            ]
            assert not leaked
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
