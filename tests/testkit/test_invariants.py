"""Unit tests: each invariant checker fires on a synthetic stream."""

from repro.obs.causal import CausalSink
from repro.testkit.invariants import (
    CausalTreeWellFormed,
    EventualDeliveryOrAttributedLoss,
    InvariantSuite,
    NoDuplicateDelivery,
    QueueBoundRespected,
    ScopedDeliveryOnly,
    Violation,
    ZoneReconvergence,
    default_checkers,
)

ITEM = "newswire:1.r0"


class TestViolation:
    def test_str_and_dict(self):
        violation = Violation(
            invariant="x", message="boom", item=ITEM, node="/n1",
            time=2.5, details=(("via", "tree"),),
        )
        assert "[x] boom" in str(violation)
        assert "t=2.500" in str(violation)
        record = violation.as_dict()
        assert record["item"] == ITEM
        assert record["details"] == {"via": "tree"}

    def test_empty_fields_omitted(self):
        record = Violation(invariant="x", message="m").as_dict()
        assert set(record) == {"invariant", "message"}


def _checked(checker, sink: CausalSink):
    """``checker`` finalized against ``sink``'s ledger so far."""
    checker.violations.clear()
    checker.finalize(sink)
    return checker


class TestNoDuplicateDelivery:
    def test_distinct_nodes_ok(self):
        sink = CausalSink()
        sink.emit(1.0, "deliver", {"item": ITEM, "node": "/n1"})
        sink.emit(1.1, "deliver", {"item": ITEM, "node": "/n2"})
        assert _checked(NoDuplicateDelivery(), sink).ok

    def test_repeat_delivery_fires(self):
        sink = CausalSink()
        sink.emit(1.0, "deliver", {"item": ITEM, "node": "/n1"})
        sink.emit(2.0, "deliver", {"item": ITEM, "node": "/n1", "via": "repair"})
        checker = _checked(NoDuplicateDelivery(), sink)
        assert not checker.ok
        violation = checker.violations[0]
        assert violation.invariant == "no-duplicate-delivery"
        assert violation.node == "/n1"
        assert violation.time == 2.0


class TestScopedDeliveryOnly:
    def test_in_scope_ok_out_of_scope_fires(self):
        sink, checker = CausalSink(), ScopedDeliveryOnly()
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/z1/n0",
                                   "scope": "/z1"})
        sink.emit(1.5, "deliver", {"item": ITEM, "node": "/z1/n2"})
        assert _checked(checker, sink).ok
        sink.emit(1.6, "deliver", {"item": ITEM, "node": "/z2/n3"})
        assert [v.node for v in _checked(checker, sink).violations] == ["/z2/n3"]

    def test_repeated_escape_reported_at_each_delivery(self):
        sink = CausalSink()
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/z1/n0", "scope": "/z1"})
        sink.emit(1.5, "deliver", {"item": ITEM, "node": "/z2/n3"})
        sink.emit(2.0, "deliver", {"item": ITEM, "node": "/z2/n3", "via": "repair"})
        checker = _checked(ScopedDeliveryOnly(), sink)
        assert [(v.node, v.time) for v in checker.violations] == [
            ("/z2/n3", 1.5), ("/z2/n3", 2.0)
        ]

    def test_root_scope_allows_everything(self):
        sink = CausalSink()
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/n0", "scope": "/"})
        sink.emit(1.5, "deliver", {"item": ITEM, "node": "/z9/n7"})
        assert _checked(ScopedDeliveryOnly(), sink).ok

    def test_unscoped_publish_not_checked(self):
        sink = CausalSink()
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/n0"})
        sink.emit(1.5, "deliver", {"item": ITEM, "node": "/anywhere"})
        assert _checked(ScopedDeliveryOnly(), sink).ok


def _well_formed_sink() -> CausalSink:
    sink = CausalSink()
    sink.emit(1.0, "publish", {"item": ITEM, "node": "/n0", "subject": "a/b"})
    sink.emit(1.1, "forward", {"item": ITEM, "parent": "/n0", "to": "/n1",
                               "hop": 1})
    sink.emit(1.2, "deliver", {"item": ITEM, "node": "/n1", "hop": 1,
                               "via": "tree", "sender": "/n0"})
    return sink


class TestCausalTreeWellFormed:
    def test_proper_tree_clean(self):
        checker = CausalTreeWellFormed()
        checker.finalize(_well_formed_sink())
        assert checker.ok

    def test_orphan_delivery_fires(self):
        sink = _well_formed_sink()
        # A delivery with no inbound forward: its chain cannot reach
        # the publisher.
        sink.emit(2.0, "deliver", {"item": ITEM, "node": "/n9", "hop": 3,
                                   "via": "tree"})
        checker = CausalTreeWellFormed()
        checker.finalize(sink)
        assert any("not reachable" in v.message for v in checker.violations)

    def test_delivery_before_publish_fires(self):
        sink = CausalSink()
        sink.emit(0.5, "deliver", {"item": ITEM, "node": "/n1", "via": "tree"})
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/n0"})
        checker = CausalTreeWellFormed()
        checker.finalize(sink)
        assert any("precedes publish" in v.message for v in checker.violations)

    def test_non_increasing_hop_fires(self):
        sink = CausalSink()
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/n0"})
        sink.emit(1.1, "forward", {"item": ITEM, "parent": "/n0", "to": "/n1",
                                   "hop": 1})
        # The delivery claims hop 0 — not deeper than its parent.
        sink.emit(1.2, "deliver", {"item": ITEM, "node": "/n1", "hop": 0,
                                   "via": "tree", "sender": "/n0"})
        checker = CausalTreeWellFormed()
        checker.finalize(sink)
        assert any("hop count" in v.message for v in checker.violations)


class TestEventualDeliveryOrAttributedLoss:
    def _sink_with_miss(self) -> CausalSink:
        sink = CausalSink()
        sink.emit(1.0, "publish", {"item": ITEM, "node": "/n0", "subject": "a/b"})
        sink.expect(ITEM, {"/n1"})
        return sink

    def test_unattributed_miss_fires(self):
        sink = self._sink_with_miss()
        checker = EventualDeliveryOrAttributedLoss()
        checker.finalize(sink)
        assert not checker.ok
        assert checker.violations[0].node == "/n1"

    def test_attributed_miss_tolerated(self):
        sink = self._sink_with_miss()
        # Evidence: the copy was filtered at a zone containing /n1.
        sink.emit(1.1, "filtered", {"item": ITEM, "zone": "/"})
        checker = EventualDeliveryOrAttributedLoss()
        checker.finalize(sink)
        assert checker.ok

    def test_crashed_node_exempt(self):
        sink = self._sink_with_miss()
        sink.emit(0.9, "node-crash", {"node": "/n1"})
        checker = EventualDeliveryOrAttributedLoss()
        checker.finalize(sink)
        assert checker.ok

    def test_in_flight_copy_exempt(self):
        sink = self._sink_with_miss()
        # The run ended with the copy still enqueued toward /n1.
        sink.emit(1.1, "forward", {"item": ITEM, "parent": "/n0", "to": "/n1",
                                   "hop": 1})
        checker = EventualDeliveryOrAttributedLoss()
        checker.finalize(sink)
        assert checker.ok

    def test_delivered_expectation_clean(self):
        sink = self._sink_with_miss()
        sink.emit(1.1, "forward", {"item": ITEM, "parent": "/n0", "to": "/n1",
                                   "hop": 1})
        sink.emit(1.2, "deliver", {"item": ITEM, "node": "/n1", "hop": 1,
                                   "via": "tree", "sender": "/n0"})
        checker = EventualDeliveryOrAttributedLoss()
        checker.finalize(sink)
        assert checker.ok


class _FakeAgent:
    def __init__(self, node_id, view, crashed=False):
        self.node_id = node_id
        self.crashed = crashed
        self._view = view

    def root_aggregate(self, attribute):
        assert attribute == "nmembers"
        return self._view


class _FakeSystem:
    def __init__(self, nodes, network=None):
        self.nodes = nodes
        self.network = network


class _FakeNetwork:
    def __init__(self, partitioned):
        self.is_partitioned = partitioned


class TestZoneReconvergence:
    def test_agreeing_views_clean(self):
        system = _FakeSystem([_FakeAgent("/n0", 4), _FakeAgent("/n1", 4)])
        checker = ZoneReconvergence()
        checker.finalize(CausalSink(), system)
        assert checker.ok

    def test_disagreement_fires(self):
        system = _FakeSystem([_FakeAgent("/n0", 4), _FakeAgent("/n1", 3)])
        checker = ZoneReconvergence()
        checker.finalize(CausalSink(), system)
        assert not checker.ok

    def test_crashed_agents_ignored(self):
        system = _FakeSystem(
            [_FakeAgent("/n0", 4), _FakeAgent("/n1", 3, crashed=True)]
        )
        checker = ZoneReconvergence()
        checker.finalize(CausalSink(), system)
        assert checker.ok

    def test_active_partition_skipped(self):
        system = _FakeSystem(
            [_FakeAgent("/n0", 4), _FakeAgent("/n1", 3)],
            network=_FakeNetwork(partitioned=True),
        )
        checker = ZoneReconvergence()
        checker.finalize(CausalSink(), system)
        assert checker.ok

    def test_no_system_skipped(self):
        checker = ZoneReconvergence()
        checker.finalize(CausalSink(), None)
        assert checker.ok


class _FakeStats:
    def __init__(self, enqueued, sent, dropped_on_crash, max_backlog):
        self.enqueued = enqueued
        self.sent = sent
        self.dropped_on_crash = dropped_on_crash
        self.max_backlog = max_backlog


class _FakeQueues:
    def __init__(self, stats, backlog):
        self.stats = stats
        self.backlog = backlog


class _FakeNode:
    def __init__(self, node_id, queues):
        self.node_id = node_id
        self.queues = queues


class TestQueueBoundRespected:
    def test_conserved_counters_clean(self):
        node = _FakeNode("/n0", _FakeQueues(_FakeStats(10, 7, 1, 5), backlog=2))
        checker = QueueBoundRespected()
        checker.finalize(CausalSink(), _FakeSystem([node]))
        assert checker.ok

    def test_accounting_leak_fires(self):
        node = _FakeNode("/n0", _FakeQueues(_FakeStats(10, 7, 0, 5), backlog=2))
        checker = QueueBoundRespected()
        checker.finalize(CausalSink(), _FakeSystem([node]))
        assert any("accounting leak" in v.message for v in checker.violations)

    def test_backlog_above_peak_fires(self):
        node = _FakeNode("/n0", _FakeQueues(_FakeStats(9, 3, 0, 5), backlog=6))
        checker = QueueBoundRespected()
        checker.finalize(CausalSink(), _FakeSystem([node]))
        assert any("exceeds recorded peak" in v.message
                   for v in checker.violations)

    def test_nodes_without_queues_skipped(self):
        class Bare:
            node_id = "/n0"
            queues = None

        checker = QueueBoundRespected()
        checker.finalize(CausalSink(), _FakeSystem([Bare()]))
        assert checker.ok


class TestInvariantSuite:
    def test_catalogue_names_unique(self):
        names = [checker.name for checker in default_checkers()]
        assert len(names) == len(set(names)) == 8

    def test_suite_fans_out_and_aggregates(self):
        suite = InvariantSuite()
        suite.emit(1.0, "publish", {"item": ITEM, "node": "/n0"})
        suite.emit(1.5, "deliver", {"item": ITEM, "node": "/n1"})
        suite.emit(1.6, "deliver", {"item": ITEM, "node": "/n1"})
        suite.finalize(None)
        assert not suite.ok
        assert suite.retained_events == 0
        suite.clear()
        assert suite.ok and not suite.causal.trees

    def test_finalize_idempotent(self):
        suite = InvariantSuite()
        suite.emit(1.0, "deliver", {"item": ITEM, "node": "/n1"})
        suite.emit(1.1, "deliver", {"item": ITEM, "node": "/n1"})
        first = suite.finalize(None)
        second = suite.finalize(None)
        assert first == second

    def test_expect_reaches_causal_sink(self):
        suite = InvariantSuite()
        suite.emit(1.0, "publish", {"item": ITEM, "node": "/n0"})
        suite.expect(ITEM, {"/n1", "/n2"})
        assert suite.causal.registered_expected(ITEM) == {"/n1", "/n2"}
