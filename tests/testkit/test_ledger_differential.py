"""The ledger-reading checkers agree with the stream-tracking ones.

``NoDuplicateDelivery``, ``ScopedDeliveryOnly``,
``EventualDeliveryOrAttributedLoss``, ``RoutingStabilizes`` and
``FalsePositiveBounded`` used to keep their own per-event state in
``emit``; they now read the :class:`CausalSink` ledger at
``finalize``.  This test keeps the emit-based checkers verbatim and
feeds random streams — scoped and unscoped publishes, repeated
deliveries with mixed ``via``, rejections, crashes and summary
corruption, with a ``clear`` between two streams — to both, then
compares the verdicts.

Streams respect the order a run produces: an item is published at most
once, before any of its deliveries.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.causal import CausalSink, ItemTree, _zone_contains
from repro.testkit.invariants import (
    EventualDeliveryOrAttributedLoss,
    FalsePositiveBounded,
    InvariantSuite,
    NoDuplicateDelivery,
    RoutingStabilizes,
    ScopedDeliveryOnly,
    Violation,
)

ITEMS = ("i0", "i1", "i2")
NODES = ("/a/n0", "/a/n1", "/b/n2", "/b/c/n3")
SCOPES = (None, "/", "/a", "/b", "/b/c")
VIAS = (None, "tree", "repair", "publish")
FP_ARGS = dict(max_ratio=0.5, min_samples=4)


# -- the emit-based checkers, verbatim ----------------------------------


class LegacyChecker:
    """The emit/clear base the stateful checkers were written against."""

    name = "invariant"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        pass

    def clear(self) -> None:
        self.violations.clear()

    def record(
        self,
        message: str,
        *,
        item: str = "",
        node: str = "",
        time: Optional[float] = None,
        **details: Any,
    ) -> None:
        self.violations.append(
            Violation(
                invariant=self.name,
                message=message,
                item=item,
                node=node,
                time=time,
                details=tuple(sorted(details.items())),
            )
        )

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        """End-of-run check; override in subclasses that need it."""

    @property
    def ok(self) -> bool:
        return not self.violations


class LegacyNoDuplicateDelivery(LegacyChecker):
    name = "no-duplicate-delivery"

    def __init__(self) -> None:
        super().__init__()
        self._delivered: Dict[str, Set[str]] = {}

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind != "deliver":
            return
        item = str(fields.get("item", ""))
        node = str(fields.get("node", ""))
        nodes = self._delivered.setdefault(item, set())
        if node in nodes:
            self.record(
                "item delivered more than once",
                item=item,
                node=node,
                time=time,
                via=str(fields.get("via", "")),
            )
        else:
            nodes.add(node)

    def clear(self) -> None:
        super().clear()
        self._delivered.clear()


class LegacyScopedDeliveryOnly(LegacyChecker):
    name = "scoped-delivery-only"

    def __init__(self) -> None:
        super().__init__()
        self._scopes: Dict[str, str] = {}

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "publish":
            scope = fields.get("scope")
            if scope is not None:
                self._scopes[str(fields.get("item", ""))] = str(scope)
        elif kind == "deliver":
            item = str(fields.get("item", ""))
            scope = self._scopes.get(item)
            node = str(fields.get("node", ""))
            if scope is not None and not _zone_contains(scope, node):
                self.record(
                    f"delivery outside publish scope {scope!r}",
                    item=item,
                    node=node,
                    time=time,
                    scope=scope,
                )

    def clear(self) -> None:
        super().clear()
        self._scopes.clear()


class LegacyEventualDeliveryOrAttributedLoss(LegacyChecker):
    name = "eventual-delivery-or-attributed-loss"

    def __init__(self) -> None:
        super().__init__()
        self._ever_crashed: Set[str] = set()

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "node-crash":
            self._ever_crashed.add(str(fields.get("node", "")))

    def clear(self) -> None:
        super().clear()
        self._ever_crashed.clear()

    def _in_flight(self, tree: ItemTree, node: str) -> bool:
        return any(
            edge.status in ("enqueued", "sent")
            for edge in tree.in_edges.get(node, ())
        )

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        for item, tree in causal.trees.items():
            # Only *registered* expectations count: deriving them from
            # subscribe events would guess wrong for predicate
            # subscriptions and merged sweep traces.
            expected = causal.registered_expected(item)
            if not expected:
                continue
            for node, cause in tree.misses(expected).items():
                if cause != "never-forwarded":
                    continue  # attributed — the invariant holds
                if node in self._ever_crashed:
                    continue
                if self._in_flight(tree, node):
                    continue
                self.record(
                    "expected delivery missing with no attributable cause",
                    item=item,
                    node=node,
                    cause=cause,
                )


class LegacyRoutingStabilizes(LegacyChecker):
    name = "routing-stabilizes"

    def __init__(self) -> None:
        super().__init__()
        self._corrupted: Set[str] = set()

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "summary-corrupt":
            self._corrupted.add(str(fields.get("node", "")))

    def clear(self) -> None:
        super().clear()
        self._corrupted.clear()

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        if system is None:
            return
        network = getattr(system, "network", None)
        if network is not None and getattr(network, "is_partitioned", False):
            return
        for node in getattr(system, "nodes", ()) or ():
            scheme = getattr(node, "scheme", None)
            if scheme is None or not hasattr(scheme, "summary_matches"):
                continue
            if getattr(node, "crashed", False):
                continue
            name = str(node.node_id)
            if name in self._corrupted and not getattr(scheme, "stabilizes", False):
                continue
            leaf_key = getattr(node, "_leaf_key", name)
            exported = {
                attr: node.get_attribute(attr)
                for attr in scheme.summary_attributes()
            }
            if not scheme.summary_matches(exported, node.subscriptions, leaf_key):
                self.record(
                    "exported summary diverges from subscription ground truth",
                    node=name,
                    corrupted=name in self._corrupted,
                    subjects=tuple(s.subject for s in node.subscriptions),
                )


class LegacyFalsePositiveBounded(LegacyChecker):
    name = "false-positive-bounded"

    def __init__(self, max_ratio: float = 0.9, min_samples: int = 50) -> None:
        super().__init__()
        self.max_ratio = max_ratio
        self.min_samples = min_samples
        self._delivered = 0
        self._rejected = 0

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "deliver":
            self._delivered += 1
        elif kind == "rejected":
            self._rejected += 1

    def clear(self) -> None:
        super().clear()
        self._delivered = 0
        self._rejected = 0

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        arrivals = self._delivered + self._rejected
        if arrivals < self.min_samples:
            return
        ratio = self._rejected / arrivals
        if ratio > self.max_ratio:
            self.record(
                "false-positive arrivals dominate deliveries",
                rejected=self._rejected,
                delivered=self._delivered,
                ratio=round(ratio, 4),
                max_ratio=self.max_ratio,
            )


# -- random streams -------------------------------------------------------

#: Deliveries weighted up so repeats to one node are common.
KINDS = ("publish", "deliver", "deliver", "deliver", "rejected", "node-crash",
         "summary-corrupt")


def _fields(**fields: Any) -> Dict[str, Any]:
    return {key: value for key, value in fields.items() if value is not None}


@st.composite
def streams(draw) -> List[tuple]:
    """``(time, kind, fields)`` in time order; each item published at
    most once, before its first delivery."""
    events, time, started = [], 0.0, set()
    for _ in range(draw(st.integers(0, 40))):
        time += draw(st.sampled_from((0.0, 0.25, 1.0)))
        kind = draw(st.sampled_from(KINDS))
        item, node = draw(st.sampled_from(ITEMS)), draw(st.sampled_from(NODES))
        if kind == "publish":
            if item in started:
                continue
            fields = _fields(item=item, node=node, scope=draw(st.sampled_from(SCOPES)))
        elif kind == "deliver":
            fields = _fields(item=item, node=node, via=draw(st.sampled_from(VIAS)))
        elif kind == "rejected":
            fields = {"item": item, "node": node}
        else:
            fields = {"node": node}
        if kind in ("publish", "deliver"):
            started.add(item)
        events.append((time, kind, fields))
    return events


class _Scheme:
    def __init__(self, stabilizes: bool, matches: bool) -> None:
        self.stabilizes = stabilizes
        self._matches = matches

    def summary_attributes(self):
        return ("summary",)

    def summary_matches(self, exported, subscriptions, leaf_key) -> bool:
        return self._matches


@st.composite
def systems(draw) -> SimpleNamespace:
    nodes = [
        SimpleNamespace(
            node_id=name,
            crashed=draw(st.booleans()),
            scheme=_Scheme(draw(st.booleans()), draw(st.booleans())),
            subscriptions=(),
            get_attribute=lambda attr: 0,
        )
        for name in NODES
    ]
    return SimpleNamespace(nodes=nodes, network=None)


_expectations = st.dictionaries(
    st.sampled_from(ITEMS), st.frozensets(st.sampled_from(NODES), min_size=1)
)


@settings(max_examples=150, deadline=None)
@given(first=streams(), second=streams(), expected=_expectations, system=systems())
def test_ledger_checkers_match_stream_checkers(first, second, expected, system):
    legacy = [
        LegacyNoDuplicateDelivery(),
        LegacyScopedDeliveryOnly(),
        LegacyEventualDeliveryOrAttributedLoss(),
        LegacyRoutingStabilizes(),
        LegacyFalsePositiveBounded(**FP_ARGS),
    ]
    legacy_sink = CausalSink()
    suite = InvariantSuite(
        [
            NoDuplicateDelivery(),
            ScopedDeliveryOnly(),
            EventualDeliveryOrAttributedLoss(),
            RoutingStabilizes(),
            FalsePositiveBounded(**FP_ARGS),
        ]
    )
    for stream in (first, second):
        legacy_sink.clear()
        for checker in legacy:
            checker.clear()
        suite.clear()
        for time, kind, fields in stream:
            legacy_sink.emit(time, kind, fields)
            for checker in legacy:
                checker.emit(time, kind, fields)
            suite.emit(time, kind, fields)
    for item, nodes in expected.items():
        legacy_sink.expect(item, nodes)
        suite.expect(item, nodes)
    for checker in legacy:
        checker.finalize(legacy_sink, system)
    suite.finalize(system)

    old_dup, new_dup = legacy[0], suite.checkers[0]
    assert new_dup.violations == old_dup.violations
    for old, new in zip(legacy[1:], suite.checkers[1:]):
        assert old.name == new.name
        assert Counter(new.violations) == Counter(old.violations), new.name
    old_fp, new_fp = legacy[-1], suite.checkers[-1]
    assert new_fp.ok == old_fp.ok
    assert [v.details for v in new_fp.violations] == [
        v.details for v in old_fp.violations
    ]

