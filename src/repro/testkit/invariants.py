"""Runtime protocol invariants, checked from the trace stream.

Each checker implements the :class:`~repro.obs.sinks.TraceSink`
protocol, so it attaches anywhere a sink does (``build_*(sinks=...)``,
``trace.add_sink``, the experiments CLI ``--check-invariants`` flag).
Checkers are pure observers: they read event fields and — at
finalization — system counters, but never touch simulation RNG or the
event queue, so attaching them cannot perturb a fixed-seed run (pinned
by ``tests/testkit/test_transparency.py``).

Online checks (duplicates, scope) fire as events stream; end-of-run
checks (eventual delivery, tree shape, reconvergence, queue
conservation) run in ``finalize``, which receives the shared
:class:`~repro.obs.causal.CausalSink` and, when available, the live
system.  :class:`InvariantSuite` bundles the full catalogue behind one
sink plus the ``CausalSink`` they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.obs.causal import CausalSink, ItemTree, _zone_contains

__all__ = [
    "CausalTreeWellFormed",
    "EventualDeliveryOrAttributedLoss",
    "FalsePositiveBounded",
    "InvariantChecker",
    "InvariantSuite",
    "NoDuplicateDelivery",
    "QueueBoundRespected",
    "RoutingStabilizes",
    "ScopedDeliveryOnly",
    "Violation",
    "ZoneReconvergence",
    "default_checkers",
]


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    message: str
    item: str = ""
    node: str = ""
    time: Optional[float] = None
    details: Tuple[Tuple[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "invariant": self.invariant,
            "message": self.message,
        }
        if self.item:
            record["item"] = self.item
        if self.node:
            record["node"] = self.node
        if self.time is not None:
            record["time"] = self.time
        if self.details:
            record["details"] = dict(self.details)
        return record

    def __str__(self) -> str:
        where = " ".join(
            part
            for part in (
                f"item={self.item}" if self.item else "",
                f"node={self.node}" if self.node else "",
                f"t={self.time:.3f}" if self.time is not None else "",
            )
            if part
        )
        return f"[{self.invariant}] {self.message}" + (f" ({where})" if where else "")


class InvariantChecker:
    """Base checker: a TraceSink that accumulates :class:`Violation`.

    Subclasses override :meth:`emit` for online checks and/or
    :meth:`finalize` for end-of-run checks.  ``finalize`` receives the
    suite's shared :class:`CausalSink` and — when the caller still
    holds it — the running system, for checkers that need protocol
    state the trace does not carry (zone tables, queue counters).
    """

    name = "invariant"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    # -- TraceSink protocol ----------------------------------------------

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        pass

    @property
    def retained_events(self) -> int:
        """Always 0: checkers keep verdicts, not event objects."""
        return 0

    def clear(self) -> None:
        self.violations.clear()

    def close(self) -> None:
        pass

    # -- verdicts ---------------------------------------------------------

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


class NoDuplicateDelivery(InvariantChecker):
    """An item is delivered to the application at most once per node.

    The Bloom/interest plumbing may route redundant *copies* (that is
    what ``dup-dropped`` counts); the invariant is that redundancy
    never reaches the application layer twice.
    """

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


class ScopedDeliveryOnly(InvariantChecker):
    """Deliveries land only inside the item's published scope zone."""

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


class CausalTreeWellFormed(InvariantChecker):
    """Every delivery is causally anchored to its publish.

    Checks, per reconstructed :class:`ItemTree`:

    * no delivery precedes the item's publish time;
    * every delivered span's parent chain terminates at the publisher
      (no orphan deliveries, no parent cycles) — or at a repair
      recovery, which anchors the chain: the repairer held the item,
      and its own delivery chain is checked independently.  Repair
      edges cross the tree (a node that forwarded while unsubscribed
      can later be repaired *by its own child* after adopting the
      subject mid-flight), so structural loops through them are
      temporal, not causal;
    * hop counts strictly increase along tree-forwarding segments
      (repair recoveries are excluded — they carry no tree depth).
    """

    name = "causal-tree-well-formed"

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        for item, tree in causal.trees.items():
            for node, span in tree.spans.items():
                if not span.delivered:
                    continue
                if (
                    span.delivered_at is not None
                    and span.delivered_at < tree.publish_time
                ):
                    self.record(
                        "delivery precedes publish",
                        item=item,
                        node=node,
                        time=span.delivered_at,
                        publish_time=tree.publish_time,
                    )
                self._check_chain(item, tree, node)

    def _check_chain(self, item: str, tree: ItemTree, leaf: str) -> None:
        seen: Set[str] = set()
        current = tree.spans[leaf]
        while current.parent is not None:
            if current.via == "repair":
                return  # anchored: the repairer's chain is checked on its own
            if current.node in seen:
                self.record(
                    "parent chain contains a cycle",
                    item=item,
                    node=leaf,
                    at=current.node,
                )
                return
            seen.add(current.node)
            parent = tree.spans.get(current.parent)
            if parent is None:
                self.record(
                    "parent chain breaks at an unseen node",
                    item=item,
                    node=leaf,
                    missing=current.parent,
                )
                return
            tree_segment = current.via in ("tree", "publish") and parent.via in (
                "tree",
                "publish",
            )
            if tree_segment and current.hop <= parent.hop:
                self.record(
                    "hop count not increasing along tree segment",
                    item=item,
                    node=current.node,
                    parent=parent.node,
                    hop=current.hop,
                    parent_hop=parent.hop,
                )
                return
            current = parent
        if current.node != tree.publisher:
            self.record(
                "delivery not reachable from its publish",
                item=item,
                node=leaf,
                root=current.node,
                publisher=tree.publisher,
            )


class EventualDeliveryOrAttributedLoss(InvariantChecker):
    """Every expected delivery happens, or the miss has a cause.

    Reuses :meth:`ItemTree.classify_miss`: a miss classified as
    anything but the ``never-forwarded`` fallback is *attributed* — the
    trace pinpoints where the copy died (filtered, partitioned,
    crashed queue, network loss, ...).  A ``never-forwarded`` miss is
    tolerated only when the target node crashed during the run (its
    zone rows expire and forwarding skips it silently) or the copy was
    still in flight when the run ended; anything else is a violation —
    the protocol dropped a subscriber on the floor with no evidence.
    """

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


class ZoneReconvergence(InvariantChecker):
    """After failures end, alive agents agree on the root aggregates.

    Checks the base ``nmembers`` aggregate (always installed): every
    non-crashed agent's view of the root must be identical once the
    network is healed and gossip has settled.  Skipped when the run
    ends inside an active partition (reconvergence is not yet due) or
    when no live system is available (offline replays).
    """

    name = "zone-reconvergence"

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        if system is None:
            return
        network = getattr(system, "network", None)
        if network is not None and getattr(network, "is_partitioned", False):
            return
        nodes = getattr(system, "nodes", None)
        if not nodes:
            return
        views: Dict[Any, List[str]] = {}
        for agent in nodes:
            if getattr(agent, "crashed", False):
                continue
            view = agent.root_aggregate("nmembers")
            views.setdefault(view, []).append(str(agent.node_id))
        if len(views) > 1:
            summary = {
                str(view): len(holders) for view, holders in views.items()
            }
            self.record(
                "alive agents disagree on root nmembers after settling",
                views=summary,
            )


class QueueBoundRespected(InvariantChecker):
    """Forwarding-queue conservation: no message is double-counted.

    Per node: ``enqueued == sent + dropped_on_crash + backlog`` (every
    intake is eventually a send, a crash drop, or still queued), and
    the residual backlog never exceeds the recorded peak.  Needs the
    live system for the counters; skipped on offline replays.
    """

    name = "queue-bound-respected"

    def finalize(self, causal: CausalSink, system: Optional[Any] = None) -> None:
        if system is None:
            return
        for node in getattr(system, "nodes", ()) or ():
            queues = getattr(node, "queues", None)
            if queues is None:
                continue
            stats = queues.stats
            accounted = stats.sent + stats.dropped_on_crash + queues.backlog
            if stats.enqueued != accounted:
                self.record(
                    "queue accounting leak: enqueued != sent + dropped + backlog",
                    node=str(node.node_id),
                    enqueued=stats.enqueued,
                    sent=stats.sent,
                    dropped_on_crash=stats.dropped_on_crash,
                    backlog=queues.backlog,
                )
            if queues.backlog > stats.max_backlog:
                self.record(
                    "residual backlog exceeds recorded peak",
                    node=str(node.node_id),
                    backlog=queues.backlog,
                    max_backlog=stats.max_backlog,
                )


class RoutingStabilizes(InvariantChecker):
    """Exported routing summaries reconverge to subscription ground truth.

    The stabilization contract (docs/ROUTING.md): once failures end and
    refresh rounds have had time to run, every alive pub/sub node's
    exported summary attributes must be exactly what its scheme derives
    from its true subscription list — arbitrary trace-injected
    corruption and churn-races included.  Per node the check delegates
    to ``scheme.summary_matches`` (a pure read), so subgroup placement
    is compared as a union, not per-attribute.

    A node whose summary was corrupted (``summary-corrupt`` event) is
    exempt when its scheme does not stabilize — a flat Bloom scheme
    makes no repair promise; wrap it in
    :class:`~repro.pubsub.schemes.StabilizingScheme` to claim one.
    Skipped entirely without a live system or while partitioned.
    """

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


class FalsePositiveBounded(InvariantChecker):
    """Leaf false positives stay a bounded fraction of arrivals.

    A ``rejected`` event is a copy the summaries routed all the way to
    a leaf whose authoritative final test then refused — pure wasted
    work, the quantity the subgroup scheme exists to cut.  Some are
    inherent to Bloom summaries; a run where they *dominate* deliveries
    means the routing state is effectively garbage (e.g. unrepaired
    corruption).  The bound is deliberately loose (default: rejects may
    not exceed ``max_ratio`` = 0.9 of arrivals, checked only once
    ``min_samples`` = 50 arrivals were seen) so honest Bloom collisions
    never trip it.
    """

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


def default_checkers() -> List[InvariantChecker]:
    """One instance of every invariant in the catalogue."""
    return [
        NoDuplicateDelivery(),
        ScopedDeliveryOnly(),
        CausalTreeWellFormed(),
        EventualDeliveryOrAttributedLoss(),
        ZoneReconvergence(),
        QueueBoundRespected(),
        RoutingStabilizes(),
        FalsePositiveBounded(),
    ]


class InvariantSuite:
    """The full invariant catalogue behind a single trace sink.

    Owns a shared :class:`CausalSink` (tree reconstruction and loss
    attribution feed several checkers) and fans every event out to it
    plus each checker.  Attach the suite itself as a sink::

        suite = InvariantSuite()
        system = build_newswire(..., sinks=[suite],
                                trace_kinds=TESTKIT_TRACE_KINDS)
        ...
        suite.expect(item_key, expected_node_names)
        violations = suite.finalize(system)

    Like its members, the suite is a pure observer — attaching it
    cannot change a fixed-seed run's results.
    """

    def __init__(self, checkers: Optional[List[InvariantChecker]] = None) -> None:
        self.causal = CausalSink()
        self.checkers = checkers if checkers is not None else default_checkers()
        self._finalized = False

    # -- TraceSink protocol ----------------------------------------------

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.causal.emit(time, kind, fields)
        for checker in self.checkers:
            checker.emit(time, kind, fields)

    @property
    def retained_events(self) -> int:
        return 0

    def clear(self) -> None:
        self.causal.clear()
        for checker in self.checkers:
            checker.clear()
        self._finalized = False

    def close(self) -> None:
        for checker in self.checkers:
            checker.close()
        self.causal.close()

    # -- expectations / verdicts ------------------------------------------

    def expect(self, item: str, nodes: Any) -> None:
        """Register the nodes that should deliver ``item``."""
        self.causal.expect(item, nodes)

    def finalize(self, system: Optional[Any] = None) -> List[Violation]:
        """Run end-of-run checks; returns the full violation list."""
        if not self._finalized:
            for checker in self.checkers:
                checker.finalize(self.causal, system)
            self._finalized = True
        return self.violations

    @property
    def violations(self) -> List[Violation]:
        found: List[Violation] = []
        for checker in self.checkers:
            found.extend(checker.violations)
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return (
            f"InvariantSuite(checkers={len(self.checkers)}, "
            f"violations={len(self.violations)})"
        )
