"""Causal dissemination tracing: span trees, critical paths, loss causes.

The protocol layers stamp their trace events with causal metadata
(``parent``/``hop`` on forwards, ``sender``/``via`` on deliveries,
``partner`` on repairs — see ``docs/OBSERVABILITY.md``).  This module
turns that stream into a queryable forest: one :class:`ItemTree` per
news item, reconstructed **online** by :class:`CausalSink` as events
arrive, with no second pass over the trace.

What the trees answer (the paper's path-shaped claims):

* **Critical path** — for any delivered leaf, the exact hop chain the
  copy travelled, with each hop decomposed into *queueing wait* (time
  in the sender's forwarding queue), *network latency* (wire time) and
  *round wait* (time an item sat at a repair partner waiting for the
  next anti-entropy round).  Because intra-node processing is
  synchronous in the simulator, the decomposition telescopes exactly:
  the per-segment waits sum to the end-to-end delivery latency.
* **Hop-count and fan-out distributions** — how deep the dissemination
  tree runs and how wide each level spreads.
* **Loss attribution** — every expected-but-missing delivery is
  classified into exactly one cause: ``bloom-filtered``,
  ``predicate-filtered``, ``no-representative``, ``route-failed``,
  ``queue-dropped``, ``dropped-on-crash``, ``partitioned``,
  ``network-loss``, ``rejected-at-node``, ``out-of-scope`` — with
  ``never-forwarded`` as the total fallback, so the classifier always
  accounts for 100% of misses.

Like every sink, :class:`CausalSink` never touches simulation RNG or
the event queue; attaching it cannot perturb a fixed-seed run.  It
retains O(edges + spans) derived state, never raw event objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

__all__ = [
    "CausalSink",
    "CriticalPath",
    "EdgeRecord",
    "ItemTree",
    "PathSegment",
    "Span",
    "format_causal_report",
]

#: Prune-event kinds → loss-attribution class.
_PRUNE_CLASSES = {
    "filtered": "bloom-filtered",
    "predicate-filtered": "predicate-filtered",
    "no-representative": "no-representative",
    "route-failed": "route-failed",
}

#: Network drop reasons → loss-attribution class.
_DROP_CLASSES = {
    "partition": "partitioned",
    "crashed": "dropped-on-crash",
    "loss": "network-loss",
    "unknown": "never-forwarded",
}

#: Tie-break priority when several causes sit at the same zone depth:
#: hard infrastructure failures outrank filtering decisions.
_CLASS_PRIORITY = {
    "rejected-at-node": 11,
    "out-of-scope": 10,
    "partitioned": 9,
    "dropped-on-crash": 8,
    "queue-dropped": 7,
    "network-loss": 6,
    "bloom-filtered": 5,
    "predicate-filtered": 4,
    "no-representative": 3,
    "route-failed": 2,
    "never-forwarded": 0,
}


def _zone_contains(zone: str, node: str) -> bool:
    """Subtree test on zone-path *strings* (``/`` is the root)."""
    if zone in ("", "/"):
        return True
    return node == zone or node.startswith(zone + "/")


def _subject_matches(pattern: str, subject: str) -> bool:
    """Subject-level subscription match (exact or ``prefix/*``)."""
    if pattern.endswith("/*"):
        prefix = pattern[:-2]
        return subject == prefix or subject.startswith(prefix + "/")
    return pattern == subject


@dataclass
class EdgeRecord:
    """One attempted parent → child forward of one item copy.

    Lifecycle: ``enqueued`` (forward event) → ``sent`` (queue-sent) →
    ``delivered``/``consumed`` (the child received it), or a terminal
    drop (``queue-dropped`` / ``net-drop:<reason>``).  Edges still
    ``sent`` when the run ends were redundant copies (duplicate-dropped
    on arrival) or genuinely in flight.
    """

    parent: str
    child: str
    zone: str
    hop: int
    enqueued_at: float
    sent_at: Optional[float] = None
    arrived_at: Optional[float] = None
    status: str = "enqueued"

    @property
    def queue_wait(self) -> float:
        if self.sent_at is None:
            return 0.0
        return self.sent_at - self.enqueued_at

    @property
    def net_wait(self) -> float:
        if self.arrived_at is None:
            return 0.0
        start = self.sent_at if self.sent_at is not None else self.enqueued_at
        return self.arrived_at - start


@dataclass
class Span:
    """One node's participation in one item's dissemination.

    ``first_time`` is when the node first held the item (its first
    forward or delivery event — intra-node processing is synchronous,
    so every event the node emits for the item shares that timestamp).
    The inbound-hop decomposition (``queue_wait``/``net_wait``/
    ``round_wait``) covers the segment from ``parent`` to this node.
    """

    node: str
    hop: int = 0
    parent: Optional[str] = None
    first_time: float = 0.0
    delivered_at: Optional[float] = None
    latency: Optional[float] = None
    via: str = "derived"  # "publish" | "tree" | "repair" | "derived"
    queue_wait: float = 0.0
    net_wait: float = 0.0
    round_wait: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None


@dataclass(frozen=True)
class PathSegment:
    """One hop of a critical path (``parent`` → ``node``)."""

    parent: str
    node: str
    hop: int
    via: str
    queue_wait: float
    net_wait: float
    round_wait: float

    @property
    def total(self) -> float:
        return self.queue_wait + self.net_wait + self.round_wait


@dataclass(frozen=True)
class CriticalPath:
    """The hop chain realizing one (by default the slowest) delivery."""

    item: str
    leaf: str
    segments: Tuple[PathSegment, ...]
    total: float

    @property
    def hops(self) -> int:
        return len(self.segments)

    @property
    def queue_wait(self) -> float:
        return sum(segment.queue_wait for segment in self.segments)

    @property
    def net_wait(self) -> float:
        return sum(segment.net_wait for segment in self.segments)

    @property
    def round_wait(self) -> float:
        return sum(segment.round_wait for segment in self.segments)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "item": self.item,
            "leaf": self.leaf,
            "hops": self.hops,
            "total": self.total,
            "queue_wait": self.queue_wait,
            "net_wait": self.net_wait,
            "round_wait": self.round_wait,
        }


class ItemTree:
    """The reconstructed dissemination DAG of one news item."""

    def __init__(self, item: str, publisher: str, publish_time: float):
        self.item = item
        self.publisher = publisher
        self.publish_time = publish_time
        self.subject: Optional[str] = None
        self.spans: Dict[str, Span] = {}
        #: FIFO edge records per (parent, child) pair, in forward order.
        self.edges: Dict[Tuple[str, str], List[EdgeRecord]] = {}
        #: The same records indexed by child, in arrival-candidate order.
        self.in_edges: Dict[str, List[EdgeRecord]] = {}
        #: (time, kind, zone) for filtered / predicate-filtered /
        #: no-representative / route-failed events.
        self.prunes: List[Tuple[float, str, str]] = []
        #: (time, target, zone) for messages lost in a crashed queue.
        self.queue_drops: List[Tuple[float, str, str]] = []
        #: (time, reason, dst, zone) for messages the network dropped.
        self.net_drops: List[Tuple[float, str, str, str]] = []
        self.rejected_nodes: Set[str] = set()
        self.out_of_scope_nodes: Set[str] = set()
        self.dup_drops: int = 0

    # -- queries ---------------------------------------------------------

    @property
    def delivered_nodes(self) -> Set[str]:
        return {node for node, span in self.spans.items() if span.delivered}

    def span(self, node: str) -> Optional[Span]:
        return self.spans.get(node)

    def children(self, node: str) -> Tuple[str, ...]:
        """Distinct forward targets of ``node`` (attempted, not landed)."""
        return tuple(
            sorted({child for parent, child in self.edges if parent == node})
        )

    def path_to(self, leaf: str) -> Optional[CriticalPath]:
        """The reconstructed publish → ``leaf`` hop chain."""
        span = self.spans.get(leaf)
        if span is None or not span.delivered:
            return None
        segments: List[PathSegment] = []
        seen: Set[str] = set()
        current = span
        while current.parent is not None and current.node not in seen:
            seen.add(current.node)
            segments.append(
                PathSegment(
                    parent=current.parent,
                    node=current.node,
                    hop=current.hop,
                    via=current.via,
                    queue_wait=current.queue_wait,
                    net_wait=current.net_wait,
                    round_wait=current.round_wait,
                )
            )
            parent = self.spans.get(current.parent)
            if parent is None:
                break
            current = parent
        segments.reverse()
        total = (
            span.latency
            if span.latency is not None
            else (span.delivered_at or 0.0) - self.publish_time
        )
        return CriticalPath(self.item, leaf, tuple(segments), total)

    def critical_path(self) -> Optional[CriticalPath]:
        """The hop chain realizing the *slowest* delivery of this item."""
        slowest: Optional[Span] = None
        for span in self.spans.values():
            if not span.delivered:
                continue
            latency = span.latency if span.latency is not None else 0.0
            current = slowest.latency if slowest and slowest.latency else -1.0
            # Deterministic: break latency ties by node name.
            if latency > current or (
                latency == current and slowest and span.node < slowest.node
            ):
                slowest = span
        if slowest is None:
            return None
        return self.path_to(slowest.node)

    def hop_counts(self) -> Dict[int, int]:
        """Tree-delivery count per network hop distance from the publisher.

        Repair recoveries are excluded (they carry no tree depth);
        count them via :attr:`repair_deliveries`.
        """
        counts: Dict[int, int] = {}
        for span in self.spans.values():
            if span.delivered and span.via != "repair":
                counts[span.hop] = counts.get(span.hop, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def repair_deliveries(self) -> int:
        """Deliveries recovered through anti-entropy repair."""
        return sum(
            1 for span in self.spans.values()
            if span.delivered and span.via == "repair"
        )

    def fanout_by_level(self) -> Dict[int, List[int]]:
        """Per tree level, the fan-out of each forwarding node there."""
        fanouts: Dict[int, List[int]] = {}
        for node in {parent for parent, _child in self.edges}:
            span = self.spans.get(node)
            level = span.hop if span is not None else 0
            fanouts.setdefault(level, []).append(len(self.children(node)))
        return {level: sorted(v) for level, v in sorted(fanouts.items())}

    # -- loss attribution -------------------------------------------------

    def classify_miss(self, node: str) -> str:
        """Why ``node`` never delivered this item — exactly one class.

        The dissemination walks top-down, so the copy destined for
        ``node`` died at the *deepest* zone boundary any evidence
        reaches: among all prune/drop events whose target zone contains
        ``node``, the deepest zone wins (ties broken by
        :data:`_CLASS_PRIORITY`).  With no evidence at all the class is
        ``never-forwarded`` — the classifier is total by construction.
        """
        if node in self.rejected_nodes:
            return "rejected-at-node"
        if node in self.out_of_scope_nodes:
            return "out-of-scope"
        best: Optional[Tuple[int, int, str]] = None
        candidates: List[Tuple[str, str]] = []
        for _time, reason, _dst, zone in self.net_drops:
            candidates.append((zone, _DROP_CLASSES.get(reason, "network-loss")))
        for _time, _target, zone in self.queue_drops:
            candidates.append((zone, "queue-dropped"))
        for _time, kind, zone in self.prunes:
            candidates.append((zone, _PRUNE_CLASSES.get(kind, kind)))
        for zone, cause in candidates:
            if not _zone_contains(zone, node):
                continue
            depth = 0 if zone in ("", "/") else zone.count("/")
            key = (depth, _CLASS_PRIORITY.get(cause, 1), cause)
            if best is None or key[:2] > best[:2]:
                best = key
        return best[2] if best is not None else "never-forwarded"

    def misses(self, expected: Iterable[str]) -> Dict[str, str]:
        """Attribute every expected-but-missing delivery to one cause."""
        delivered = self.delivered_nodes
        return {
            node: self.classify_miss(node)
            for node in sorted(expected)
            if node not in delivered
        }

    def __repr__(self) -> str:
        return (
            f"ItemTree({self.item}, spans={len(self.spans)}, "
            f"delivered={len(self.delivered_nodes)})"
        )


class CausalSink:
    """Reconstructs per-item dissemination trees from the event stream.

    Implements the :class:`~repro.obs.sinks.TraceSink` protocol; attach
    it via ``build_*(sinks=[...])`` or ``trace.add_sink(...)``.  Events
    arrive in simulation-time order, which the edge-matching relies on;
    :meth:`replay` rebuilds identical trees from a
    :class:`~repro.obs.sinks.JsonlFileSink` artifact.
    """

    def __init__(self) -> None:
        self.trees: Dict[str, ItemTree] = {}
        self.events_seen = 0
        #: Latest anti-entropy digest time per (sender, receiver) pair —
        #: what splits a repair edge into round-wait vs network time.
        self._digests: Dict[Tuple[str, str], float] = {}
        #: node → subjects subscribed (from "subscribe" events); lets
        #: offline replays derive expected-delivery sets.
        self._subscriptions: Dict[str, Set[str]] = {}
        #: item → expected delivery node set (caller-registered).
        self._expected: Dict[str, Set[str]] = {}

    # -- TraceSink protocol ----------------------------------------------

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.events_seen += 1
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, time, fields)

    @property
    def retained_events(self) -> int:
        """Always 0: the sink keeps derived trees, not event objects."""
        return 0

    def clear(self) -> None:
        self.trees.clear()
        self._digests.clear()
        self._subscriptions.clear()
        self._expected.clear()
        self.events_seen = 0

    def close(self) -> None:
        pass

    # -- event handlers ---------------------------------------------------

    def _tree(self, item: str, publisher: str, time: float) -> ItemTree:
        tree = self.trees.get(item)
        if tree is None:
            tree = ItemTree(item, publisher, time)
            self.trees[item] = tree
        return tree

    def _span(self, tree: ItemTree, node: str, time: float) -> Span:
        span = tree.spans.get(node)
        if span is None:
            span = Span(node=node, first_time=time)
            tree.spans[node] = span
        return span

    def _on_publish(self, time: float, fields: Mapping[str, Any]) -> None:
        item = str(fields.get("item", ""))
        node = str(fields.get("node", ""))
        tree = self._tree(item, node, time)
        tree.publisher = node
        tree.publish_time = time
        tree.subject = fields.get("subject")
        span = self._span(tree, node, time)
        span.hop = 0
        span.via = "publish"

    def _on_forward(self, time: float, fields: Mapping[str, Any]) -> None:
        item = str(fields.get("item", ""))
        parent = str(fields.get("parent", ""))
        child = str(fields.get("to", ""))
        hop = int(fields.get("hop", 1) or 1)
        tree = self._tree(item, parent, time)
        # First sighting of the forwarding node: it received the copy
        # at this timestamp (processing is synchronous) — bind its own
        # inbound edge now so intermediate spans chain to their parent.
        span = tree.spans.get(parent)
        if span is None:
            span = self._span(tree, parent, time)
            span.hop = max(0, hop - 1)
            if parent != tree.publisher:
                self._bind_arrival(tree, span, time, sender=None)
        edge = EdgeRecord(
            parent=parent,
            child=child,
            zone=str(fields.get("zone", "")),
            hop=hop,
            enqueued_at=time,
        )
        tree.edges.setdefault((parent, child), []).append(edge)
        tree.in_edges.setdefault(child, []).append(edge)

    def _match_edge(
        self,
        candidates: List[EdgeRecord],
        time: float,
        statuses: Tuple[str, ...],
    ) -> Optional[EdgeRecord]:
        for status in statuses:
            for edge in candidates:
                start = edge.sent_at if edge.sent_at is not None else edge.enqueued_at
                if edge.status == status and start <= time:
                    return edge
        return None

    def _bind_arrival(
        self,
        tree: ItemTree,
        span: Span,
        time: float,
        sender: Optional[str],
    ) -> bool:
        """Consume the in-edge that brought the copy to ``span.node``.

        ``sender`` restricts the match to edges from that peer (known
        for deliveries); ``None`` scans all inbound candidates in
        forward order (intermediate nodes, whose events carry no
        sender).  Prefers fully ``sent`` edges; falls back to
        ``enqueued`` ones when the ``queue-sent`` kind was disabled.
        """
        candidates = tree.in_edges.get(span.node, ())
        if sender is not None:
            candidates = [e for e in candidates if e.parent == sender]
        edge = self._match_edge(list(candidates), time, ("sent", "enqueued"))
        if edge is None:
            return False
        edge.arrived_at = time
        edge.status = "delivered" if sender is not None else "consumed"
        span.parent = edge.parent
        span.queue_wait = edge.queue_wait
        span.net_wait = edge.net_wait
        span.via = "tree"
        return True

    def _on_queue_sent(self, time: float, fields: Mapping[str, Any]) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is None:
            return
        pair = (str(fields.get("node", "")), str(fields.get("to", "")))
        edge = self._match_edge(tree.edges.get(pair, []), time, ("enqueued",))
        if edge is not None:
            edge.sent_at = time
            edge.status = "sent"

    def _on_queue_dropped(self, time: float, fields: Mapping[str, Any]) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is None:
            return
        target = str(fields.get("to", ""))
        pair = (str(fields.get("node", "")), target)
        edge = self._match_edge(tree.edges.get(pair, []), time, ("enqueued",))
        zone = str(fields.get("zone", ""))
        if edge is not None:
            edge.status = "queue-dropped"
            zone = zone or edge.zone
        tree.queue_drops.append((time, target, zone or target))

    def _on_net_drop(self, time: float, fields: Mapping[str, Any]) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is None:
            return
        dst = str(fields.get("dst", ""))
        reason = str(fields.get("reason", "unknown"))
        pair = (str(fields.get("src", "")), dst)
        edge = self._match_edge(tree.edges.get(pair, []), time, ("sent", "enqueued"))
        zone = str(fields.get("zone", ""))
        if edge is not None:
            edge.status = f"net-drop:{reason}"
            zone = zone or edge.zone
        tree.net_drops.append((time, reason, dst, zone or dst))

    def _on_deliver(self, time: float, fields: Mapping[str, Any]) -> None:
        item = str(fields.get("item", ""))
        node = str(fields.get("node", ""))
        tree = self._tree(item, node, time)
        span = self._span(tree, node, time)
        span.delivered_at = time
        latency = fields.get("latency")
        span.latency = float(latency) if latency is not None else None
        span.hop = int(fields.get("hop", span.hop) or 0)
        sender = str(fields.get("sender", "") or "")
        via = str(fields.get("via", "tree"))
        if via == "repair" and sender:
            self._bind_repair(tree, span, time, sender)
        elif sender and span.parent != sender:
            # The deliver event names the actual inbound peer; rebind
            # if the span chained through a different (guessed) edge.
            if not self._bind_arrival(tree, span, time, sender=sender):
                span.parent = sender
                span.via = via
        elif sender == "" and node == tree.publisher:
            span.via = "publish"

    def _bind_repair(
        self, tree: ItemTree, span: Span, time: float, partner: str
    ) -> None:
        """Decompose a repair edge: round wait at the partner, then wire."""
        span.parent = partner
        span.via = "repair"
        span.queue_wait = 0.0
        digest_time = self._digests.get((partner, span.node))
        partner_span = tree.spans.get(partner)
        partner_has = (
            partner_span.first_time if partner_span is not None else tree.publish_time
        )
        if digest_time is not None and digest_time >= partner_has:
            span.round_wait = digest_time - partner_has
            span.net_wait = max(0.0, time - digest_time)
        else:
            # Digest kind disabled or partner unseen: charge the whole
            # segment to round wait (the anti-entropy mechanism).
            span.round_wait = max(0.0, time - partner_has)
            span.net_wait = 0.0

    def _on_repair_digest(self, time: float, fields: Mapping[str, Any]) -> None:
        pair = (str(fields.get("node", "")), str(fields.get("to", "")))
        self._digests[pair] = time

    def _on_prune(
        self, kind: str, time: float, fields: Mapping[str, Any]
    ) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is not None:
            tree.prunes.append((time, kind, str(fields.get("zone", ""))))

    def _on_rejected(self, time: float, fields: Mapping[str, Any]) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is not None:
            tree.rejected_nodes.add(str(fields.get("node", "")))

    def _on_out_of_scope(self, time: float, fields: Mapping[str, Any]) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is not None:
            tree.out_of_scope_nodes.add(str(fields.get("node", "")))

    def _on_dup(self, time: float, fields: Mapping[str, Any]) -> None:
        tree = self.trees.get(str(fields.get("item", "")))
        if tree is not None:
            tree.dup_drops += 1

    def _on_subscribe(self, time: float, fields: Mapping[str, Any]) -> None:
        node = str(fields.get("node", ""))
        subject = fields.get("subject")
        if subject is not None:
            self._subscriptions.setdefault(node, set()).add(str(subject))

    _HANDLERS = {
        "publish": _on_publish,
        "forward": _on_forward,
        "queue-sent": _on_queue_sent,
        "queue-dropped": _on_queue_dropped,
        "net-drop": _on_net_drop,
        "deliver": _on_deliver,
        "repair-digest": _on_repair_digest,
        "rejected": _on_rejected,
        "out-of-scope": _on_out_of_scope,
        "dup-dropped": _on_dup,
        "subscribe": _on_subscribe,
        "filtered": lambda self, t, f: self._on_prune("filtered", t, f),
        "predicate-filtered": lambda self, t, f: self._on_prune(
            "predicate-filtered", t, f
        ),
        "no-representative": lambda self, t, f: self._on_prune(
            "no-representative", t, f
        ),
        "route-failed": lambda self, t, f: self._on_prune("route-failed", t, f),
    }

    # -- expectations ------------------------------------------------------

    def expect(self, item: str, nodes: Iterable[str]) -> None:
        """Register the nodes that *should* deliver ``item``."""
        self._expected[str(item)] = {str(node) for node in nodes}

    def derive_expected(self) -> Dict[str, Set[str]]:
        """Expected sets from ``subscribe`` + ``publish`` events.

        Subject-level matching only (exact or ``prefix/*``) — leaf
        predicates show up as ``rejected-at-node`` attribution instead.
        Used by offline replays where the interest model is gone.
        """
        derived: Dict[str, Set[str]] = {}
        for item, tree in self.trees.items():
            if tree.subject is None:
                continue
            derived[item] = {
                node
                for node, subjects in self._subscriptions.items()
                if any(_subject_matches(p, tree.subject) for p in subjects)
            }
        return derived

    def registered_expected(self, item: str) -> Optional[Set[str]]:
        """The expectation registered via :meth:`expect` — no derived
        fallback.  Checkers that must not guess (the testkit's
        eventual-delivery invariant) read this instead of
        :meth:`expected_for`."""
        return self._expected.get(str(item))

    def expected_for(self, item: str) -> Optional[Set[str]]:
        """Registered expectation for ``item``, else the derived one."""
        explicit = self._expected.get(item)
        if explicit is not None:
            return explicit
        tree = self.trees.get(item)
        if tree is None or tree.subject is None or not self._subscriptions:
            return None
        return {
            node
            for node, subjects in self._subscriptions.items()
            if any(_subject_matches(p, tree.subject) for p in subjects)
        }

    # -- replay ------------------------------------------------------------

    @classmethod
    def replay(cls, path: Union[str, Path]) -> "CausalSink":
        """Rebuild trees from a :class:`JsonlFileSink` artifact."""
        sink = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                time = float(record.pop("t", 0.0))
                kind = str(record.pop("kind", ""))
                sink.emit(time, kind, record)
        return sink

    # -- queries / aggregation --------------------------------------------

    def items(self) -> Tuple[str, ...]:
        return tuple(self.trees)

    def tree(self, item: str) -> ItemTree:
        return self.trees[str(item)]

    def loss_attribution(self) -> Dict[str, int]:
        """Cause-class counts over every item with a known expectation."""
        causes: Dict[str, int] = {}
        for item, tree in self.trees.items():
            expected = self.expected_for(item)
            if not expected:
                continue
            for cause in tree.misses(expected).values():
                causes[cause] = causes.get(cause, 0) + 1
        return dict(sorted(causes.items()))

    def summary(self) -> Dict[str, Any]:
        """JSON-able aggregate over all trees (manifest ``extra.causal``)."""
        paths = [
            path
            for path in (tree.critical_path() for tree in self.trees.values())
            if path is not None
        ]
        hop_hist: Dict[int, int] = {}
        total_deliveries = 0
        repaired = 0
        for tree in self.trees.values():
            repaired += tree.repair_deliveries
            total_deliveries += tree.repair_deliveries
            for hop, count in tree.hop_counts().items():
                hop_hist[hop] = hop_hist.get(hop, 0) + count
                total_deliveries += count
        fanout: Dict[int, List[int]] = {}
        for tree in self.trees.values():
            for level, values in tree.fanout_by_level().items():
                fanout.setdefault(level, []).extend(values)
        expected_total = 0
        missing_total = 0
        for item, tree in self.trees.items():
            expected = self.expected_for(item)
            if not expected:
                continue
            expected_total += len(expected)
            missing_total += len(expected - tree.delivered_nodes)
        queue = sum(path.queue_wait for path in paths)
        net = sum(path.net_wait for path in paths)
        rounds = sum(path.round_wait for path in paths)
        total = sum(path.total for path in paths)
        return {
            "items": len(self.trees),
            "deliveries": total_deliveries,
            "repaired": repaired,
            "critical_path": {
                "count": len(paths),
                "mean_total": total / len(paths) if paths else 0.0,
                "max_total": max((p.total for p in paths), default=0.0),
                "mean_hops": (
                    sum(p.hops for p in paths) / len(paths) if paths else 0.0
                ),
                "queue_wait": queue,
                "net_wait": net,
                "round_wait": rounds,
            },
            "hop_counts": {str(h): c for h, c in sorted(hop_hist.items())},
            "fanout_by_level": {
                str(level): {
                    "nodes": len(values),
                    "mean": sum(values) / len(values) if values else 0.0,
                    "max": max(values, default=0),
                }
                for level, values in sorted(fanout.items())
            },
            "losses": {
                "expected": expected_total,
                "missing": missing_total,
                "attributed": self.loss_attribution(),
            },
        }

    def __repr__(self) -> str:
        return (
            f"CausalSink(items={len(self.trees)}, "
            f"events_seen={self.events_seen})"
        )


def format_causal_report(sink: CausalSink, max_items: int = 10) -> str:
    """Printable report: critical paths, hops, fan-out, loss causes."""
    # Imported lazily: repro.metrics pulls in collector modules that
    # reach back into repro.obs, and the report path is never hot.
    from repro.metrics.report import format_table

    lines: List[str] = []
    paths = [
        path
        for path in (tree.critical_path() for tree in sink.trees.values())
        if path is not None
    ]
    paths.sort(key=lambda p: -p.total)
    shown = paths[:max_items]
    lines.append(
        format_table(
            ["item", "slowest leaf", "hops", "total_s", "queue_s", "net_s", "round_s"],
            [
                [
                    p.item,
                    p.leaf,
                    p.hops,
                    p.total,
                    p.queue_wait,
                    p.net_wait,
                    p.round_wait,
                ]
                for p in shown
            ],
            title="critical paths (slowest delivery per item"
            + (f", top {len(shown)} of {len(paths)})" if len(paths) > len(shown) else ")"),
        )
    )
    if paths:
        queue = sum(p.queue_wait for p in paths)
        net = sum(p.net_wait for p in paths)
        rounds = sum(p.round_wait for p in paths)
        total = sum(p.total for p in paths)
        denominator = total if total > 0 else 1.0
        lines.append(
            "critical-path decomposition: "
            f"queueing {queue:.3f}s ({100 * queue / denominator:.1f}%)  "
            f"network {net:.3f}s ({100 * net / denominator:.1f}%)  "
            f"round-wait {rounds:.3f}s ({100 * rounds / denominator:.1f}%)"
        )
    summary = sink.summary()
    hop_rows = [[hop, count] for hop, count in summary["hop_counts"].items()]
    if summary["repaired"]:
        hop_rows.append(["repair", summary["repaired"]])
    lines.append(
        format_table(
            ["hop", "deliveries"],
            hop_rows,
            title="hop-count distribution (tree deliveries; repairs listed last)",
        )
    )
    fanout_rows = [
        [level, stats["nodes"], stats["mean"], stats["max"]]
        for level, stats in summary["fanout_by_level"].items()
    ]
    if fanout_rows:
        lines.append(
            format_table(
                ["level", "forwarders", "mean_fanout", "max_fanout"],
                fanout_rows,
                title="fan-out by tree level",
            )
        )
    losses = summary["losses"]
    if losses["expected"]:
        attributed = sum(losses["attributed"].values())
        lines.append(
            f"loss attribution: expected {losses['expected']} deliveries, "
            f"missing {losses['missing']}, attributed {attributed}"
            + (
                f" ({100 * attributed / losses['missing']:.0f}% of misses)"
                if losses["missing"]
                else ""
            )
        )
        if losses["attributed"]:
            lines.append(
                format_table(
                    ["cause", "misses"],
                    [[cause, count] for cause, count in losses["attributed"].items()],
                )
            )
    return "\n\n".join(lines)
