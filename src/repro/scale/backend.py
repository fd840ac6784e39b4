"""The columnar NewsWire system facade (``SystemSpec(backend="columnar")``).

:class:`ColumnarNewsWire` exposes the slice of the
:class:`~repro.news.deployment.NewsWireSystem` surface the experiment
runners drive — ``sim`` / ``runtime`` / ``trace`` / ``run_for`` /
``publisher(name).publish_news(...)`` — on top of the struct-of-arrays
state in :mod:`repro.scale.columns` and the batched rounds in
:mod:`repro.scale.batched`.

Dissemination is an **analytic walk** instead of simulated per-hop
messages: at publish time the walk descends the zone tree exactly as a
carrier chain would — the publisher's *root-replica* rows gate the
top-level fan-out, canonical aggregates gate deeper levels, and the
exact interned-subject match selects leaf subscribers — accumulating
each delivery's arrival time from the same per-hop ingredients the
object backend pays (forwarding delay, send-rate pacing, zone-distance
latency bands).  The walk writes its deliveries into parallel columns
(arrival times, node indices, hops, a shared origin per publish) that
go to the kernel in one :meth:`~repro.sim.engine.Simulation.call_at_batch`
call and wait, still as columns, in the system's single bulk lane — one
heap entry, however many deliveries are in flight.  The kernel hands
:meth:`ColumnarNewsWire._deliver` runs of due rows, built as they fire;
it drops the copies whose node crashed in flight and records the rest
as ordinary ``deliver`` events in one
:meth:`~repro.sim.trace.TraceLog.record_many`, so sinks, metric
collectors and the invariant suite see a normal run.

Equivalence contract (pinned in ``tests/scale/test_equivalence.py``):
for a fixed seed under converged routing state, the *canonical trace*
— sorted publish tuples, sorted ``(item, node)`` delivery pairs, and
their counts — is byte-identical across backends; individual latencies
are statistically, not bitwise, equivalent (same per-band ranges,
different draws).  Deliver events carry ``sender=<publisher>`` and a
positive ``hop`` so causal-tree reconstruction anchors every delivery
chain at its publish.

Not modeled here (use the object backend): publish flow control and
credential checks, zone-scoped publishes, message loss/partitions,
repair anti-entropy for items, live runtimes, and subscription
predicates or wildcard subjects (refused, not ignored).
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bloom import positions_mask
from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.news.deployment import NEWSWIRE_TRACE_KINDS
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.pubsub.schemes import BloomScheme
from repro.pubsub.subscription import Subscription
from repro.scale.batched import BatchedGossip
from repro.scale.columns import MembershipColumns
from repro.sim.engine import Simulation
from repro.sim.network import HierarchicalLatency
from repro.sim.rng import derive_rng
from repro.sim.trace import TraceLog

#: Stream tag for per-item latency draws (one substream per publish,
#: so walk order changes never perturb other items' draws).
_LATENCY_STREAM = 0x5CA1E1


class _AgentRef:
    """Name-only stand-in for an agent (``deployment.agents[i]``)."""

    __slots__ = ("node_id",)

    def __init__(self, node_id: str):
        self.node_id = node_id


class _AgentSeq:
    def __init__(self, columns: MembershipColumns):
        self._columns = columns

    def __len__(self) -> int:
        return self._columns.num_nodes

    def __getitem__(self, index: int) -> _AgentRef:
        return _AgentRef(self._columns.node_path(index))


class _DeploymentView:
    """Duck-typed ``system.deployment`` for helpers that only read
    ``agents[i].node_id`` (e.g. ``expected_delivery_nodes``)."""

    def __init__(self, columns: MembershipColumns):
        self.agents = _AgentSeq(columns)


class ColumnarPublisher:
    """Publisher shim bound to one node index.

    Mirrors :meth:`repro.news.node.NewsWireNode.publish_news`'s
    signature for the arguments experiments use; flow control and
    credential checks are not modeled (rates in the experiments are
    sized to never trip them).
    """

    def __init__(self, system: "ColumnarNewsWire", name: str, node_index: int):
        self.system = system
        self.name = name
        self.node_index = node_index
        self._serial = 0

    def publish_news(
        self,
        subject: str,
        headline: str,
        body: str = "",
        categories: Tuple[str, ...] = (),
        keywords: Tuple[str, ...] = (),
        urgency: int = 5,
        zone=None,
        zone_predicate=None,
    ) -> Dict[str, object]:
        if zone is not None or zone_predicate is not None:
            raise ConfigurationError(
                "the columnar backend publishes root scope only; "
                "use backend='object' for zone-scoped publishes"
            )
        self._serial += 1
        return self.system._publish(self.name, self.node_index, self._serial, subject)


class ColumnarNewsWire:
    """A running columnar NewsWire population."""

    def __init__(
        self,
        columns: MembershipColumns,
        sim: Simulation,
        trace: TraceLog,
        scheme: BloomScheme,
        config: NewsWireConfig,
        gossip: BatchedGossip,
        seed: int,
    ):
        self.columns = columns
        self._sim = sim
        self._trace = trace
        self.scheme = scheme
        self.config = config
        self.gossip = gossip
        self.seed = seed
        self.publishers: Dict[str, ColumnarPublisher] = {}
        #: subject -> ``(sid, Bloom mask)``, one hash per distinct subject.
        self._subjects: Dict[str, Tuple[int, int]] = {}
        #: Interest classes: a node's sid tuple -> the ``(sids, mask)``
        #: pair every node of that class shares in ``columns``.
        self._classes: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
        self._bands = HierarchicalLatency().bands
        self._walk_serial = 0
        self._deployment: Optional[_DeploymentView] = None

    # -- NewsWireSystem surface -------------------------------------------

    @property
    def sim(self) -> Simulation:
        return self._sim

    @property
    def runtime(self) -> Simulation:
        """The scheduling substrate (``call_at`` / ``run_for``)."""
        return self._sim

    @property
    def trace(self) -> TraceLog:
        return self._trace

    @property
    def metrics(self) -> MetricsRegistry:
        return self._trace.metrics

    @property
    def num_nodes(self) -> int:
        return self.columns.num_nodes

    @property
    def nodes(self) -> tuple:
        """Empty: columnar state has no per-node objects.  Checkers
        that need live agents (zone reconvergence, queue accounting)
        skip gracefully on an empty roster."""
        return ()

    @property
    def deployment(self) -> _DeploymentView:
        if self._deployment is None:
            self._deployment = _DeploymentView(self.columns)
        return self._deployment

    def publisher(self, name: str) -> ColumnarPublisher:
        return self.publishers[name]

    def run_for(self, duration: float) -> None:
        self._sim.run_for(duration)

    def node_name(self, index: int) -> str:
        return self.columns.node_path(index)

    # -- subscriptions -----------------------------------------------------

    def _subject(self, subscription: Subscription) -> Tuple[int, int]:
        """``(sid, mask)`` of a subscription's subject: sids in
        first-seen order, each subject hashed once."""
        if subscription.predicate_source is not None:
            raise ConfigurationError(
                "the columnar backend does not model subscription predicates; "
                "use backend='object'"
            )
        entry = self._subjects.get(subscription.subject)
        if entry is None:
            if subscription.is_wildcard:
                raise ConfigurationError(
                    "the columnar backend does not model wildcard subjects; "
                    "use backend='object'"
                )
            entry = self._subjects[subscription.subject] = (
                len(self._subjects),
                positions_mask(self.scheme.hints_for(subscription.subject, "")),
            )
        return entry

    def _join_class(self, index: int, sids: Tuple[int, ...], added: int) -> None:
        """Point node ``index`` at its interest class's shared
        ``(sids, mask)``; ``added`` is the mask of the sids it gains."""
        shared = self._classes.get(sids)
        if shared is None:
            shared = self._classes[sids] = (sids, self.columns.interest[index] | added)
        self.columns.subjects[index], self.columns.interest[index] = shared

    def install_subscriptions(
        self, index: int, subscriptions: Sequence[Subscription]
    ) -> None:
        """Build-time interest installation (no trace, no dirtying —
        aggregates are rebuilt wholesale afterwards, mirroring the
        time-zero pre-seed)."""
        ids = list(self.columns.subjects[index])
        added = 0
        for subscription in subscriptions:
            sid, mask = self._subject(subscription)
            if sid not in ids:
                ids.append(sid)
                added |= mask
        self._join_class(index, tuple(ids), added)

    def subscribe(self, index: int, subscription: Subscription) -> None:
        """Run-time subscription: takes the real propagation path —
        leaf dirty → one tree level per gossip round → root replicas."""
        columns = self.columns
        sid, mask = self._subject(subscription)
        if sid not in columns.subjects[index]:
            self._join_class(index, columns.subjects[index] + (sid,), mask)
        self.gossip.mark_dirty(columns.leaf_zone(index))
        self._trace.record(
            "subscribe",
            node=columns.node_path(index),
            subject=subscription.subject,
        )

    def root_subs_visible(self, observer_index: int, positions) -> bool:
        """Are all of a subject's filter bits set in the root view of
        ``observer_index``'s top-level zone replica?  (E6's probe.)"""
        view = self.gossip.root_subs_view(observer_index)
        return all((view >> position) & 1 for position in positions)

    # -- failures ----------------------------------------------------------

    def fail_node(self, index: int) -> None:
        self.gossip.fail_node(index)

    def recover_node(self, index: int) -> None:
        self.gossip.recover_node(index)

    # -- publishing --------------------------------------------------------

    def _publish(
        self, name: str, node_index: int, serial: int, subject: str
    ) -> Dict[str, object]:
        item = f"{name}:{serial}.r0"
        self._trace.record(
            "publish",
            node=self.columns.node_path(node_index),
            subject=subject,
            item=item,
            scope="/",
        )
        # One bound method for every publish's rows: the kernel keeps a
        # single lane, and a single heap entry, per callback.
        self._sim.call_at_batch(self._deliver, *self._walk(subject, name, node_index, item))
        return {"item": item, "subject": subject, "publisher": name}

    def _deliver(self, rows: List[tuple]) -> None:
        """Lane handler: consecutive due ``(time, node, hop, origin)``
        rows, no other event between them.  ``sim.now`` is the last
        row's time, so each delivery is stamped with its own."""
        columns = self.columns
        alive, member, names, node_path = (
            columns.alive, columns.member, columns.names, columns.node_path
        )
        self._trace.record_many(
            "deliver",
            [
                (time, {"node": names[index] or node_path(index), "item": item,
                        "latency": time - created, "sender": sender, "hop": hop,
                        "via": "tree"})
                for time, index, hop, (item, created, sender) in rows
                if alive[index] and member[index]  # else: crashed with the copy in flight
            ],
        )

    def _walk(
        self, subject: str, publisher_name: str, publisher_index: int, item: str
    ) -> Tuple[array, array, array, list]:
        """Analytic dissemination from one tree descent, each leaf zone
        visited at most once: four parallel columns with one entry per
        delivery — arrival times, node indices, hops, and an *origin*
        ``(item, created, sender)`` tuple shared by the publish's rows —
        from which the lane builds :meth:`_deliver`'s rows.
        """
        columns = self.columns
        scheme = self.scheme
        hints = scheme.hints_for(subject, publisher_name)
        sid = self._subjects.get(subject, (None,))[0]
        now = self._sim.now
        publisher_node = columns.node_path(publisher_index)
        self._walk_serial += 1
        draw = derive_rng(self.seed, _LATENCY_STREAM, self._walk_serial).random
        forwarding_delay = self.config.multicast.forwarding_delay
        send_gap = 1.0 / self.config.multicast.max_send_rate
        levels = columns.levels
        alive = columns.alive
        member = columns.member
        subjects = columns.subjects
        # Fanning across children of a depth-`depth` zone: their members'
        # paths share `depth` labels of `levels`, so the zone distance is
        # levels - depth.  `low + (high - low) * draw()` is what
        # `rng.uniform(low, high)` computes, draw for draw.
        bands = []
        for depth in range(levels):
            low, high = self._bands[min(levels - depth, len(self._bands)) - 1]
            bands.append((low, high - low))
        times, nodes, hops, origins = array("d"), array("I"), array("B"), []
        relayed = (item, now, publisher_node)
        own = (item, now, "")  # the publisher's own copy has no sender

        def leaf(zone: int, carrier: int, time: float, hop: int) -> None:
            if sid is None:
                return  # nobody anywhere subscribes to this subject
            low, span = bands[levels - 1]
            pacing = 0
            for index in columns.leaf_members(zone):
                if not alive[index] or not member[index]:
                    continue
                if sid not in subjects[index]:
                    continue
                nodes.append(index)
                if index == carrier:
                    times.append(time)
                    hops.append(hop)
                    # Only a carrier can be the publisher itself.
                    origins.append(own if index == publisher_index else relayed)
                else:
                    pacing += 1
                    times.append(
                        time + forwarding_delay + pacing * send_gap + (low + span * draw())
                    )
                    hops.append(hop + 1)
                    origins.append(relayed)

        def descend(depth: int, zone: int, carrier: int, time: float, hop: int) -> None:
            if depth == levels - 1:
                leaf(zone, carrier, time, hop)
                return
            carrier_child = columns.zone_of(carrier, depth + 1)
            low, span = bands[depth]
            pacing = 0
            for child in columns.children(depth, zone):
                if child == carrier_child:
                    # The carrier is inside: processed synchronously,
                    # no network hop.
                    descend(depth + 1, child, carrier, time, hop)
                    continue
                if depth == 0 and levels > 1:
                    mask = self.gossip.top_child_mask(publisher_index, child)
                else:
                    mask = columns.agg_subs[depth + 1][child]
                if mask is None or not scheme.zone_may_match({"subs": mask}, hints):
                    continue
                next_carrier = columns.carrier_for(depth + 1, child)
                if next_carrier is None:
                    continue
                pacing += 1
                arrival = time + forwarding_delay + pacing * send_gap + (low + span * draw())
                descend(depth + 1, child, next_carrier, arrival, hop + 1)

        descend(0, 0, publisher_index, now, 0)
        # descend's closure holds descend, a cycle that would pin the
        # helpers — and the columns, which they close over — until a
        # full collection; unbound, they die by reference count.
        descend = None
        return times, nodes, hops, origins


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def _install_population(
    system: ColumnarNewsWire,
    num_nodes: int,
    subscriptions_for: Callable[[int], Sequence[Subscription]],
) -> None:
    """Install every node's time-zero interests, once per interest tuple.

    Every node is still empty here, so the ``(sids, mask)`` pair a node
    ends up with depends only on the subscriptions it is handed.  The
    first node handed a tuple is installed in full, which is also where
    predicates and wildcard subjects are refused; later nodes handed
    the *same* tuple object take that node's pair.  Interest models
    hand out one shared tuple per predicate-free draw, so 10^5 nodes
    install a few hundred times.  The memo holds each tuple, so no id
    is reused while it lives.
    """
    columns = system.columns
    subjects, interest = columns.subjects, columns.interest
    installed: Dict[int, Tuple[Sequence[Subscription], Tuple[int, ...], int]] = {}
    for index in range(num_nodes):
        subscriptions = subscriptions_for(index)
        known = installed.get(id(subscriptions))
        if known is not None:
            subjects[index], interest[index] = known[1], known[2]
            continue
        system.install_subscriptions(index, subscriptions)
        if type(subscriptions) is tuple:
            installed[id(subscriptions)] = (
                subscriptions, subjects[index], interest[index]
            )


def build_columnar(
    num_nodes: int,
    config: Optional[NewsWireConfig] = None,
    *,
    publisher_names: Sequence[str] = ("newswire",),
    subscriptions_for: Optional[Callable[[int], Sequence[Subscription]]] = None,
    seed: int = 0,
    sinks: Optional[Sequence[TraceSink]] = None,
    metrics: Optional[MetricsRegistry] = None,
    start: bool = True,
) -> ColumnarNewsWire:
    """Stand up a columnar NewsWire population.

    Mirrors :func:`repro.news.deployment.build_newswire` for the
    parameters the experiment runners use: the first
    ``len(publisher_names)`` nodes double as publishers and
    ``subscriptions_for(index)`` seeds each node's interests before
    the time-zero aggregate build.  Publishers are not rate limited
    (no flow-control model here), so there is no ``publisher_rate``.
    """
    config = (config or NewsWireConfig()).validate()
    if num_nodes <= 0:
        raise ConfigurationError("num_nodes must be positive")

    sim = Simulation(seed=seed)
    trace = TraceLog(
        sim, kinds=set(NEWSWIRE_TRACE_KINDS), sinks=sinks, metrics=metrics
    )
    scheme = BloomScheme(config.bloom)
    columns = MembershipColumns(
        num_nodes,
        config.branching_factor,
        representatives=config.multicast.representatives,
    )
    gossip = BatchedGossip(sim, columns, config)
    system = ColumnarNewsWire(columns, sim, trace, scheme, config, gossip, seed)

    if subscriptions_for is not None:
        _install_population(system, num_nodes, subscriptions_for)
    columns.build_aggregates()
    # Re-seed the root replicas now that aggregates include the
    # time-zero interests (the consistent snapshot _preseed hands out).
    gossip._seed_replicas()

    for index, name in enumerate(publisher_names):
        if index >= num_nodes:
            break
        system.publishers[name] = ColumnarPublisher(system, name, index)

    if start:
        gossip.start()
    return system


# ----------------------------------------------------------------------
# Canonical-trace equivalence helpers
# ----------------------------------------------------------------------

def canonical_trace(trace: TraceLog) -> Dict[str, object]:
    """The backend-equivalence view of a recorded run.

    Sorted publish tuples, sorted ``(item, node)`` delivery pairs and
    the raw counts — exactly the events whose sets a fixed-seed run
    must reproduce bit-for-bit on either backend.  Per-event *timings*
    are deliberately excluded: they are statistically, not bitwise,
    equivalent across backends.
    """
    publishes = sorted(
        (str(event["item"]), str(event["node"]), str(event["subject"]))
        for event in trace.events("publish")
    )
    delivers = sorted(
        (str(event["item"]), str(event["node"]))
        for event in trace.events("deliver")
    )
    return {
        "publish": publishes,
        "deliver": delivers,
        "publish_count": trace.count("publish"),
        "deliver_count": trace.count("deliver"),
    }


def canonical_digest(trace: TraceLog) -> str:
    """sha256 over the canonical trace (the golden-pinnable form)."""
    doc = canonical_trace(trace)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
