"""Zone-recursive application-level multicast (paper §5).

``send_to_zone(zone, envelope)`` disseminates data to every leaf under
``zone``: the sender walks its replica of ``zone``'s table, and for
each child zone forwards the envelope to one or more of the child's
elected *representatives* (an aggregated attribute, §5); each
representative repeats the process one level down until envelopes
reach leaf agents — "multicast is performed as a kind of recursive
computation on the aggregation in the zone".

Robustness features from §9:

* redundant representatives (``send_to_representatives > 1``) with
  duplicate suppression keyed on ``(item id, zone)``;
* paced per-child forwarding queues (:mod:`repro.multicast.queues`);
* bimodal-multicast-style anti-entropy repair: nodes periodically
  gossip digests of recently delivered items and pull what they missed
  — "the same cache is used for assisting in achieving end-to-end
  reliability in the case of forwarding node failures".

Selective forwarding (pub/sub) plugs in by overriding two hooks:
``forward_filter`` (the per-child-zone test) and ``accept`` (the final
leaf-level match).
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.core.config import NewsWireConfig
from repro.core.identifiers import NodeId, ZonePath
from repro.gossip.epidemic import RumorBuffer
from repro.runtime.interface import Runtime
from repro.sim.trace import TraceLog
from repro.astrolabe.agent import AstrolabeAgent
from repro.astrolabe.certificates import KeyChain
from repro.astrolabe.mib import Row
from repro.multicast.messages import (
    Envelope,
    ForwardMsg,
    RepairDigest,
    RepairRequest,
    RepairResponse,
)
from repro.multicast.queues import ForwardingQueues


class MulticastNode(AstrolabeAgent):
    """An Astrolabe agent that can forward and deliver multicast items."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: Runtime,
        config: NewsWireConfig,
        keychain: KeyChain,
        trace: Optional[TraceLog] = None,
    ):
        super().__init__(node_id, runtime, config, keychain, trace)
        mc = self.config.multicast
        metrics = self.trace.metrics
        self._m_forwards = metrics.counter("multicast.forwards")
        self._m_delivers = metrics.counter("multicast.delivers")
        self._m_duplicates = metrics.counter("multicast.duplicates")
        self._m_repair_digests = metrics.counter("repair.digests")
        self._m_repair_pulls = metrics.counter("repair.pulled")
        self.queues = ForwardingQueues(self, mc)
        #: (item_key, zone) pairs already disseminated — §9's duplicate
        #: removal for redundant-representative forwarding.
        self._seen: RumorBuffer[tuple[Hashable, ZonePath], None] = RumorBuffer(
            mc.dedup_capacity
        )
        #: Recently delivered envelopes, the repair source and the
        #: state-transfer source for joiners.
        self.delivered: RumorBuffer[Hashable, Envelope] = RumorBuffer(
            mc.repair_buffer_capacity
        )
        #: §9's per-forwarder "log file": every envelope this node
        #: handled (even without delivering locally), so pure
        #: forwarders can also answer repair pulls.
        self.forward_log: RumorBuffer[Hashable, Envelope] = RumorBuffer(
            mc.repair_buffer_capacity
        )
        #: ``zone.child(label)`` per row this node has disseminated
        #: through, so every forward into a child shares one path (and
        #: its trace string); bounded by the zone tables it replicates.
        self._child_paths: dict[tuple[ZonePath, str], ZonePath] = {}
        #: The last repair digest's entries and the ``delivered``
        #: generation they were built at.
        self._digest_entries: tuple = ()
        self._digest_generation = -1
        self._mc_rng = self.runtime.rng("multicast")
        self._repair_timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        super().on_start()
        if self.config.multicast.repair_enabled:
            jitter = self._mc_rng.uniform(0, self.config.multicast.repair_interval)
            self._repair_timer = self.every(
                self.config.multicast.repair_interval,
                self._repair_round,
                first_delay=jitter if jitter > 0 else None,
            )

    def on_crash(self) -> None:
        super().on_crash()
        self.queues.clear()

    def on_recover(self) -> None:
        super().on_recover()
        self.queues.restart()

    # ------------------------------------------------------------------
    # Publishing / sending
    # ------------------------------------------------------------------

    def send_to_zone(self, zone: ZonePath, envelope: Envelope) -> None:
        """Disseminate ``envelope`` to every (matching) leaf under ``zone``.

        The caller is normally a member of ``zone`` and drives the
        dissemination from its own replicated tables (§8: "using its
        local aggregation zone tables to drive the dissemination of its
        data").  Publishing into a non-containing zone is also
        supported: the envelope is routed toward that zone through the
        representatives of the deepest ancestor the sender replicates.
        """
        self.trace.record(
            "multicast-send", zone=str(zone), item=str(envelope.item_key)
        )
        if zone == self.node_id or self.replicates(zone):
            self._disseminate(zone, envelope)
        else:
            self._route_toward(zone, envelope)

    # ------------------------------------------------------------------
    # Dissemination machinery
    # ------------------------------------------------------------------

    def _disseminate(
        self,
        zone: ZonePath,
        envelope: Envelope,
        sender: Optional[NodeId] = None,
        hop: int = 0,
    ) -> None:
        """Handle an envelope addressed to ``zone`` (we are a member).

        ``sender`` is the network peer the envelope arrived from (None
        for the publisher's own recursion) and ``hop`` the number of
        network hops it has travelled; both flow into the causal trace
        fields so dissemination trees are reconstructable offline.
        """
        if not self._seen.add((envelope.item_key, zone), None):
            self._m_duplicates.inc()
            self.trace.record(
                "dup-dropped", zone=str(zone), item=str(envelope.item_key)
            )
            return
        self.forward_log.add(envelope.item_key, envelope)
        if zone == self.node_id:
            self._deliver(envelope, sender=sender, hop=hop)
            return
        table = self.zone_table(zone)
        child_paths = self._child_paths
        for label, row in table.rows():
            child = child_paths.get((zone, label))
            if child is None:
                child = child_paths[zone, label] = zone.child(label)
            if not self.forward_filter(child, row, envelope):
                self.trace.record(
                    "filtered", zone=str(child), item=str(envelope.item_key)
                )
                continue
            if not self._zone_predicate_allows(row, envelope):
                self.trace.record(
                    "predicate-filtered",
                    zone=str(child),
                    item=str(envelope.item_key),
                )
                continue
            if child == self.node_id:
                self._disseminate(child, envelope, sender, hop)
                continue
            if self.node_id.labels[: child.depth] == child.labels:
                # Our own branch: we are a member of the child zone, so
                # recurse locally instead of paying a network hop.
                self._disseminate(child, envelope, sender, hop)
                continue
            self._forward_to_child(child, row, envelope, hop)

    def _forward_to_child(
        self, child: ZonePath, row: Row, envelope: Envelope, hop: int = 0
    ) -> None:
        contacts = row.get("contacts", ())
        if not isinstance(contacts, tuple) or not contacts:
            self.trace.record(
                "no-representative", zone=str(child), item=str(envelope.item_key)
            )
            return
        count = min(self.config.multicast.send_to_representatives, len(contacts))
        targets = self._mc_rng.sample(list(contacts), count)
        weight = float(row.get("nmembers", 1) or 1)
        for target in targets:
            self._m_forwards.inc()
            self.trace.record(
                "forward",
                zone=str(child),
                to=target,
                item=str(envelope.item_key),
                parent=str(self.node_id),
                hop=hop + 1,
            )
            self.queues.enqueue(
                ZonePath.parse(target),
                ForwardMsg(child, envelope, hop + 1),
                weight=weight,
                urgency=envelope.urgency,
            )

    #: Compiled zone predicates, shared per source text across the node.
    _predicate_cache: dict = {}

    def _zone_predicate_allows(self, row: Row, envelope: Envelope) -> bool:
        """§8 future work: the publisher's per-zone dissemination test."""
        source = envelope.zone_predicate
        if source is None:
            return True
        predicate = MulticastNode._predicate_cache.get(source)
        if predicate is None:
            from repro.astrolabe.aql import compile_predicate

            try:
                predicate = compile_predicate(source)
            except Exception:
                # A malformed predicate must not break dissemination;
                # fail open and let leaf-level filters decide.
                def predicate(mapping):
                    return True
            if len(MulticastNode._predicate_cache) > 256:
                MulticastNode._predicate_cache.clear()
            MulticastNode._predicate_cache[source] = predicate
        try:
            return bool(predicate(row.mapping))
        except Exception:
            return True  # evaluation error on this row: fail open

    def _route_toward(
        self, zone: ZonePath, envelope: Envelope, hop: int = 0
    ) -> None:
        """Forward toward a zone we are not a member of (scoped publish).

        Walk down from the deepest replicated ancestor: its table has a
        row (with representatives) for the next label on the way to
        ``zone``.
        """
        for ancestor in reversed(list(zone.ancestors())):
            if not self.replicates(ancestor):
                continue
            next_label = zone.labels[ancestor.depth]
            row = self.zone_table(ancestor).row(next_label)
            if row is None:
                break
            self._forward_to_child(ancestor.child(next_label), row, envelope, hop)
            return
        self.trace.record(
            "route-failed", zone=str(zone), item=str(envelope.item_key)
        )

    def _deliver(
        self,
        envelope: Envelope,
        sender: Optional[NodeId] = None,
        hop: int = 0,
        via: str = "tree",
    ) -> None:
        if not envelope.scope.contains(self.node_id):
            # Scoped item that strayed outside its target subtree
            # (stale routing state or a repair offer): never deliver.
            self.trace.record(
                "out-of-scope", node=str(self.node_id), item=str(envelope.item_key)
            )
            return
        own = self.own_row()
        if own is not None and not self._zone_predicate_allows(own, envelope):
            # The publisher's zone predicate also gates the leaf (a
            # leaf is a zone), so items repaired around the tree still
            # honour it.  Composable predicates reference attributes
            # present at every level (e.g. ANY(premium) AS premium).
            self.trace.record(
                "predicate-filtered",
                zone=str(self.node_id),
                item=str(envelope.item_key),
            )
            return
        if not self.accept(envelope):
            self.trace.record(
                "rejected", node=str(self.node_id), item=str(envelope.item_key)
            )
            return
        if self.delivered.add(envelope.item_key, envelope):
            self._m_delivers.inc()
            # Causal fields: ``sender`` is the network peer the copy
            # arrived from ("" for a local/publisher delivery), ``hop``
            # the network hops travelled, ``via`` how it got here
            # (tree dissemination vs anti-entropy repair).
            self.trace.record(
                "deliver",
                node=str(self.node_id),
                item=str(envelope.item_key),
                latency=self.now - envelope.created_at,
                sender="" if sender is None else str(sender),
                hop=hop,
                via=via,
            )
            self.on_deliver(envelope)

    # ------------------------------------------------------------------
    # Hooks for the pub/sub and news layers
    # ------------------------------------------------------------------

    def forward_filter(self, child: ZonePath, row: Row, envelope: Envelope) -> bool:
        """Should ``envelope`` be forwarded into ``child``?

        Plain multicast forwards everywhere; the pub/sub layer overrides
        this with the Bloom-filter test of §6.
        """
        return True

    def accept(self, envelope: Envelope) -> bool:
        """Final leaf-level test before delivery (pub/sub overrides)."""
        return True

    def wants_repair(self, subject: str, hints: tuple) -> bool:
        """Is a missing item with these hints worth pulling during repair?"""
        return True

    def on_deliver(self, envelope: Envelope) -> None:
        """Called once per item delivered to this node (news layer hook)."""

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, sender: NodeId, message: Any) -> None:
        if isinstance(message, ForwardMsg):
            self._handle_forward(sender, message)
        elif isinstance(message, RepairDigest):
            self._handle_repair_digest(sender, message)
        elif isinstance(message, RepairRequest):
            self._handle_repair_request(sender, message)
        elif isinstance(message, RepairResponse):
            self._handle_repair_response(sender, message)
        else:
            super().on_message(sender, message)

    def _handle_forward(self, sender: NodeId, message: ForwardMsg) -> None:
        zone = message.zone
        if zone == self.node_id or self.replicates(zone):
            self._disseminate(zone, message.envelope, sender, message.hop)
        elif zone.contains(self.node_id):
            # We are a member of a descendant of ``zone``?  Impossible:
            # members replicate all ancestors.  Kept for safety.
            self.trace.record("misrouted", zone=str(zone))
        else:
            # Stale representative information routed the envelope to a
            # non-member (e.g. we moved or the row was old): route on.
            self._route_toward(zone, message.envelope, message.hop)

    # ------------------------------------------------------------------
    # Anti-entropy repair (bimodal multicast phase 2)
    # ------------------------------------------------------------------

    def _repair_round(self) -> None:
        if not len(self.delivered):
            return
        partner = self._pick_repair_partner()
        if partner is None:
            return
        if self._digest_generation != self.delivered.generation:
            self._digest_generation = self.delivered.generation
            self._digest_entries = tuple(
                (key, env.subject, env.hints, env.scope)
                for key, env in (
                    (k, self.delivered.get(k)) for k in self.delivered.digest()
                )
                if env is not None
            )
        entries = self._digest_entries
        self._m_repair_digests.inc()
        self.trace.record(
            "repair-digest",
            node=str(self.node_id),
            to=str(partner),
            entries=len(entries),
        )
        self.send(partner, RepairDigest(entries))

    def _pick_repair_partner(self) -> Optional[NodeId]:
        """Mostly leaf-zone siblings; sometimes a contact further away.

        The cross-zone arm is what lets an item reach a leaf zone whose
        every member missed the tree dissemination.
        """
        cross = (
            self._mc_rng.random()
            < self.config.multicast.cross_zone_repair_probability
        )
        zones = list(self.zones)
        zone = self._mc_rng.choice(zones[:-1]) if cross and len(zones) > 1 else zones[-1]
        partners = self._pick_partners(zone)
        return partners[0] if partners else None

    def _handle_repair_digest(self, sender: NodeId, message: RepairDigest) -> None:
        missing = tuple(
            key
            for key, subject, hints, scope in message.entries
            if key not in self.delivered
            and scope.contains(self.node_id)
            and self.wants_repair(subject, hints)
        )
        if missing:
            self.send(sender, RepairRequest(missing))

    def _handle_repair_request(self, sender: NodeId, message: RepairRequest) -> None:
        envelopes = tuple(
            env
            for env in (
                self.delivered.get(key) or self.forward_log.get(key)
                for key in message.keys
            )
            if env is not None
        )
        if envelopes:
            self.send(sender, RepairResponse(envelopes))

    def _handle_repair_response(
        self, sender: NodeId, message: RepairResponse
    ) -> None:
        for envelope in message.envelopes:
            if envelope.item_key not in self.delivered:
                self._m_repair_pulls.inc()
                self.trace.record(
                    "repair-delivered",
                    item=str(envelope.item_key),
                    node=str(self.node_id),
                    partner=str(sender),
                )
                self._deliver(envelope, sender=sender, via="repair")
