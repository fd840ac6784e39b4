"""The publish/subscribe node: selective forwarding over multicast (§6).

"Basically, the solution extends the Astrolabe-based application-level
multicast with a selective forwarding mechanism": a
:class:`PubSubNode` is a :class:`MulticastNode` whose

* leaf row carries the scheme-encoded subscription state (Bloom bits
  or category masks), refreshed whenever subscriptions change;
* ``forward_filter`` tests an item's routing hints against the child
  zone's aggregated subscription attribute before forwarding;
* ``accept`` performs the leaf's authoritative final match (needed
  because Bloom bits collide — §6's "a final test is needed at the
  leaf node whether the data that arrives at the node truly matches a
  subscription").
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping, Optional

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ItemId, NodeId, ZonePath
from repro.runtime.interface import Runtime
from repro.sim.trace import TraceLog
from repro.astrolabe.certificates import KeyChain
from repro.astrolabe.mib import Row
from repro.multicast.messages import Envelope
from repro.multicast.node import MulticastNode
from repro.pubsub.schemes import BloomScheme, SubscriptionScheme
from repro.pubsub.subscription import Subscription


def item_metadata(envelope: Envelope) -> Mapping[str, object]:
    """Metadata mapping a subscription predicate is evaluated against.

    News payloads expose a full metadata mapping; other payloads fall
    back to the envelope's own fields.
    """
    payload = envelope.payload
    as_metadata = getattr(payload, "as_metadata", None)
    if callable(as_metadata):
        return as_metadata()
    return {
        "subject": envelope.subject,
        "publisher": envelope.publisher,
        "urgency": envelope.urgency,
    }


class PubSubNode(MulticastNode):
    """A subscriber/forwarder participant of the pub/sub system."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: Runtime,
        config: NewsWireConfig,
        keychain: KeyChain,
        trace: Optional[TraceLog] = None,
        scheme: Optional[SubscriptionScheme] = None,
    ):
        super().__init__(node_id, runtime, config, keychain, trace)
        self.scheme = scheme if scheme is not None else BloomScheme(self.config.bloom)
        self._subscriptions: list[Subscription] = []
        #: ``wants_repair``'s answer per subject; every change to
        #: ``_subscriptions`` goes through ``_export_subscriptions``,
        #: which clears it.
        self._repair_interest: dict[str, bool] = {}
        self._publish_serial = 0
        self._leaf_key = str(self.node_id)
        self._refresh_timer = None
        metrics = self.trace.metrics
        self._m_bloom_tests = metrics.counter("bloom.tests")
        self._m_bloom_hits = metrics.counter("bloom.hits")
        self._m_publishes = metrics.counter("pubsub.publishes")
        self._m_refreshes = metrics.counter("pubsub.summary_refreshes")
        self._m_repairs = metrics.counter("pubsub.summary_repairs")
        self.set_attributes(
            {
                "publishers": (),
                **self.scheme.leaf_attributes((), leaf_key=self._leaf_key),
            }
        )

    def on_start(self) -> None:
        super().on_start()
        # Stabilizing schemes carry a refresh interval: the node
        # periodically re-derives its summary from its true
        # subscription list, the self-repair loop docs/ROUTING.md's
        # stabilization contract rests on.  The jitter comes from a
        # dedicated named RNG stream so enabling refresh never perturbs
        # the gossip/multicast streams of a fixed-seed run.
        interval = getattr(self.scheme, "refresh_interval", None)
        if interval:
            jitter = self.runtime.rng("pubsub-refresh").uniform(0, interval)
            self._refresh_timer = self.every(
                interval, self._summary_refresh_round, first_delay=jitter
            )

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        return tuple(self._subscriptions)

    def subscribe(self, subscription: Subscription) -> None:
        """Add a subscription; its subject bits reach the root within
        tens of seconds (E6 measures exactly this)."""
        if subscription in self._subscriptions:
            return
        self._subscriptions.append(subscription)
        self._export_subscriptions()
        self.trace.record(
            "subscribe", node=str(self.node_id), subject=subscription.subject
        )

    def unsubscribe(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            return
        self._export_subscriptions()
        self.trace.record(
            "unsubscribe", node=str(self.node_id), subject=subscription.subject
        )

    def resubscribe(
        self, old: Optional[Subscription], new: Optional[Subscription]
    ) -> None:
        """Swap ``old`` for ``new`` with a single summary re-export.

        The interest-churn primitive: a subscriber changing its mind
        mid-flight must atomically retract the old subject's bits and
        advertise the new ones, so an in-transit publish races with at
        most one summary refresh (tests/pubsub/test_churn.py).
        """
        changed = False
        if old is not None and old in self._subscriptions:
            self._subscriptions.remove(old)
            changed = True
        if new is not None and new not in self._subscriptions:
            self._subscriptions.append(new)
            changed = True
        if not changed:
            return
        self._export_subscriptions()
        self.trace.record(
            "resubscribe",
            node=str(self.node_id),
            dropped="" if old is None else old.subject,
            adopted="" if new is None else new.subject,
        )

    def rotate_subscription(
        self, rng: random.Random, subjects: Iterable[str]
    ) -> None:
        """One churn-storm step: drop a random current subscription and
        adopt a random subject (the failure injector's entry point)."""
        old = rng.choice(self._subscriptions) if self._subscriptions else None
        pool = [s for s in subjects]
        new = Subscription(rng.choice(pool)) if pool else None
        self.resubscribe(old, new)

    def _export_subscriptions(self) -> None:
        self._repair_interest.clear()
        self.set_attributes(
            self.scheme.leaf_attributes(self._subscriptions, leaf_key=self._leaf_key)
        )

    # ------------------------------------------------------------------
    # Summary stabilization / corruption (docs/ROUTING.md)
    # ------------------------------------------------------------------

    def _summary_refresh_round(self) -> None:
        """One self-stabilization round: re-derive the summary from the
        true subscription list; re-export on any mismatch.  Arbitrary
        corruption of the exported routing state is repaired here, and
        re-clustered subgroup placements are picked up."""
        self._m_refreshes.inc()
        expected = self.scheme.leaf_attributes(
            self._subscriptions, leaf_key=self._leaf_key
        )
        if all(
            self.get_attribute(name) == value for name, value in expected.items()
        ):
            return
        self.set_attributes(expected)
        self._m_repairs.inc()
        self.trace.record("summary-repair", node=str(self.node_id))

    def corrupt_summary(self, rng: random.Random) -> None:
        """Adversarially overwrite this node's exported summary state.

        Invoked by the failure injector's ``summary-corruption`` events:
        each summary attribute is either zeroed (suppressing the node's
        interests — silent false negatives downstream) or replaced with
        random garbage (phantom interests — false-positive forwarding).
        Only a stabilizing scheme's refresh rounds undo this.
        """
        garbage = {}
        config = getattr(self.scheme, "config", None)
        num_bits = getattr(config, "num_bits", 256)
        for name in self.scheme.summary_attributes():
            garbage[name] = 0 if rng.random() < 0.5 else rng.getrandbits(num_bits)
        self.set_attributes(garbage)
        self.trace.record("summary-corrupt", node=str(self.node_id))

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(
        self,
        subject: str,
        payload: Any,
        publisher: Optional[str] = None,
        zone: Optional[ZonePath] = None,
        urgency: int = 5,
        wire_size: int = 1024,
        item_key: Optional[object] = None,
        zone_predicate: Optional[str] = None,
    ) -> Envelope:
        """Inject an item; returns the envelope (its key identifies it).

        ``zone`` restricts dissemination scope (§8); default is the
        root (everyone).  ``zone_predicate`` is an optional AQL
        expression each forwarding component evaluates against a child
        zone's aggregated row before forwarding into it (§8 future
        work).  The publisher name defaults to this node's id.
        """
        name = publisher if publisher is not None else str(self.node_id)
        target = zone if zone is not None else ZonePath()
        if item_key is None:
            self._publish_serial += 1
            item_key = ItemId(name, self._publish_serial)
        envelope = Envelope(
            item_key=item_key,
            payload=payload,
            publisher=name,
            subject=subject,
            hints=self.scheme.hints_for(subject, name),
            urgency=urgency,
            created_at=self.now,
            wire_size=wire_size,
            scope=target,
            zone_predicate=zone_predicate,
        )
        self._m_publishes.inc()
        self.trace.record(
            "publish",
            node=str(self.node_id),
            subject=subject,
            item=str(item_key),
            scope=str(target),
        )
        self.send_to_zone(target, envelope)
        return envelope

    def announce_publisher(self, name: str) -> None:
        """Export this node as a publisher (aggregated via UNION so any
        subscriber can discover available publishers at the root)."""
        current = self.get_attribute("publishers") or ()
        if name not in current:
            self.set_attribute("publishers", tuple(sorted((*current, name))))

    # ------------------------------------------------------------------
    # Selective forwarding hooks
    # ------------------------------------------------------------------

    def forward_filter(self, child: ZonePath, row: Row, envelope: Envelope) -> bool:
        self._m_bloom_tests.inc()
        matched = self.scheme.zone_may_match(row.mapping, envelope.hints)
        if matched:
            self._m_bloom_hits.inc()
        return matched

    def accept(self, envelope: Envelope) -> bool:
        """True when some subscription matches ``envelope``.

        The item's metadata is built only once a subject-matching
        subscription has a predicate to evaluate it against.
        """
        subject = envelope.subject
        metadata = None
        for subscription in self._subscriptions:
            if not subscription.matches_subject(subject):
                continue
            if subscription.predicate_source is None:
                return True
            if metadata is None:
                metadata = item_metadata(envelope)
            if subscription.admits(metadata, self._predicate_failed):
                return True
        return False

    def _predicate_failed(self) -> None:
        # Registered on first use, so error-free runs carry no counter.
        self.trace.metrics.counter("pubsub.predicate_errors").inc()

    def wants_repair(self, subject: str, hints: tuple) -> bool:
        wanted = self._repair_interest.get(subject)
        if wanted is None:
            wanted = self._repair_interest[subject] = any(
                s.matches_subject(subject) for s in self._subscriptions
            )
        return wanted
