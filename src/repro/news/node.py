"""The NewsWire end-system node: subscriber, cache, optional publisher.

"Our publish-subscribe system is intended as a single application that
people can download and use to insert themselves into the
Collaborative Content Delivery Network" (§8).  Every
:class:`NewsWireNode` is a full participant — subscriber, forwarding
component, repair peer — and becomes a *publisher* when granted a
publisher certificate (§8's "restrictive set of rules": certificates
for authentication/authenticity, token-bucket flow control, and zone
scoping).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import NewsWireConfig
from repro.core.errors import (
    CertificateError,
    FlowControlError,
    PublishError,
)
from repro.core.identifiers import ItemId, NodeId, ZonePath
from repro.runtime.interface import Runtime
from repro.sim.trace import TraceLog
from repro.astrolabe.certificates import KeyChain, PublisherCertificate
from repro.multicast.messages import Envelope
from repro.news.cache import MessageCache
from repro.news.item import NewsItem
from repro.news.messages import StateTransferRequest, StateTransferResponse
from repro.pubsub.node import PubSubNode
from repro.pubsub.schemes import SubscriptionScheme


#: Recent items handed to a joining node by state transfer (§9's
#: "limited state transfer to participants that are joining").
STATE_TRANSFER_ITEMS = 50


class _TokenBucket:
    """Flow control for publishers: ``rate`` tokens/second, burst ``rate``."""

    def __init__(self, rate: float, now: float):
        self.rate = rate
        self.capacity = max(1.0, rate)
        self.tokens = self.capacity
        self.updated = now

    def try_take(self, now: float) -> bool:
        self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class NewsWireNode(PubSubNode):
    """A NewsWire participant (the downloadable application of §8)."""

    def __init__(
        self,
        node_id: NodeId,
        runtime: Runtime,
        config: NewsWireConfig,
        keychain: KeyChain,
        trace: Optional[TraceLog] = None,
        scheme: Optional[SubscriptionScheme] = None,
    ):
        super().__init__(node_id, runtime, config, keychain, trace, scheme)
        self.cache = MessageCache(self.config.cache)
        metrics = self.trace.metrics
        self._m_flow_control = metrics.counter("news.flow_control_rejects")
        self._m_auth_rejects = metrics.counter("news.auth_rejects")
        self._m_state_transfers = metrics.counter("news.state_transfer_items")
        self._m_cache_items = metrics.gauge("news.cache_items")
        self._credential: Optional[PublisherCertificate] = None
        self._publisher_secret: Optional[bytes] = None
        self._bucket: Optional[_TokenBucket] = None
        self._serial = 0

    def on_start(self) -> None:
        super().on_start()
        # Periodic cache garbage collection driven by item age.
        self.every(self.config.cache.max_age / 4, self._cache_gc)

    def _cache_gc(self) -> None:
        self.cache.gc(self.now)
        # Sampled at GC time: the deployment-wide gauge remembers the
        # largest per-node cache seen (high-water mark of §9's cache).
        self._m_cache_items.set(len(self.cache))

    # ------------------------------------------------------------------
    # Publisher role (§8)
    # ------------------------------------------------------------------

    @property
    def publisher_name(self) -> Optional[str]:
        return self._credential.publisher if self._credential is not None else None

    def grant_publisher(self, credential: PublisherCertificate) -> None:
        """Install a publisher certificate (verifies against the PKI).

        The publisher's signing secret comes from the keychain — the
        granting authority registered the publisher principal there.
        """
        credential.verify(self.keychain)
        self._credential = credential
        self._publisher_secret = self.keychain.secret_for(credential.publisher)
        self._bucket = _TokenBucket(credential.max_rate, self.now)
        self.announce_publisher(credential.publisher)

    def publish_news(
        self,
        subject: str,
        headline: str,
        body: str = "",
        categories: tuple[str, ...] = (),
        keywords: tuple[str, ...] = (),
        urgency: int = 5,
        zone: Optional[ZonePath] = None,
        zone_predicate: Optional[str] = None,
    ) -> NewsItem:
        """Inject a fresh story.  Enforces the §8 restrictions.

        Raises :class:`PublishError` without a credential,
        :class:`FlowControlError` beyond the certified rate, and
        :class:`CertificateError` when targeting a zone outside the
        certificate's scope.
        """
        item = self._make_item(subject, headline, body, categories, keywords, urgency)
        return self._inject(item, zone, zone_predicate)

    def publish_revision(
        self, previous: NewsItem, headline: Optional[str] = None,
        body: Optional[str] = None, zone: Optional[ZonePath] = None,
        zone_predicate: Optional[str] = None,
    ) -> NewsItem:
        """Publish the next revision of an existing story (§9's
        revision history drives cache fusion downstream)."""
        self._check_credential(previous.publisher)
        item = previous.revised(
            headline=headline, body=body, published_at=self.now
        )
        return self._inject(item, zone, zone_predicate)

    def _make_item(
        self,
        subject: str,
        headline: str,
        body: str,
        categories: tuple[str, ...],
        keywords: tuple[str, ...],
        urgency: int,
    ) -> NewsItem:
        name = self._check_credential(None)
        self._serial += 1
        return NewsItem(
            item_id=ItemId(name, self._serial),
            subject=subject,
            headline=headline,
            body=body,
            publisher=name,
            categories=categories,
            keywords=keywords,
            urgency=urgency,
            published_at=self.now,
        )

    def _check_credential(self, publisher: Optional[str]) -> str:
        if self._credential is None:
            raise PublishError(f"{self.node_id} holds no publisher certificate")
        if publisher is not None and publisher != self._credential.publisher:
            raise PublishError(
                f"credential is for {self._credential.publisher!r}, "
                f"cannot publish as {publisher!r}"
            )
        return self._credential.publisher

    def _inject(
        self,
        item: NewsItem,
        zone: Optional[ZonePath],
        zone_predicate: Optional[str] = None,
    ) -> NewsItem:
        """Sign and disseminate; returns the item as actually published."""
        target = zone if zone is not None else ZonePath()
        # Both callers passed _check_credential, so grant_publisher has
        # installed the credential, its bucket and its signing secret.
        assert self._bucket is not None and self._publisher_secret is not None
        if not self._credential.allows_zone(target):
            raise CertificateError(
                f"certificate scope {self._credential.scope} does not "
                f"allow publishing into {target}"
            )
        if not self._bucket.try_take(self.now):
            self._m_flow_control.inc()
            self.trace.record(
                "flow-control", publisher=item.publisher, item=str(item.item_id)
            )
            raise FlowControlError(
                f"publisher {item.publisher!r} exceeded its certified rate"
            )
        item = item.signed(self._publisher_secret)
        self.publish(
            item.subject,
            item,
            publisher=item.publisher,
            zone=target,
            urgency=item.urgency,
            wire_size=item.wire_size(),
            item_key=item.item_id,
            zone_predicate=zone_predicate,
        )
        return item

    # ------------------------------------------------------------------
    # Delivery into the cache (§9)
    # ------------------------------------------------------------------

    def on_deliver(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if not isinstance(payload, NewsItem):
            return
        if not self._authentic(payload):
            self._m_auth_rejects.inc()
            self.trace.record(
                "auth-rejected", node=str(self.node_id), item=str(payload.item_id)
            )
            return
        self.cache.insert(payload, self.now)

    def _authentic(self, item: NewsItem) -> bool:
        """Verify the publisher signature against the keychain."""
        if item.publisher not in self.keychain:
            return False
        try:
            return item.verify_signature(self.keychain.secret_for(item.publisher))
        except CertificateError:
            return False

    # ------------------------------------------------------------------
    # Joining: state transfer from a running member (§9)
    # ------------------------------------------------------------------

    def request_state_transfer(self, peer: NodeId) -> None:
        subjects = tuple(sorted({s.subject for s in self.subscriptions}))
        self.send(
            peer,
            StateTransferRequest(subjects, STATE_TRANSFER_ITEMS),
        )

    def on_message(self, sender: NodeId, message: Any) -> None:
        if isinstance(message, StateTransferRequest):
            self._handle_state_request(sender, message)
        elif isinstance(message, StateTransferResponse):
            self._handle_state_response(message)
        else:
            super().on_message(sender, message)

    def _handle_state_request(
        self, sender: NodeId, message: StateTransferRequest
    ) -> None:
        wanted = set(message.subjects)
        items = tuple(
            item
            for item in self.cache.recent(len(self.cache))
            if item.subject in wanted
        )[-message.limit:]
        if items:
            self.send(sender, StateTransferResponse(items))

    def _handle_state_response(self, message: StateTransferResponse) -> None:
        for item in message.items:
            if self._authentic(item) and self.cache.insert(item, self.now):
                self._m_state_transfers.inc()
                self.trace.record(
                    "state-transfer", node=str(self.node_id), item=str(item.item_id)
                )
                # Mark as delivered so repair does not re-pull it.
                self.delivered.add(
                    item.item_id,
                    Envelope(
                        item_key=item.item_id,
                        payload=item,
                        publisher=item.publisher,
                        subject=item.subject,
                        hints=self.scheme.hints_for(item.subject, item.publisher),
                        urgency=item.urgency,
                        created_at=item.published_at,
                        wire_size=item.wire_size(),
                    ),
                )
