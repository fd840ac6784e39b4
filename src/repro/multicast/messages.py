"""Wire messages of the application-level multicast (paper §5, §9)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Tuple

from repro.core.identifiers import ZonePath

#: Routing hints a publisher attaches so forwarding nodes can run the
#: selective-forwarding test without understanding the payload:
#: for the Bloom scheme the subject's bit positions, for the prototype
#: bitmask scheme the (publisher, category-mask) pair.
RoutingHints = Tuple[Any, ...]


@dataclass(frozen=True)
class Envelope:
    """A published item as it travels through forwarding components.

    ``item_key`` uniquely identifies the item (publisher-assigned, §9);
    ``created_at`` is the publish time used for latency measurements;
    ``scope`` is the zone the publisher restricted dissemination to
    (§8) — enforced at delivery and during epidemic repair, not just by
    the tree walk, so scoped items cannot leak via the repair channel.

    ``zone_predicate`` implements §8's future-work feature: an AQL
    expression "evaluated using the attribute values of a child zone
    before it can be forwarded to that zone".  Forwarding components
    compile it once (cached by source text) and apply it to each child
    zone's aggregated row in addition to the subscription filter —
    e.g. ``"nmembers >= 10"`` to skip tiny zones, or a test against a
    custom aggregated attribute such as ``"BIT(premium_subs, 3)"``.
    """

    item_key: Hashable
    payload: Any
    publisher: str
    subject: str
    hints: RoutingHints = ()
    urgency: int = 5
    created_at: float = 0.0
    wire_size: int = 1024
    scope: ZonePath = ZonePath()
    zone_predicate: Optional[str] = None

    @property
    def repair_entry(self) -> tuple:
        """``(item_key, subject, hints, scope)``, as a repair digest
        lists this envelope: built once, so every node holding the
        envelope shares it."""
        entry = self.__dict__.get("_repair_entry")
        if entry is None:
            entry = (self.item_key, self.subject, self.hints, self.scope)
            object.__setattr__(self, "_repair_entry", entry)
        return entry

    def __getstate__(self) -> dict:
        # The cached entry stays off the wire.
        state = self.__dict__
        if "_repair_entry" in state:
            state = dict(state)
            del state["_repair_entry"]
        return state


@dataclass
class ForwardMsg:
    """Carry ``envelope`` toward/into ``zone`` (SendToZone recursion).

    ``hop`` counts network hops from the publisher (the publisher's own
    forwards carry 1); it rides along so receivers can stamp causal
    trace events (`docs/OBSERVABILITY.md`, causal tracing) without the
    analysis layer having to guess tree depth.
    """

    zone: ZonePath
    envelope: Envelope
    hop: int = 1
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_size = 48 + self.envelope.wire_size


@dataclass
class RepairDigest:
    """Anti-entropy advertisement of recently delivered items.

    Entries carry the routing hints and the item's scope so the
    receiver can decide whether a missing item is *wanted* — and
    whether it is even allowed to have it — before pulling it.
    """

    #: (item_key, subject, hints, scope)
    entries: tuple[tuple[Hashable, str, RoutingHints, ZonePath], ...]
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_size = 24 + 48 * len(self.entries)


@dataclass
class RepairRequest:
    keys: tuple[Hashable, ...]
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_size = 24 + 24 * len(self.keys)


@dataclass
class RepairResponse:
    envelopes: tuple[Envelope, ...]
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_size = 24 + sum(env.wire_size for env in self.envelopes)
