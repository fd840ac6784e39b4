"""E10 — scoped publishing and predicate targeting (paper §8).

Claims: "A publisher is able to restrict the scope of the dissemination
of the data by selecting another zone than the root zone to publish
data into.  This for example allows the publisher to disseminate
localized news items in Asia."  And the future-work feature: "a
publisher could send some item only to premium subscribers" via
predicates over subscriber attributes.

Setup: a two-region population (/asia, /europe subtrees via top-level
zones).  Measured:

* **scope containment**: publishing into one top zone must deliver to
  0 subscribers outside it, with proportionally less traffic;
* **predicate targeting**: subscribers carrying a ``premium``
  predicate-bearing subscription receive premium-keyword items,
  ordinary subscribers on the same subject do not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.pubsub.subscription import Subscription
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    validate_positive,
    validate_seed,
)
from repro.experiments.registry import register


@dataclass(frozen=True)
class E10Row:
    case: str
    expected_receivers: int
    delivered_inside: int
    delivered_outside: int
    forwards: int


@dataclass
class E10Result(TableResult):
    rows: list[E10Row]

    title = "E10: scoped publishing and premium predicate targeting (§8)"
    columns = (
        ("case", "case"),
        ("expected", "expected_receivers"),
        ("inside", "delivered_inside"),
        ("outside (must be 0)", "delivered_outside"),
        ("forwards", "forwards"),
    )


@register(
    "e10",
    claim=(
        '"A publisher is able to restrict the scope of the dissemination '
        'of the data" — scoped publishing and predicates'
    ),
    quick={"num_nodes": 120},
)
def run_e10(*, num_nodes: int = 240, seed: int = 0) -> E10Result:
    validate_positive("num_nodes", num_nodes)
    validate_seed(seed)
    subject = "reuters/world"

    def subscriptions(index: int):
        # Every third subscriber is premium: their subscription's
        # predicate selects items carrying the 'premium' keyword too;
        # ordinary subscribers refuse premium-flagged items.
        if index % 3 == 0:
            return (Subscription(subject),)  # receives everything
        return (
            Subscription(subject, "NOT CONTAINS(keywords, 'premium')"),
        )

    system, _ = build_system(
        SystemSpec(
            num_nodes=num_nodes,
            subscriptions_for=subscriptions,
            publisher_names=("reuters",),
            seed=seed,
            config=NewsWireConfig(branching_factor=16),
            settle_rounds=2,
        )
    )
    publisher = system.publisher("reuters")

    def names(nodes) -> set[str]:
        return {str(node.node_id) for node in nodes}

    def case(name: str, headline: str, inside: set[str], **publish) -> E10Row:
        """Publish one item; count who got it inside and outside the
        set that should, and the forwards it cost."""
        marker = system.trace.count("forward")
        item_id = str(publisher.publish_news(subject, headline, **publish).item_id)
        system.run_for(30.0)
        delivered = [
            event["node"]
            for event in system.trace.events("deliver")
            if event.get("item") == item_id
        ]
        return E10Row(
            case=name,
            expected_receivers=len(inside),
            delivered_inside=sum(1 for node in delivered if node in inside),
            delivered_outside=sum(1 for node in delivered if node not in inside),
            forwards=system.trace.count("forward") - marker,
        )

    # Scoped publish goes into the publisher's own top zone; the premium
    # item must reach exactly the predicate-free (every third) subscribers.
    top_zone = ZonePath(publisher.node_id.labels[:1])
    return E10Result(
        [
            case("global", "global story", names(system.nodes)),
            case(
                f"scoped:{top_zone}", "regional story",
                names(n for n in system.nodes if top_zone.contains(n.node_id)),
                zone=top_zone,
            ),
            case(
                "premium-only", "premium story", names(system.nodes[::3]),
                keywords=("premium", "exclusive"),
            ),
        ]
    )


if __name__ == "__main__":
    print(run_e10().report())
