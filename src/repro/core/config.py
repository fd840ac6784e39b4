"""Deployment configuration for a NewsWire system.

A single :class:`NewsWireConfig` travels from the top-level builder
down into every subsystem so that experiments can sweep one knob
(branching factor, gossip interval, Bloom size, representative count,
queue strategy...) without touching protocol code.  Section 8 of the
paper: "A user will have access to a set of configuration parameters
that provides input into the selection process."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.errors import ConfigurationError

#: Queue fill strategies for forwarding components (paper §9: "We are
#: experimenting with weighted round-robin strategies, as well as some
#: more aggressive techniques").
QUEUE_STRATEGIES = ("fifo", "weighted_rr", "urgency_first", "shortest_queue")


@dataclass(frozen=True)
class GossipConfig:
    """Epidemic-protocol timing and fan-out."""

    #: Seconds between gossip rounds at each agent.  The paper's
    #: "within tens of seconds" figures assume rounds of a few seconds.
    interval: float = 2.0
    #: Gossip partners contacted per round per zone level.
    fanout: int = 1
    #: Random extra delay applied to each agent's first round so the
    #: population desynchronises (avoids lock-step artefacts).
    jitter: float = 1.0
    #: Rows not refreshed for this many gossip intervals are expired —
    #: how crashed members leave zone tables ("automatic zone
    #: reconfiguration", §10).
    row_ttl_rounds: int = 15

    def validate(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("gossip interval must be positive")
        if self.fanout <= 0:
            raise ConfigurationError("gossip fanout must be positive")
        if self.jitter < 0:
            raise ConfigurationError("gossip jitter must be >= 0")
        if self.row_ttl_rounds < 3:
            raise ConfigurationError("row_ttl_rounds must be >= 3")


@dataclass(frozen=True)
class BloomConfig:
    """Geometry of the subscription Bloom filter (paper §6)."""

    #: "a large single bit array in the order of a thousand bits or more"
    num_bits: int = 1024
    #: "a subscription is hashed to a single bit in the array"
    num_hashes: int = 1

    def validate(self) -> None:
        if self.num_bits <= 0:
            raise ConfigurationError("bloom num_bits must be positive")
        if self.num_hashes <= 0:
            raise ConfigurationError("bloom num_hashes must be positive")


@dataclass(frozen=True)
class MulticastConfig:
    """Representative selection and forwarding behaviour (paper §5, §9)."""

    #: Representatives elected per zone; >1 gives the redundant
    #: forwarding of §9 (duplicates removed via item ids).
    representatives: int = 2
    #: How many of a child zone's representatives each forwarder sends
    #: to (1 = pick one; == representatives = full redundancy).
    send_to_representatives: int = 1
    #: Per-hop processing delay at a forwarding component, seconds.
    forwarding_delay: float = 0.05
    #: Queue fill strategy; one of :data:`QUEUE_STRATEGIES`.
    queue_strategy: str = "weighted_rr"
    #: Outgoing items a forwarder may transmit per second (flow control).
    max_send_rate: float = 500.0
    #: Enable bimodal-multicast-style anti-entropy repair from caches.
    repair_enabled: bool = True
    #: Seconds between repair (anti-entropy digest) rounds.
    repair_interval: float = 4.0
    #: Recently delivered items kept available for repair pulls.
    repair_buffer_capacity: int = 256
    #: Probability that a repair round gossips with a peer outside the
    #: leaf zone (lets items hop into zones the tree missed entirely).
    cross_zone_repair_probability: float = 0.2

    def validate(self) -> None:
        if self.representatives <= 0:
            raise ConfigurationError("representatives must be positive")
        if not 1 <= self.send_to_representatives <= self.representatives:
            raise ConfigurationError(
                "send_to_representatives must be in [1, representatives]"
            )
        if self.forwarding_delay < 0:
            raise ConfigurationError("forwarding_delay must be >= 0")
        if self.queue_strategy not in QUEUE_STRATEGIES:
            raise ConfigurationError(
                f"unknown queue strategy {self.queue_strategy!r}; "
                f"expected one of {QUEUE_STRATEGIES}"
            )
        if self.max_send_rate <= 0:
            raise ConfigurationError("max_send_rate must be positive")
        if self.repair_interval <= 0:
            raise ConfigurationError("repair_interval must be positive")
        if self.repair_buffer_capacity <= 0:
            raise ConfigurationError("repair_buffer_capacity must be positive")
        if not 0.0 <= self.cross_zone_repair_probability <= 1.0:
            raise ConfigurationError(
                "cross_zone_repair_probability must be in [0, 1]"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Subscriber message cache management (paper §9)."""

    #: Maximum items retained before garbage collection.
    capacity: int = 1000
    #: Items older than this many seconds are GC-eligible.
    max_age: float = 3600.0

    def validate(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if self.max_age <= 0:
            raise ConfigurationError("cache max_age must be positive")


@dataclass(frozen=True)
class NewsWireConfig:
    """Everything a NewsWire deployment needs, in one immutable value."""

    #: Zone table size limit — "each of these tables is limited to some
    #: small size (say, 64 rows)" (§3).
    branching_factor: int = 64
    gossip: GossipConfig = field(default_factory=GossipConfig)
    bloom: BloomConfig = field(default_factory=BloomConfig)
    multicast: MulticastConfig = field(default_factory=MulticastConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)

    def validate(self) -> "NewsWireConfig":
        if not 2 <= self.branching_factor <= 1024:
            raise ConfigurationError("branching_factor must be in [2, 1024]")
        self.gossip.validate()
        self.bloom.validate()
        self.multicast.validate()
        self.cache.validate()
        return self

    def with_options(self, **overrides: Any) -> "NewsWireConfig":
        """Copy with top-level fields replaced (sub-configs included)."""
        return replace(self, **overrides).validate()
