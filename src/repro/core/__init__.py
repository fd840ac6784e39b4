"""Core building blocks: identifiers, filters, masks, configuration."""

from repro.core.bitmask import CategoryMask, CategoryRegistry
from repro.core.bloom import (
    BloomFilter,
    CountingBloomFilter,
    bit_positions,
    positions_mask,
)
from repro.core.config import (
    BloomConfig,
    CacheConfig,
    GossipConfig,
    MulticastConfig,
    NewsWireConfig,
    QUEUE_STRATEGIES,
)
from repro.core.errors import (
    AggregationError,
    AqlEvaluationError,
    AqlSyntaxError,
    CacheError,
    CertificateError,
    ConfigurationError,
    FlowControlError,
    NetworkError,
    NewsWireError,
    PublishError,
    SimulationError,
    SubscriptionError,
    ZoneError,
)
from repro.core.identifiers import ROOT, ItemId, NodeId, ZonePath

__all__ = [
    "AggregationError",
    "AqlEvaluationError",
    "AqlSyntaxError",
    "BloomConfig",
    "BloomFilter",
    "CacheConfig",
    "CacheError",
    "CategoryMask",
    "CategoryRegistry",
    "CertificateError",
    "ConfigurationError",
    "CountingBloomFilter",
    "FlowControlError",
    "GossipConfig",
    "ItemId",
    "MulticastConfig",
    "NetworkError",
    "NewsWireConfig",
    "NewsWireError",
    "NodeId",
    "PublishError",
    "QUEUE_STRATEGIES",
    "ROOT",
    "SimulationError",
    "SubscriptionError",
    "ZoneError",
    "ZonePath",
    "bit_positions",
    "positions_mask",
]
