"""Tests for configuration validation."""

import pytest

from repro.core.config import (
    BloomConfig,
    CacheConfig,
    GossipConfig,
    MulticastConfig,
    NewsWireConfig,
)
from repro.core.errors import ConfigurationError


class TestGossipConfig:
    def test_defaults_valid(self):
        GossipConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("interval", 0.0), ("interval", -1.0),
        ("fanout", 0),
        ("jitter", -0.1),
        ("row_ttl_rounds", 2),
    ])
    def test_invalid_values(self, field, value):
        import dataclasses
        config = dataclasses.replace(GossipConfig(), **{field: value})
        with pytest.raises(ConfigurationError):
            config.validate()


class TestBloomConfig:
    def test_defaults_match_paper(self):
        """§6: ~1000 bits, one hash per subscription."""
        config = BloomConfig()
        assert config.num_bits == 1024
        assert config.num_hashes == 1
        config.validate()

    @pytest.mark.parametrize("kwargs", [
        {"num_bits": 0}, {"num_hashes": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            BloomConfig(**kwargs).validate()


class TestMulticastConfig:
    def test_defaults_valid(self):
        MulticastConfig().validate()

    def test_send_to_reps_bounded_by_reps(self):
        with pytest.raises(ConfigurationError):
            MulticastConfig(representatives=2, send_to_representatives=3).validate()

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            MulticastConfig(queue_strategy="lifo").validate()

    @pytest.mark.parametrize("kwargs", [
        {"representatives": 0},
        {"forwarding_delay": -0.1},
        {"max_send_rate": 0},
        {"repair_interval": 0},
        {"send_to_representatives": 0},
        {"repair_buffer_capacity": 0},
        {"cross_zone_repair_probability": 1.5},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MulticastConfig(**kwargs).validate()


class TestCacheAndPublisher:
    def test_cache_defaults(self):
        CacheConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0}, {"max_age": 0},
    ])
    def test_cache_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheConfig(**kwargs).validate()


class TestNewsWireConfig:
    def test_defaults_match_paper(self):
        """§3: zone tables limited to ~64 rows."""
        config = NewsWireConfig()
        assert config.branching_factor == 64
        config.validate()

    def test_branching_bounds(self):
        with pytest.raises(ConfigurationError):
            NewsWireConfig(branching_factor=1).validate()
        with pytest.raises(ConfigurationError):
            NewsWireConfig(branching_factor=2000).validate()

    def test_validate_recurses_into_subconfigs(self):
        config = NewsWireConfig(gossip=GossipConfig(interval=-1))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_with_options_returns_validated_copy(self):
        config = NewsWireConfig()
        other = config.with_options(branching_factor=8)
        assert other.branching_factor == 8
        assert config.branching_factor == 64  # original untouched

    def test_with_options_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            NewsWireConfig().with_options(branching_factor=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NewsWireConfig().branching_factor = 5  # type: ignore[misc]
