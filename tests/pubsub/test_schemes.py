"""Tests for the Bloom and publisher-mask subscription schemes."""

import pytest

from repro.core.config import BloomConfig
from repro.core.errors import ConfigurationError, SubscriptionError
from repro.astrolabe.aql import AqlProgram
from repro.astrolabe.certificates import KeyChain
from repro.pubsub.schemes import (
    SCHEME_NAMES,
    BloomScheme,
    PublisherMaskScheme,
    StabilizingScheme,
    SubgroupScheme,
    categories_registry,
    scheme_by_name,
)
from repro.pubsub.subscription import Subscription


class TestBloomScheme:
    def setup_method(self):
        self.scheme = BloomScheme(BloomConfig(num_bits=512, num_hashes=1))

    def test_leaf_attributes_encode_subjects(self):
        attrs = self.scheme.leaf_attributes([Subscription("tech")])
        hints = self.scheme.hints_for("tech", "pub")
        assert all((attrs["subs"] >> p) & 1 for p in hints)

    def test_no_subscriptions_empty_filter(self):
        assert self.scheme.leaf_attributes(()) == {"subs": 0}

    def test_zone_may_match_true_when_bit_set(self):
        attrs = self.scheme.leaf_attributes([Subscription("tech")])
        hints = self.scheme.hints_for("tech", "pub")
        assert self.scheme.zone_may_match(attrs, hints)

    def test_zone_may_match_false_when_unset(self):
        attrs = self.scheme.leaf_attributes([Subscription("tech")])
        hints = self.scheme.hints_for("something-else", "pub")
        assert not self.scheme.zone_may_match(attrs, hints)

    def test_missing_attribute_fails_open(self):
        hints = self.scheme.hints_for("tech", "pub")
        assert self.scheme.zone_may_match({}, hints)

    def test_aggregation_source_parses_and_ors(self):
        program = AqlProgram(self.scheme.aggregation_source())
        rows = [{"subs": 0b01, "publishers": ("a",)},
                {"subs": 0b10, "publishers": ("b",)}]
        result = program.evaluate(rows)
        assert result["subs"] == 0b11
        assert result["publishers"] == ("a", "b")

    def test_certificate_verifies(self):
        keychain = KeyChain()
        keychain.register("admin")
        cert = self.scheme.certificate(keychain)
        cert.verify(keychain)
        assert cert.name == "pubsub"

    def test_predicate_subscriptions_share_subject_bit(self):
        plain = self.scheme.leaf_attributes([Subscription("tech")])
        predicated = self.scheme.leaf_attributes(
            [Subscription("tech", "urgency <= 3")]
        )
        assert plain == predicated  # in-network state is subject-only


class TestPublisherMaskScheme:
    def setup_method(self):
        self.registries = categories_registry(
            {"slashdot": ["tech", "games"], "wired": ["tech", "culture"]}
        )
        self.scheme = PublisherMaskScheme(self.registries)

    def test_requires_registries(self):
        with pytest.raises(SubscriptionError):
            PublisherMaskScheme({})

    def test_split_subject(self):
        assert PublisherMaskScheme.split_subject("a/b") == ("a", "b")
        with pytest.raises(SubscriptionError):
            PublisherMaskScheme.split_subject("nodash")

    def test_leaf_attributes_per_publisher(self):
        attrs = self.scheme.leaf_attributes(
            [Subscription("slashdot/tech"), Subscription("wired/culture")]
        )
        assert attrs["pub_slashdot"] != 0
        assert attrs["pub_wired"] != 0

    def test_unknown_publisher_rejected(self):
        with pytest.raises(SubscriptionError):
            self.scheme.leaf_attributes([Subscription("nyt/world")])
        with pytest.raises(SubscriptionError):
            self.scheme.hints_for("nyt/world", "nyt")

    def test_exact_matching_no_false_positives(self):
        attrs = self.scheme.leaf_attributes([Subscription("slashdot/tech")])
        assert self.scheme.zone_may_match(
            attrs, self.scheme.hints_for("slashdot/tech", "slashdot")
        )
        assert not self.scheme.zone_may_match(
            attrs, self.scheme.hints_for("slashdot/games", "slashdot")
        )
        assert not self.scheme.zone_may_match(
            attrs, self.scheme.hints_for("wired/tech", "wired")
        )

    def test_aggregation_source_covers_all_publishers(self):
        source = self.scheme.aggregation_source()
        assert "pub_slashdot" in source and "pub_wired" in source
        program = AqlProgram(source)
        rows = [
            self.scheme.leaf_attributes([Subscription("slashdot/tech")]),
            self.scheme.leaf_attributes([Subscription("wired/culture")]),
        ]
        merged = program.evaluate(rows)
        assert self.scheme.zone_may_match(
            merged, self.scheme.hints_for("slashdot/tech", "slashdot")
        )
        assert self.scheme.zone_may_match(
            merged, self.scheme.hints_for("wired/culture", "wired")
        )

    def test_missing_publisher_attribute_fails_open(self):
        hints = self.scheme.hints_for("slashdot/tech", "slashdot")
        assert self.scheme.zone_may_match({}, hints)


class TestSchemeLadder:
    """One name -> scheme table for E12, the testkit and the fuzzer."""

    def test_every_rung_builds_its_scheme_over_the_given_geometry(self):
        config = BloomConfig(num_bits=256, num_hashes=2)
        built = {name: scheme_by_name(name, config) for name in SCHEME_NAMES}
        assert list(built) == [
            "bloom", "subgroup", "stabilizing-bloom", "stabilizing-subgroup",
        ]
        assert type(built["bloom"]) is BloomScheme
        assert type(built["subgroup"]) is SubgroupScheme
        for name, flat in (("stabilizing-bloom", BloomScheme),
                           ("stabilizing-subgroup", SubgroupScheme)):
            assert type(built[name]) is StabilizingScheme
            assert type(built[name].inner) is flat
            assert built[name].stabilizes and not built[name].inner.stabilizes
        assert built["bloom"].config is config

    def test_unknown_name_is_a_configuration_error_everywhere(self):
        from repro.experiments.e12_routing import run_e12_cell

        with pytest.raises(ConfigurationError, match="nope.*stabilizing-subgroup"):
            scheme_by_name("nope", BloomConfig())
        with pytest.raises(ConfigurationError, match="unknown scheme 'nope'"):
            run_e12_cell(scheme="nope")  # a ValueError before the ladders merged
