"""Tests for subscriber interest models."""

import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.populations import InterestModel, zipf_weights

SUBJECTS = [f"s{i}" for i in range(10)]


class TestZipfWeights:
    def test_decreasing(self):
        weights = zipf_weights(5, 1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_zero_exponent_is_uniform(self):
        assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0)
        with pytest.raises(ConfigurationError):
            zipf_weights(3, -1.0)


class TestInterestModel:
    def test_deterministic_per_index(self):
        model = InterestModel(SUBJECTS, subscriptions_per_node=3, seed=1)
        other = InterestModel(SUBJECTS, subscriptions_per_node=3, seed=1)
        assert model.subscriptions_for(5) == other.subscriptions_for(5)

    def test_distinct_subjects_per_node(self):
        model = InterestModel(SUBJECTS, subscriptions_per_node=4, seed=1)
        subs = model.subscriptions_for(0)
        assert len({s.subject for s in subs}) == 4

    def test_count_clamped_to_universe(self):
        model = InterestModel(["only"], subscriptions_per_node=5, seed=1)
        assert len(model.subscriptions_for(0)) == 1

    def test_zipf_skews_popularity(self):
        model = InterestModel(SUBJECTS, subscriptions_per_node=1,
                              zipf_exponent=1.5, seed=1)
        counts = model.subscriber_counts(500)
        assert counts["s0"] > counts["s9"] * 3

    def test_subscriber_counts_sum(self):
        model = InterestModel(SUBJECTS, subscriptions_per_node=2, seed=1)
        counts = model.subscriber_counts(100)
        assert sum(counts.values()) == 200

    def test_expected_receivers(self):
        model = InterestModel(SUBJECTS, subscriptions_per_node=2, seed=1)
        for subject in SUBJECTS[:3]:
            expected = model.expected_receivers(50, subject)
            manual = sum(
                1 for index in range(50)
                if any(s.subject == subject
                       for s in model.subscriptions_for(index))
            )
            assert expected == manual

    def test_predicates_attached_probabilistically(self):
        model = InterestModel(SUBJECTS, subscriptions_per_node=2,
                              predicate_probability=1.0, seed=1)
        subs = model.subscriptions_for(0)
        assert all(s.predicate_source is not None for s in subs)

    def test_predicate_free_interest_sets_are_shared(self):
        model = InterestModel(SUBJECTS[:3], subscriptions_per_node=2, seed=1)
        drawn = [model.subscriptions_for(index) for index in range(200)]
        # Equal draws are one object, so a population holds at most
        # P(3, 2) = 6 tuples however many nodes it has.
        assert len({id(subs) for subs in drawn}) == len(set(drawn)) <= 6
        mixed = InterestModel(SUBJECTS[:3], subscriptions_per_node=2,
                              predicate_probability=0.5, seed=1)
        sources = {
            s.predicate_source
            for index in range(200)
            for s in mixed.subscriptions_for(index)
        }
        assert None in sources and len(sources) > 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InterestModel([], subscriptions_per_node=1)
        with pytest.raises(ConfigurationError):
            InterestModel(SUBJECTS, subscriptions_per_node=0)
        with pytest.raises(ConfigurationError):
            InterestModel(SUBJECTS, predicate_probability=2.0)

    def test_no_stream_collision_across_shift_boundary(self):
        # Regression: the old per-node derivation (seed << 20) ^ index
        # made (seed=0, index=2**20) and (seed=1, index=0) share a
        # stream, so huge populations repeated earlier populations'
        # subscription draws.  The pairs must now differ.
        low_seed = InterestModel(
            SUBJECTS, subscriptions_per_node=3, zipf_exponent=1.2, seed=0
        )
        high_seed = InterestModel(
            SUBJECTS, subscriptions_per_node=3, zipf_exponent=1.2, seed=1
        )
        assert low_seed.subscriptions_for(2**20) != high_seed.subscriptions_for(0)

    def test_streams_distinct_on_seed_index_grid(self):
        # Many (seed, index) pairs, indices straddling 2**20: draws
        # should all differ (10 choose-3 sets of subjects + predicate
        # coin flips make accidental equality effectively impossible).
        draws = set()
        pairs = 0
        for seed in range(4):
            model = InterestModel(
                SUBJECTS,
                subscriptions_per_node=3,
                zipf_exponent=1.2,
                predicate_probability=0.5,
                seed=seed,
            )
            for index in (0, 1, 2**20 - 1, 2**20, 2**20 + 1):
                draws.add(tuple(model.subscriptions_for(index)))
                pairs += 1
        assert len(draws) == pairs
