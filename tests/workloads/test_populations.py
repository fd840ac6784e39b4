"""Tests for subscriber interest models."""

import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.pubsub.subscription import Subscription
from repro.sim.rng import derive_substream
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
        counts = Counter(
            s.subject for index in range(500) for s in model.subscriptions_for(index)
        )
        assert counts["s0"] > counts["s9"] * 3

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

    def test_weights_without_a_finite_total_are_refused_at_construction(self):
        # A NaN exponent passes the sign check but makes every weight
        # past the first NaN; random.choices refused it on each draw.
        with pytest.raises(ConfigurationError, match="positive finite total"):
            InterestModel(SUBJECTS, zipf_exponent=float("nan"))

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


def reference_draw(model, index):
    """The per-node rule as ``random.choices`` states it: a fresh
    generator on the ``(seed, index)`` substream per node, one
    ``choices`` call per subject draw, then one coin flip per subject."""
    rng = random.Random(derive_substream(model.seed, index))
    subjects = list(model.subjects)
    cum_weights = list(accumulate(zipf_weights(len(subjects), model.zipf_exponent)))
    count = min(model.subscriptions_per_node, len(subjects))
    picked = []
    while len(picked) < count:
        subject = rng.choices(subjects, cum_weights=cum_weights, k=1)[0]
        if subject not in picked:
            picked.append(subject)
    predicates = [
        f"urgency <= {rng.randint(4, 7)}"
        if rng.random() < model.predicate_probability
        else None
        for _ in picked
    ]
    return tuple(map(Subscription, picked, predicates))


models = st.builds(
    InterestModel,
    subjects=st.integers(1, 12).map(lambda n: [f"s{i}" for i in range(n)]),
    subscriptions_per_node=st.integers(1, 5),
    zipf_exponent=st.floats(0.0, 2.0),
    predicate_probability=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**64),
)


class TestDrawDifferential:
    @given(
        model=models,
        prepared=st.integers(0, 40),
        indices=st.lists(st.integers(0, 60), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_choices_rule(self, model, prepared, indices):
        # Unprepared draws first, then prepared ones, then the indices
        # beyond the prepared range.
        for index in indices:
            assert model.subscriptions_for(index) == reference_draw(model, index)
        model.prepare(prepared)
        for index in list(range(prepared)) + indices + [2**20 + prepared]:
            assert model.subscriptions_for(index) == reference_draw(model, index)

    @given(model=models)
    @settings(max_examples=50, deadline=None)
    def test_prepare_extends_without_redrawing(self, model):
        model.prepare(10)
        head = [model.subscriptions_for(index) for index in range(10)]
        model.prepare(25)
        model.prepare(5)
        assert [model.subscriptions_for(index) for index in range(10)] == head
        for index in range(25):
            assert model.subscriptions_for(index) == reference_draw(model, index)

    def test_equal_draws_share_one_tuple_prepared_or_not(self):
        prepared = InterestModel(SUBJECTS[:3], subscriptions_per_node=2, seed=4)
        prepared.prepare(150)
        drawn = [prepared.subscriptions_for(index) for index in range(300)]
        by_value = {}
        for subscriptions in drawn:
            assert by_value.setdefault(subscriptions, subscriptions) is subscriptions
        assert len(by_value) <= 6

