"""MembershipColumns: zone arithmetic and interest masks must agree
with the object backend's balanced deployment, digit for digit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.astrolabe.deployment import balanced_layout, balanced_paths
from repro.core.bloom import bit_positions, positions_mask
from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.pubsub import schemes
from repro.pubsub.schemes import BloomScheme
from repro.pubsub.subscription import Subscription
from repro.scale.backend import build_columnar
from repro.scale.columns import MembershipColumns
from repro.workloads.populations import InterestModel


class TestZoneArithmetic:
    @pytest.mark.parametrize("num_nodes", [1, 7, 48, 96, 300, 5000])
    def test_node_paths_match_balanced_paths(self, num_nodes):
        columns = MembershipColumns(num_nodes, branching=64)
        paths = balanced_paths(num_nodes, 64)
        for index in range(num_nodes):
            assert columns.node_path(index) == str(paths[index])

    def test_layout_matches_balanced_layout(self):
        for num_nodes in (1, 48, 96, 5000, 100_000):
            levels, width = balanced_layout(num_nodes, 64)
            columns = MembershipColumns(num_nodes, branching=64)
            assert (columns.levels, columns.width) == (levels, width)

    def test_zone_of_is_prefix_of_leaf_zone(self):
        columns = MembershipColumns(5000, branching=8)
        for index in (0, 17, 4999):
            leaf = columns.leaf_zone(index)
            assert index in columns.leaf_members(leaf)
            for depth in range(columns.levels):
                zone = columns.zone_of(index, depth)
                assert index in columns.zone_members(depth, zone)
                # The ancestor chain is consistent: each zone's children
                # at the next depth include the deeper ancestor.
                if depth + 1 < columns.levels:
                    assert columns.zone_of(index, depth + 1) in columns.children(
                        depth, zone
                    )

    def test_children_partition_every_depth(self):
        columns = MembershipColumns(300, branching=8)
        for depth in range(columns.levels - 1):
            seen = []
            for zone in range(columns.zone_counts[depth]):
                seen.extend(columns.children(depth, zone))
            assert seen == list(range(columns.zone_counts[depth + 1]))

    def test_representatives_first_members_per_leaf_zone(self):
        columns = MembershipColumns(300, branching=8, representatives=2)
        for zone in range(columns.leaf_zone_count):
            members = list(columns.leaf_members(zone))
            flagged = [i for i in members if columns.representative[i]]
            assert flagged == members[: min(2, len(members))]

    def test_representatives_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MembershipColumns(10, branching=8, representatives=0)


class TestInterestMasks:
    def test_node_mask_equals_scheme_leaf_attributes(self):
        """The columnar OR-of-positions mask is bit-identical to the
        BloomFilter the object backend installs per leaf."""
        scheme = BloomScheme()
        subscriptions = [
            Subscription("newswire/tech/ai"),
            Subscription("newswire/markets"),
            Subscription("newswire/tech/ai"),  # duplicates collapse
        ]
        system = build_columnar(4, subscriptions_for=lambda i: subscriptions)
        expected = scheme.leaf_attributes(subscriptions)["subs"]
        for index in range(4):
            assert system.columns.interest[index] == expected

    def test_aggregates_fold_bottom_up(self):
        system = build_columnar(
            300,
            subscriptions_for=lambda i: [Subscription(f"s/{i % 5}")],
        )
        columns = system.columns
        for depth in range(columns.levels):
            for zone in range(columns.zone_counts[depth]):
                mask, count = columns.recompute_zone(depth, zone)
                assert columns.agg_subs[depth][zone] == mask
                assert columns.agg_count[depth][zone] == count
        # Root count covers everyone at time zero.
        assert columns.agg_count[0][0] == 300

    def test_build_hashes_each_subject_once_and_shares_class_masks(self, monkeypatch):
        calls = []
        real = schemes.bit_positions

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(schemes, "bit_positions", counting)
        model = InterestModel([f"s/{k}" for k in range(6)], subscriptions_per_node=3)
        system = build_columnar(2000, subscriptions_for=model.subscriptions_for)
        columns = system.columns
        assert len(calls) <= 6  # one per distinct subject, not per (node, subject)
        assert len({id(mask) for mask in columns.interest}) <= 120  # P(6, 3) classes
        first = {}
        for subjects, mask in zip(columns.subjects, columns.interest):
            shared_subjects, shared_mask = first.setdefault(subjects, (subjects, mask))
            assert shared_subjects is subjects and shared_mask is mask

    def test_carrier_prefers_representative_then_first_alive(self):
        columns = MembershipColumns(16, branching=4, representatives=1)
        zone = 0
        members = list(columns.leaf_members(zone))
        assert columns.carrier_for(columns.leaf_depth, zone) == members[0]
        columns.alive[members[0]] = 0
        # Representative dead: first alive member wins.
        assert columns.carrier_for(columns.leaf_depth, zone) == members[1]
        for index in members:
            columns.alive[index] = 0
        assert columns.carrier_for(columns.leaf_depth, zone) is None


class TestUnsupportedSubscriptions:
    """The columnar leaf match is an exact subject id: a predicate or a
    wildcard would silently change who receives what, so both refuse."""

    CASES = [
        (Subscription("s", "urgency <= 4"), "subscription predicates"),
        (Subscription("s/*"), "wildcard subjects"),
    ]

    @pytest.mark.parametrize("subscription, feature", CASES)
    def test_build_refuses(self, subscription, feature):
        with pytest.raises(ConfigurationError, match=f"{feature}.*backend='object'"):
            build_columnar(4, subscriptions_for=lambda i: [subscription])

    @pytest.mark.parametrize("subscription, feature", CASES)
    def test_subscribe_refuses(self, subscription, feature):
        system = build_columnar(4, subscriptions_for=lambda i: [Subscription("s")])
        before = (system.columns.subjects[1], system.columns.interest[1])
        with pytest.raises(ConfigurationError, match=f"{feature}.*backend='object'"):
            system.subscribe(1, subscription)
        assert (system.columns.subjects[1], system.columns.interest[1]) == before
        assert system.trace.count("subscribe") == 0


SUBJECTS = ("a", "b/c", "d", "e/f/g", "h")
LATE_SUBJECTS = ("late/x", "late/y")


def per_node_reference(num_nodes, config, rows):
    """The per-node rule over ``rows`` of ``(index, subjects)``: sids
    numbered on first sight, deduplicated in order per node, and every
    subscription's own hash ORed into its node's mask."""
    bloom = config.bloom
    columns = MembershipColumns(
        num_nodes, config.branching_factor, config.multicast.representatives
    )
    sids = {}
    for index, subjects in rows:
        ids = list(columns.subjects[index])
        mask = columns.interest[index]
        for subject in subjects:
            sid = sids.setdefault(subject, len(sids))
            if sid not in ids:
                ids.append(sid)
            mask |= positions_mask(bit_positions(subject, bloom.num_bits, bloom.num_hashes))
        columns.subjects[index] = tuple(ids)
        columns.interest[index] = mask
    columns.build_aggregates()
    return columns, sids


class TestInterestClassesDifferential:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_node_rule(self, data):
        num_nodes = data.draw(st.integers(1, 40), label="num_nodes")
        per_node = st.lists(st.sampled_from(SUBJECTS), max_size=4)  # duplicates allowed
        populations = data.draw(
            st.lists(per_node, min_size=num_nodes, max_size=num_nodes), label="populations"
        )
        as_list = data.draw(
            st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes), label="as_list"
        )
        subscribes = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_nodes - 1),
                    st.sampled_from(SUBJECTS + LATE_SUBJECTS),
                ),
                max_size=8,
            ),
            label="subscribes",
        )
        config = NewsWireConfig(branching_factor=4)

        def subscriptions_for(index):
            fresh = [Subscription(subject) for subject in populations[index]]
            return fresh if as_list[index] else tuple(fresh)

        system = build_columnar(
            num_nodes, config, subscriptions_for=subscriptions_for, start=False
        )
        columns = system.columns
        built, _ = per_node_reference(num_nodes, config, enumerate(populations))
        assert columns.agg_subs == built.agg_subs
        assert columns.agg_count == built.agg_count

        for index, subject in subscribes:
            system.subscribe(index, Subscription(subject))
        columns.build_aggregates()
        expected, sids = per_node_reference(
            num_nodes,
            config,
            [*enumerate(populations), *((index, [subject]) for index, subject in subscribes)],
        )
        assert columns.subjects == expected.subjects
        assert columns.interest == expected.interest
        assert columns.agg_subs == expected.agg_subs
        assert columns.agg_count == expected.agg_count
        assert {subject: sid for subject, (sid, _) in system._subjects.items()} == sids
