"""The routing-stabilizes / false-positive-bounded checkers, end to end.

Three layers:

* the acceptance bar — 25 seeded routing-profile fuzz scenarios, each
  injecting a churn storm plus summary corruption against a
  stabilizing scheme, must finalize clean;
* a deliberately broken scheme (exports garbage, believes truth) must
  be *caught* — a checker that can't fail is not a checker;
* unit-level edges: corruption exemptions, partition/None skips, and
  the false-positive ratio bound.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.config import BloomConfig, NewsWireConfig
from repro.obs.causal import CausalSink
from repro.obs.sinks import MemorySink
from repro.pubsub.engine import build_pubsub
from repro.pubsub.schemes import BloomScheme, StabilizingScheme, SubgroupScheme
from repro.pubsub.subscription import Subscription
from repro.testkit.invariants import (
    FalsePositiveBounded,
    InvariantSuite,
    RoutingStabilizes,
)
from repro.testkit.scenarios import run_scenario, sample_scenario

ROUTING_SEEDS = range(25)


def _system_view(deployment):
    return SimpleNamespace(nodes=deployment.agents, network=deployment.network)


class TestRoutingFuzzSeeds:
    """The ISSUE acceptance bar: 25 seeded corruption+churn scenarios."""

    @pytest.mark.parametrize("seed", ROUTING_SEEDS)
    def test_routing_profile_seed_finalizes_clean(self, seed):
        scenario = sample_scenario(seed, quick=True, profile="routing")
        result = run_scenario(scenario)
        assert result.ok, result.summary()

    def test_routing_profile_always_injects_churn_and_corruption(self):
        for seed in ROUTING_SEEDS:
            scenario = sample_scenario(seed, quick=True, profile="routing")
            kinds = {event.kind for event in scenario.schedule}
            assert "churn-storm" in kinds
            assert "summary-corruption" in kinds
            assert scenario.scheme.startswith("stabilizing-")

    def test_routing_profile_leaves_default_sampling_untouched(self):
        for seed in range(5):
            default = sample_scenario(seed, quick=True)
            explicit = sample_scenario(seed, quick=True, profile="default")
            assert default.as_dict() == explicit.as_dict()


class _BrokenScheme(BloomScheme):
    """Exports zeros while honestly deriving expectations — the
    regression target: routing-stabilizes must catch it."""

    def leaf_attributes(self, subscriptions, leaf_key=None):
        return {name: 0 for name in self.summary_attributes()}

    def expected_leaf_attributes(self, subscriptions, leaf_key=None):
        return BloomScheme.leaf_attributes(self, subscriptions)


def _build(scheme, num_nodes=24, seed=9):
    suite = InvariantSuite()
    deployment = build_pubsub(
        num_nodes,
        NewsWireConfig(branching_factor=6),
        scheme=scheme,
        subscriptions_for=lambda i: (Subscription(f"news/cat{i % 4}"),),
        seed=seed,
        sinks=[MemorySink(), suite],
    )
    return deployment, suite


class TestBrokenSchemeCaught:
    def test_zero_exporting_scheme_violates_routing_stabilizes(self):
        deployment, suite = _build(_BrokenScheme(BloomConfig()))
        deployment.run_rounds(2)
        violations = suite.finalize(_system_view(deployment))
        names = {v.invariant for v in violations}
        assert "routing-stabilizes" in names
        # Every subscribed node diverges, not just one unlucky leaf.
        diverged = [v for v in violations if v.invariant == "routing-stabilizes"]
        assert len(diverged) == deployment.num_nodes

    def test_honest_schemes_finalize_clean(self):
        for scheme in (
            BloomScheme(BloomConfig()),
            SubgroupScheme(BloomConfig(num_bits=128, num_hashes=2)),
            StabilizingScheme(BloomScheme(BloomConfig())),
        ):
            deployment, suite = _build(scheme)
            deployment.run_rounds(2)
            violations = suite.finalize(_system_view(deployment))
            assert violations == [], [str(v) for v in violations]


class TestStabilization:
    def test_corruption_repaired_within_refresh_interval(self):
        scheme = StabilizingScheme(BloomScheme(BloomConfig()), refresh_interval=3.0)
        deployment, suite = _build(scheme)
        deployment.run_rounds(2)
        rng = random.Random(7)
        for index in (3, 11, 17):
            deployment.agents[index].corrupt_summary(rng)
        assert deployment.trace.count("summary-corrupt") == 3
        deployment.sim.run_for(10.0)  # several refresh rounds
        assert deployment.trace.count("summary-repair") >= 3
        violations = suite.finalize(_system_view(deployment))
        assert violations == [], [str(v) for v in violations]

    def test_corrupted_flat_scheme_is_exempt(self):
        # A flat Bloom scheme makes no repair promise; the checker must
        # not blame it for injected corruption it cannot undo.
        deployment, suite = _build(BloomScheme(BloomConfig()))
        deployment.run_rounds(2)
        deployment.agents[5].corrupt_summary(random.Random(1))
        deployment.sim.run_for(10.0)
        violations = suite.finalize(_system_view(deployment))
        assert violations == [], [str(v) for v in violations]

    def test_uncorrupted_flat_scheme_still_checked(self):
        # The exemption is per corrupted node — a diverged summary with
        # no corruption event on record is a real bug.
        checker = RoutingStabilizes()
        scheme = BloomScheme(BloomConfig())
        subs = (Subscription("a/b"),)
        node = SimpleNamespace(
            scheme=scheme,
            crashed=False,
            node_id="/n1",
            _leaf_key="n1",
            subscriptions=subs,
            get_attribute=lambda attr: 0,
        )
        checker.finalize(CausalSink(), SimpleNamespace(nodes=[node]))
        assert not checker.ok
        checker.violations.clear()
        corrupted = CausalSink()
        corrupted.emit(1.0, "summary-corrupt", {"node": "/n1"})
        checker.finalize(corrupted, SimpleNamespace(nodes=[node]))
        assert checker.ok


class TestRoutingStabilizesEdges:
    def test_skips_without_system(self):
        checker = RoutingStabilizes()
        checker.finalize(CausalSink(), None)
        assert checker.ok

    def test_skips_while_partitioned(self):
        checker = RoutingStabilizes()
        node = SimpleNamespace(
            scheme=BloomScheme(BloomConfig()),
            crashed=False,
            node_id="/n1",
            _leaf_key="n1",
            subscriptions=(Subscription("a/b"),),
            get_attribute=lambda attr: 0,
        )
        system = SimpleNamespace(
            nodes=[node], network=SimpleNamespace(is_partitioned=True)
        )
        checker.finalize(CausalSink(), system)
        assert checker.ok

    def test_skips_crashed_and_schemeless_nodes(self):
        checker = RoutingStabilizes()
        crashed = SimpleNamespace(
            scheme=BloomScheme(BloomConfig()),
            crashed=True,
            node_id="/n1",
            _leaf_key="n1",
            subscriptions=(Subscription("a/b"),),
            get_attribute=lambda attr: 0,
        )
        bare = SimpleNamespace(node_id="/n2", scheme=None)
        checker.finalize(CausalSink(), SimpleNamespace(nodes=[crashed, bare]))
        assert checker.ok


class TestFalsePositiveBounded:
    def _feed(self, suite, delivered, rejected):
        for _ in range(delivered):
            suite.emit(1.0, "deliver", {})
        for _ in range(rejected):
            suite.emit(1.0, "rejected", {})
        suite.finalize(None)

    def _suite(self):
        checker = FalsePositiveBounded()
        return checker, InvariantSuite([checker])

    def test_dominated_arrivals_violate(self):
        checker, suite = self._suite()
        self._feed(suite, delivered=2, rejected=98)
        assert not checker.ok
        assert checker.violations[0].invariant == "false-positive-bounded"

    def test_honest_bloom_collisions_pass(self):
        checker, suite = self._suite()
        self._feed(suite, delivered=90, rejected=30)
        assert checker.ok

    def test_small_samples_never_trip(self):
        checker, suite = self._suite()
        self._feed(suite, delivered=0, rejected=49)
        assert checker.ok

    def test_clear_resets_counters(self):
        checker, suite = self._suite()
        self._feed(suite, delivered=0, rejected=100)
        assert not checker.ok
        suite.clear()
        self._feed(suite, delivered=100, rejected=0)
        assert checker.ok
