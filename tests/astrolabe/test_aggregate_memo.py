"""The shared aggregate memo and the agent's pre-start deferral.

After the time-zero pre-seed every member of a zone holds the same row
objects, so one member evaluates the zone's AQL and the others share
its result (``repro.astrolabe.agent._AGGREGATES``).  Before its first
``refresh()`` or start an agent only records attribute writes and
certificates; the own row and the aggregates are built then.  These
tests pin the work the build does, check every cached aggregate
against a fresh evaluation over the agent's own replica after gossip,
crashes and run-time changes, and check what a write before start
shows, and when.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.astrolabe.aql import AqlProgram, compile_program
from repro.astrolabe.certificates import AggregationCertificate, KeyChain, _parse_scope
from repro.astrolabe.representatives import CORE_AGGREGATION_NAME
from repro.astrolabe.deployment import ADMIN_PRINCIPAL, build_astrolabe
from repro.news import build_newswire
from repro.news.node import NewsWireNode
from repro.pubsub import Subscription
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.sim.trace import TraceLog

SUBJECTS = tuple(f"memo/s{k}" for k in range(8))


def three_subjects(index):
    return tuple(Subscription(SUBJECTS[(index + k) % len(SUBJECTS)]) for k in range(3))


def fresh_attributes(agent, zone):
    """``zone``'s aggregate attributes, evaluated from scratch over the
    agent's own replica of the zone's table."""
    rows = agent.zone_table(zone).row_mappings()
    expected = {}
    for certificate in agent.aggregation_certificates():
        if certificate.scope.contains(zone):
            result = compile_program(certificate.aql_source).evaluate(rows)
            for key, value in result.items():
                expected[key] = tuple(value) if isinstance(value, (list, set)) else value
    return expected


def fresh_aggregate(agent, zone):
    """``zone``'s aggregate row map, evaluated from scratch."""
    return {**fresh_attributes(agent, zone), "zone": zone.name, "leaf": False}


def aggregate_row(agent, zone):
    """The row for ``zone`` in its parent table on ``agent``."""
    return agent.zone_table(zone.parent()).row(zone.name)


def assert_aggregates_fresh(agent, other=None):
    """Every aggregate row ``agent`` wrote, and its ``evaluate_zone``
    answer at every level of its path (the root included), equal a
    fresh evaluation over its own replica; each answer is checked right
    after ``other``, if given, has aggregated the same zone over its
    replica and so overwritten the zone's memo entry."""
    for zone in agent.zones[1:]:
        row = aggregate_row(agent, zone)
        assert row.writer == f"agg:{agent.node_id}"
        # repr distinguishes 1, 1.0 and True, and keeps the key order.
        assert repr(list(row.mapping.items())) == repr(
            list(fresh_aggregate(agent, zone).items())
        )
    for zone in agent.zones:
        if other is not None and other.replicates(zone):
            other.evaluate_zone(zone)
        assert repr(list(agent.evaluate_zone(zone).items())) == repr(
            list(fresh_attributes(agent, zone).items())
        )


class TestBuildWork:
    def test_aql_evaluations_of_a_256_node_build(self, monkeypatch):
        """One evaluation per zone and certificate once the pre-seed has
        handed out its tables, not one per member.  Before the memo the
        build ran 2,850 evaluations here.  512 of the 546 left are the
        pre-seed's first step, where each agent's table holds only its
        own row; the agents' first rounds then hit the pre-seed's own
        evaluations of the 16-member zones."""
        calls = []
        evaluate = AqlProgram.evaluate
        monkeypatch.setattr(
            AqlProgram, "evaluate", lambda program, rows: calls.append(1) or evaluate(program, rows)
        )
        _parse_scope.cache_clear()
        system = build_newswire(
            256,
            NewsWireConfig(branching_factor=16),
            subscriptions_for=three_subjects,
            seed=0,
        )
        assert len(calls) == 546
        # Every certificate in this build is scoped to the root: one parse.
        assert _parse_scope.cache_info().misses == 1
        for node in system.nodes[:32]:
            assert_aggregates_fresh(node)

    def test_members_of_a_zone_share_one_aggregate_map(self):
        system = build_newswire(
            64, NewsWireConfig(branching_factor=8), publisher_names=(),
            subscriptions_for=three_subjects, seed=1,
        )
        for zone in {node.parent_zone for node in system.nodes}:
            members = [node for node in system.nodes if node.parent_zone == zone]
            maps = {id(aggregate_row(node, zone).mapping) for node in members}
            assert len(maps) == 1


class TestMemoDifferential:
    @given(
        num_nodes=st.integers(8, 200),
        branching=st.integers(4, 16),
        seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=12, deadline=None)
    def test_cached_aggregates_equal_a_fresh_evaluation(self, num_nodes, branching, seed):
        system = build_newswire(
            num_nodes,
            NewsWireConfig(branching_factor=branching),
            subscriptions_for=three_subjects,
            seed=seed,
        )
        nodes = system.nodes
        rng = random.Random(seed)
        system.run_for(2.0)
        victim = nodes[rng.randrange(num_nodes)]
        victim.crash()
        system.run_for(2.0)
        victim.recover()
        nodes[rng.randrange(num_nodes)].subscribe(Subscription("memo/late"))
        # A certificate scoped to one top-level zone: members in and out
        # of its scope, with and without it yet, aggregate differently.
        scope = ZonePath(nodes[0].node_id.labels[:1])
        certificate = AggregationCertificate.issue(
            "memo_scoped", "SELECT COUNT(*) AS memo_n", ADMIN_PRINCIPAL,
            system.deployment.keychain, scope=scope, issued_at=system.sim.now,
        )
        nodes[rng.randrange(num_nodes)].install_aggregation(certificate)
        system.run_for(3.0)
        for node, other in zip(nodes, nodes[-1:] + nodes[:-1]):
            node.refresh()
            assert_aggregates_fresh(node, other)

    def test_each_agent_queries_its_own_replica(self):
        """Two members of one zone whose replicas differ at every level:
        neither may read the other's aggregate from the shared memo."""
        deployment = build_astrolabe(16, NewsWireConfig(branching_factor=4), seed=5)
        first = deployment.agents[0]
        second = next(
            agent for agent in deployment.agents[1:]
            if agent.parent_zone == first.parent_zone
        )
        first.set_load(7.0)  # no gossip yet: only first's replica has it
        for zone in first.zones:
            assert first.evaluate_zone(zone)["maxload"] == 7.0
            assert second.evaluate_zone(zone)["maxload"] == 0.0
        assert_aggregates_fresh(first, second)
        assert_aggregates_fresh(second, first)


class TestPreseed:
    def test_zones_aggregate_under_the_certificates_members_keep(self):
        """A re-issued certificate replaces the one of its name on every
        agent, so no pre-seeded row may carry what only the replaced
        one computed."""
        keychain = KeyChain()
        keychain.register(ADMIN_PRINCIPAL)
        reissued = AggregationCertificate.issue(
            CORE_AGGREGATION_NAME,
            "SELECT SUM(nmembers) AS nmembers, REPS_CONTACTS(2, contacts, loads) AS contacts, "
            "REPS_LOADS(2, contacts, loads) AS loads",
            ADMIN_PRINCIPAL, keychain, issued_at=5.0,
        )
        deployment = build_astrolabe(
            64, NewsWireConfig(branching_factor=4), keychain=keychain,
            extra_certificates=[reissued], start=False,
        )
        for agent in deployment.agents:
            for zone in agent.zones:
                for _, row in agent.zone_table(zone).rows():
                    if not row["leaf"]:
                        assert {"minload", "maxload", "loadsum"}.isdisjoint(row.mapping)
            assert_aggregates_fresh(agent)


def extra_certificate(keychain):
    return AggregationCertificate.issue(
        "extra", "SELECT COUNT(*) AS extra_n", ADMIN_PRINCIPAL, keychain, issued_at=1.0
    )


class TestBeforeStart:
    @pytest.fixture
    def deployment(self):
        return build_astrolabe(
            8, NewsWireConfig(branching_factor=4), seed=2, preseed=False, start=False
        )

    @pytest.mark.parametrize("begin", ["refresh", "start"])
    def test_writes_show_from_the_first_refresh_or_start(self, deployment, begin):
        agent = deployment.agents[0]
        agent.set_attribute("color", "blue")
        agent.set_attributes({"load": 2.0})
        agent.install_aggregation(extra_certificate(deployment.keychain))
        # Nothing derived yet, and no stamp taken.
        assert agent.own_row() is None
        assert aggregate_row(agent, agent.parent_zone) is None
        getattr(agent, begin)()
        row = agent.own_row()
        assert row.version == (0.0, str(agent.node_id))
        assert (row["color"], row["load"], row["loads"]) == ("blue", 2.0, (2.0,))
        aggregate = aggregate_row(agent, agent.parent_zone)
        assert (aggregate["extra_n"], aggregate["maxload"]) == (1, 2.0)
        assert_aggregates_fresh(agent)

    def test_writes_after_start_refresh_at_once(self, deployment):
        agent = deployment.agents[0]
        agent.start()
        agent.set_attribute("color", "red")
        assert agent.own_row()["color"] == "red"
        agent.set_load(5.0)
        assert aggregate_row(agent, agent.parent_zone)["maxload"] == 5.0
        agent.install_aggregation(extra_certificate(deployment.keychain))
        assert aggregate_row(agent, agent.parent_zone)["extra_n"] == 1
        assert_aggregates_fresh(agent)

    def test_live_worker_sequence(self):
        """A live worker rebuilds each node from an unstarted reference
        deployment: install, subscribe, take the reference tables, refresh
        (``repro.live.deploy``)."""
        config = NewsWireConfig(branching_factor=4)
        reference = build_newswire(
            12, config, subscriptions_for=three_subjects, seed=3, start=False
        )
        ref_agent = reference.deployment.agents[5]
        # Never started, so no socket is bound.
        runtime = AsyncioUdpRuntime(
            seed=1, address_book={str(ref_agent.node_id): ("127.0.0.1", 1)}
        )
        trace = TraceLog(runtime, kinds=set())
        node = NewsWireNode(
            ref_agent.node_id, runtime, config, reference.deployment.keychain,
            trace, ref_agent.scheme,
        )
        for certificate in reference.deployment.certificates:
            node.install_aggregation(certificate)
        for subscription in three_subjects(5):
            node.subscribe(subscription)
        for zone in node.zones:
            node.zone_table(zone).apply_delta(ref_agent.zone_table(zone).delta_for({}))
        node.refresh()
        assert node.own_row().writer == str(node.node_id)
        assert node.own_row().timestamp > ref_agent.own_row().timestamp
        assert dict(node.own_row().mapping) == dict(ref_agent.own_row().mapping)
        assert_aggregates_fresh(node)
        for zone in node.zones[1:]:
            assert dict(aggregate_row(node, zone).mapping) == dict(
                aggregate_row(ref_agent, zone).mapping
            )

    def test_mid_run_joiner(self):
        keychain = KeyChain()
        keychain.register(ADMIN_PRINCIPAL)
        deployment = build_astrolabe(
            16, NewsWireConfig(branching_factor=6), seed=4, keychain=keychain,
            extra_certificates=(extra_certificate(keychain),),
        )
        deployment.run_rounds(2)
        introducer = deployment.agents[0]
        joiner = deployment.add_agent(
            introducer.node_id.parent().child("n99"), introducer=introducer.node_id
        )
        # Installed before start, shown from start on: only its own row yet.
        assert joiner.own_row().timestamp == joiner.now
        assert aggregate_row(joiner, joiner.parent_zone)["extra_n"] == 1
        deployment.run_rounds(10)
        joiner.refresh()
        assert joiner.root_aggregate("nmembers") == 17
        assert_aggregates_fresh(joiner)
