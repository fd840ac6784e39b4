"""Tests for the Astrolabe agent: aggregation, gossip, failures."""

import pytest

from repro.core.config import NewsWireConfig
from repro.core.errors import CertificateError, ZoneError
from repro.core.identifiers import ZonePath
from repro.astrolabe.agent import AstrolabeAgent
from repro.astrolabe.certificates import AggregationCertificate, KeyChain
from repro.astrolabe.deployment import build_astrolabe
from repro.astrolabe.messages import GossipFinish
from repro.astrolabe.mib import Row
from repro.gossip.antientropy import Entry
from repro.runtime.sim import SimRuntime


@pytest.fixture
def deployment():
    return build_astrolabe(
        24, NewsWireConfig(branching_factor=6), seed=11
    )


class TestOwnRow:
    def test_agent_requires_leaf_path(self, sim, network, small_config):
        chain = KeyChain()
        with pytest.raises(ZoneError):
            AstrolabeAgent(ZonePath(), SimRuntime(sim, network), small_config, chain)

    def test_base_attributes_present(self, deployment):
        agent = deployment.agents[0]
        row = agent.own_row()
        assert row["nmembers"] == 1
        assert row["leaf"] is True
        assert row["contacts"] == (str(agent.node_id),)

    def test_set_attribute_updates_row(self, deployment):
        agent = deployment.agents[0]
        agent.set_attribute("color", "blue")
        assert agent.own_row()["color"] == "blue"

    def test_set_load_updates_loads_tuple(self, deployment):
        agent = deployment.agents[0]
        agent.set_load(3.5)
        assert agent.load == 3.5
        assert agent.own_row()["loads"] == (3.5,)

    def test_stamp_strictly_increases(self, deployment):
        agent = deployment.agents[0]
        first = agent._stamp()
        second = agent._stamp()
        assert second > first

    def test_same_instant_updates_both_apply(self, deployment):
        """Two writes at one simulation instant must both win LWW."""
        agent = deployment.agents[0]
        agent.set_attribute("x", 1)
        agent.set_attribute("x", 2)
        assert agent.own_row()["x"] == 2


class TestAggregation:
    def test_preseeded_root_membership(self, deployment):
        for agent in deployment.agents:
            assert agent.root_aggregate("nmembers") == 24

    def test_load_change_propagates(self, deployment):
        deployment.agents[5].set_load(7.0)
        deployment.run_rounds(8)
        views = {agent.root_aggregate("maxload") for agent in deployment.agents}
        assert views == {7.0}

    def test_contacts_elected_everywhere(self, deployment):
        agent = deployment.agents[0]
        for label, row in agent.zone_table(agent.zones[0]).rows():
            contacts = row["contacts"]
            assert isinstance(contacts, tuple) and contacts

    def test_evaluate_zone_unreplicated_raises(self, deployment):
        agent = deployment.agents[0]
        with pytest.raises(ZoneError):
            agent.evaluate_zone(ZonePath.parse("/nowhere"))

    def test_install_aggregation_spreads_epidemically(self, deployment):
        cert = AggregationCertificate.issue(
            "custom", "SELECT COUNT(*) AS custom_n", "admin",
            deployment.keychain, issued_at=1.0,
        )
        deployment.agents[0].install_aggregation(cert)
        deployment.run_rounds(10)
        installed = sum(
            1
            for agent in deployment.agents
            if any(c.name == "custom" for c in agent.aggregation_certificates())
        )
        assert installed == len(deployment.agents)

    def test_newer_certificate_replaces(self, deployment):
        agent = deployment.agents[0]
        old = AggregationCertificate.issue(
            "f", "SELECT COUNT(*) AS a", "admin", deployment.keychain, issued_at=1.0
        )
        new = AggregationCertificate.issue(
            "f", "SELECT COUNT(*) AS b", "admin", deployment.keychain, issued_at=2.0
        )
        assert agent.install_aggregation(old)
        assert agent.install_aggregation(new)
        assert not agent.install_aggregation(old)  # stale

    def test_unparseable_certificate_rejected(self, deployment):
        bad = AggregationCertificate.issue(
            "bad", "THIS IS NOT AQL", "admin", deployment.keychain
        )
        with pytest.raises(CertificateError):
            deployment.agents[0].install_aggregation(bad)

    def test_compiler_bug_is_not_relabelled_a_rejection(self, deployment, monkeypatch):
        """Only AQL errors mean "does not parse"; anything else is a bug
        and must propagate instead of becoming a silent cert-rejected."""
        def broken(source):
            raise RuntimeError("compiler bug")

        monkeypatch.setattr("repro.astrolabe.agent.compile_program", broken)
        cert = AggregationCertificate.issue(
            "fine", "SELECT COUNT(*) AS fine_n", "admin", deployment.keychain
        )
        with pytest.raises(RuntimeError, match="compiler bug"):
            deployment.agents[0].install_aggregation(cert)

    def test_unsigned_certificate_rejected(self, deployment):
        rogue_chain = KeyChain()
        rogue_chain.register("admin")  # different derived secret? no — same
        rogue_chain.register("mallory")
        bad = AggregationCertificate.issue(
            "evil", "SELECT COUNT(*) AS n", "mallory", rogue_chain
        )
        with pytest.raises(CertificateError):
            deployment.agents[0].install_aggregation(bad)

    def test_scoped_certificate_applies_only_in_scope(self, deployment):
        agent = deployment.agents[0]
        scope = agent.parent_zone
        cert = AggregationCertificate.issue(
            "scoped", "SELECT COUNT(*) AS scoped_n", "admin",
            deployment.keychain, scope=scope, issued_at=1.0,
        )
        agent.install_aggregation(cert)
        assert "scoped_n" in agent.evaluate_zone(scope)
        assert "scoped_n" not in agent.evaluate_zone(agent.zones[0])


class TestFailureHandling:
    def test_crashed_member_expires_from_tables(self, deployment):
        victim = deployment.agents[3]
        deployment.run_rounds(3)
        victim.crash()
        deployment.run_rounds(
            deployment.config.gossip.row_ttl_rounds + 8
        )
        for agent in deployment.alive_agents():
            if victim.parent_zone in agent.tables:
                assert victim.node_id.name not in agent.zone_table(
                    victim.parent_zone
                ).labels()
        assert all(
            agent.root_aggregate("nmembers") == 23
            for agent in deployment.alive_agents()
        )

    def test_recovered_member_rejoins(self, deployment):
        victim = deployment.agents[3]
        deployment.run_rounds(3)
        victim.crash()
        deployment.run_rounds(deployment.config.gossip.row_ttl_rounds + 8)
        victim.recover()
        deployment.run_rounds(20)
        assert {
            agent.root_aggregate("nmembers")
            for agent in deployment.alive_agents()
        } == {24}

    def test_short_crash_does_not_expire(self, deployment):
        victim = deployment.agents[3]
        deployment.run_rounds(3)
        victim.crash()
        deployment.run_rounds(3)  # well under the TTL
        victim.recover()
        deployment.run_rounds(6)
        assert all(
            agent.root_aggregate("nmembers") == 24
            for agent in deployment.alive_agents()
        )


class TestMergeWindow:
    """Incoming rows must be stamped within one row TTL of the clock."""

    @staticmethod
    def _pair(deployment):
        owner = deployment.agents[0]
        receiver = next(
            agent for agent in deployment.agents[1:]
            if agent.parent_zone == owner.parent_zone
        )
        return owner, receiver, owner.parent_zone, owner.node_id.name

    @staticmethod
    def _deliver(receiver, sender, zone, label, row):
        delta = {zone: {label: Entry(row.version, row)}}
        receiver.on_message(sender.node_id, GossipFinish(zone, delta, {}))

    def test_future_stamped_row_is_rejected_and_counted(self, deployment):
        deployment.run_rounds(2)
        owner, receiver, zone, label = self._pair(deployment)
        metrics = deployment.metrics
        assert "gossip.rows_rejected_future" not in metrics
        honest = receiver.zone_table(zone).row(label)
        writer = str(owner.node_id)
        forged = Row(dict(honest.mapping, load=99.0), (owner.now + 1000.0, writer), writer)
        self._deliver(receiver, owner, zone, label, forged)
        assert receiver.zone_table(zone).row(label) == honest
        assert metrics.counter("gossip.rows_rejected_future").value == 1

        owner.set_load(4.0)  # the owner's next refresh wins
        self._deliver(receiver, owner, zone, label, owner.own_row())
        assert receiver.zone_table(zone).row(label)["load"] == 4.0

    def test_row_within_the_window_is_admitted(self, deployment):
        owner, receiver, zone, label = self._pair(deployment)
        ttl = deployment.config.gossip.interval * deployment.config.gossip.row_ttl_rounds
        writer = str(owner.node_id)
        row = Row(dict(owner.own_row().mapping), (owner.now + ttl, writer), writer)
        self._deliver(receiver, owner, zone, label, row)
        assert receiver.zone_table(zone).row(label) == row
        assert "gossip.rows_rejected_future" not in deployment.metrics


class TestJoin:
    def test_late_joiner_integrates(self, deployment):
        newbie_id = deployment.agents[0].parent_zone.child("n99")
        deployment.add_agent(newbie_id, introducer=deployment.agents[0].node_id)
        deployment.run_rounds(15)
        views = {
            agent.root_aggregate("nmembers") for agent in deployment.alive_agents()
        }
        assert views == {25}

    def test_joiner_learns_certificates(self, deployment):
        cert = AggregationCertificate.issue(
            "extra", "SELECT COUNT(*) AS extra_n", "admin",
            deployment.keychain, issued_at=1.0,
        )
        deployment.agents[0].install_aggregation(cert)
        newbie_id = deployment.agents[0].parent_zone.child("n99")
        newbie = deployment.add_agent(
            newbie_id, introducer=deployment.agents[0].node_id
        )
        deployment.run_rounds(4)
        assert any(c.name == "extra" for c in newbie.aggregation_certificates())
