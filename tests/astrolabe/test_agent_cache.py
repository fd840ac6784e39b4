"""Tests for the agent's and the zone table's caches.

The agent caches per-zone aggregation output, aggregate rows and gossip
candidates on the table's content token (aggregation also on the
installed-certificate generation) and re-stamps its own row until an
attribute is set; compiled AQL programs are memoized by source text;
zone tables keep their sorted labels until the key set changes.  All
must be invisible except for speed: each is rebuilt after the event
that should invalidate it, and a version-only refresh keeps it.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NewsWireConfig
from repro.core.errors import ZoneError
from repro.core.identifiers import ZonePath
from repro.astrolabe.agent import AstrolabeAgent
from repro.astrolabe.aql import AqlProgram, compile_program
from repro.astrolabe.certificates import AggregationCertificate
from repro.astrolabe.deployment import build_astrolabe
from repro.astrolabe.mib import Row
from repro.astrolabe.zone import ZoneTable
from repro.gossip.antientropy import Entry


@pytest.fixture
def deployment():
    return build_astrolabe(12, NewsWireConfig(branching_factor=4), seed=7)


class TestCompileMemo:
    def test_same_source_shares_one_program(self):
        source = "SELECT COUNT(*) AS memo_n"
        assert compile_program(source) is compile_program(source)

    def test_memoized_program_matches_direct_compile(self):
        source = "SELECT SUM(x) AS s"
        rows = [{"x": 1}, {"x": 2}]
        assert compile_program(source).evaluate(rows) == AqlProgram(source).evaluate(rows)

    def test_bad_source_not_cached(self):
        with pytest.raises(Exception):
            compile_program("THIS IS NOT AQL")
        with pytest.raises(Exception):
            compile_program("THIS IS NOT AQL")


class TestAggregationCache:
    def test_repeated_evaluation_is_stable_and_cached(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        first = agent.evaluate_zone(zone)
        token = agent._agg_cache[zone][0]
        second = agent.evaluate_zone(zone)
        assert second == first
        assert agent._agg_cache[zone][0] == token  # no re-evaluation

    def test_returned_mapping_is_a_copy(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        result = agent.evaluate_zone(zone)
        result["nmembers"] = 999  # caller mutation must not poison the cache
        assert agent.evaluate_zone(zone)["nmembers"] != 999

    def test_value_change_invalidates(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        agent.evaluate_zone(zone)
        agent.set_load(9.0)
        assert agent.evaluate_zone(zone)["maxload"] == 9.0

    def test_version_only_refresh_keeps_content_token(self, deployment):
        """The per-round own-row refresh rewrites identical attributes
        with a fresh version; the cache must survive it or it would
        never hit in steady state."""
        agent = deployment.agents[0]
        table = agent.zone_table(agent.parent_zone)
        before = table.content_token
        agent.refresh()
        assert table.content_token == before

    def test_cert_install_invalidates(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        assert "extra_n" not in agent.evaluate_zone(zone)
        cert = AggregationCertificate.issue(
            "extra", "SELECT COUNT(*) AS extra_n", "admin",
            deployment.keychain, issued_at=1.0,
        )
        agent.install_aggregation(cert)
        assert agent.evaluate_zone(zone)["extra_n"] >= 1

    def test_remote_delta_with_new_values_invalidates(self, deployment):
        """Rows arriving by anti-entropy with changed values must bump
        the content token just like local writes."""
        agent_a, agent_b = deployment.agents[0], deployment.agents[1]
        zone = agent_a.parent_zone
        if not agent_b.replicates(zone):  # same leaf zone under bf=4 seed=7
            pytest.skip("agents not in the same leaf zone for this topology")
        agent_a.evaluate_zone(zone)
        agent_b.set_load(4.5)
        table_a = agent_a.zone_table(zone)
        before = table_a.content_token
        delta = agent_b.zone_table(zone).delta_for(table_a.digest())
        table_a.apply_delta(delta)
        assert table_a.content_token > before
        assert agent_a.evaluate_zone(zone)["maxload"] == 4.5


def expected_candidates(agent, zone):
    """The gossip candidates of ``zone`` computed from scratch."""
    me = str(agent.node_id)
    return sorted({
        contact
        for _, row in agent.zone_table(zone).rows()
        for contact in row.get("contacts", ())
        if contact != me
    })


class TestPartnerCandidates:
    def _picked(self, agent, zone):
        agent._pick_partners(zone)
        return agent._candidates[zone][1]

    def test_contacts_change_rebuilds(self, deployment):
        agent = deployment.agents[0]
        zone = agent.zones[0]
        self._picked(agent, zone)
        label, row = next(
            (label, row) for label, row in agent.zone_table(zone).rows()
            if label != agent.zones[1].name
        )
        moved = Row(dict(row.mapping, contacts=("/elsewhere/n1",)),
                    (row.version[0] + 1.0, row.writer), row.writer)
        agent.zone_table(zone).put_row(label, moved)
        assert "/elsewhere/n1" in self._picked(agent, zone)
        assert self._picked(agent, zone) == expected_candidates(agent, zone)

    def test_new_row_rebuilds(self, deployment):
        agent = deployment.agents[0]
        zone = agent.zones[0]  # leaf tables are full at this size
        self._picked(agent, zone)
        newcomer = Row({"contacts": ("/newcomer",)}, (agent.now, "w"), "w")
        agent.zone_table(zone).put_row("newcomer", newcomer)
        assert "/newcomer" in self._picked(agent, zone)

    def test_expiry_rebuilds(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        assert self._picked(agent, zone)
        agent.zone_table(zone).expire_older_than(agent.now + 1.0)
        assert self._picked(agent, zone) == []
        assert agent._pick_partners(zone) == []

    def test_version_only_refresh_keeps_the_cached_list(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        before = self._picked(agent, zone)
        table = agent.zone_table(zone)
        label = next(label for label in table.labels() if label != agent.node_id.name)
        row = table.row(label)
        table.put_row(label, row.restamped((row.version[0] + 1.0, row.writer)))
        agent.refresh()
        assert self._picked(agent, zone) is before

    def test_picks_are_node_ids_of_candidates(self, deployment):
        agent = deployment.agents[0]
        for zone in agent.zones:
            for partner in agent._pick_partners(zone):
                assert partner == ZonePath.parse(str(partner))
                assert str(partner) in expected_candidates(agent, zone)


def remember_reference(remembered, peers):
    """The remembered-peer rotation, written the obvious way."""
    remembered = list(remembered)
    for peer in peers:
        if peer not in remembered:
            remembered.append(peer)
    return remembered[-16:]


class TestRememberPeers:
    @given(
        st.lists(st.integers(0, 40), unique=True, max_size=16),
        st.lists(st.integers(0, 40), unique=True, max_size=40),
    )
    @settings(max_examples=200)
    def test_matches_the_append_then_truncate_rotation(self, before, peers):
        before = [f"/p{n}" for n in before]
        peers = sorted(f"/p{n}" for n in peers)
        agent = SimpleNamespace(_remembered_peers=list(before))
        AstrolabeAgent._remember_peers(agent, peers)
        assert agent._remembered_peers == remember_reference(before, peers)


class TestOwnRow:
    def test_version_only_refresh_reuses_the_attribute_map(self, deployment):
        agent = deployment.agents[0]
        before = agent.own_row()
        agent.refresh()
        after = agent.own_row()
        assert after.version > before.version
        assert after.mapping is before.mapping

    @pytest.mark.parametrize("change", [
        lambda agent: agent.set_attribute("load", 2.5),
        lambda agent: agent.set_attributes({"load": 2.5}),
        lambda agent: agent.set_load(2.5),
    ])
    def test_setting_an_attribute_rebuilds(self, deployment, change):
        agent = deployment.agents[0]
        before = agent.own_row()
        change(agent)
        assert agent.own_row()["load"] == 2.5
        assert agent.own_row()["loads"] == (2.5,)
        assert agent.own_row().mapping is not before.mapping

    def test_setting_while_crashed_shows_after_recovery(self, deployment):
        agent = deployment.agents[0]
        agent.refresh()
        agent.crash()
        agent.set_load(6.0)
        agent.set_attributes({"extra": 1})
        assert agent.own_row()["load"] == 0.0  # no refresh while down
        agent.recover()
        assert agent.own_row()["load"] == 6.0
        assert agent.own_row()["extra"] == 1


class TestAggregateRow:
    def _row(self, agent):
        return agent.zone_table(agent.zones[-2]).row(agent.parent_zone.name)

    def test_unchanged_zone_reuses_the_attribute_map(self, deployment):
        agent = deployment.agents[0]
        before = self._row(agent)
        agent.refresh()
        after = self._row(agent)
        assert after.version > before.version
        assert after.mapping is before.mapping

    def test_cert_install_rebuilds(self, deployment):
        agent = deployment.agents[0]
        zone = agent.parent_zone
        cert = AggregationCertificate.issue(
            "extra", "SELECT COUNT(*) AS extra_n", "admin",
            deployment.keychain, issued_at=1.0,
        )
        agent.install_aggregation(cert)
        row = self._row(agent)
        assert row["extra_n"] == len(agent.zone_table(zone))
        assert dict(row.mapping) == dict(
            agent.evaluate_zone(zone), zone=zone.name, leaf=False
        )

    def test_value_change_rebuilds(self, deployment):
        agent = deployment.agents[0]
        agent.set_load(8.0)
        assert self._row(agent)["maxload"] == 8.0


class TestSortedLabels:
    def test_expire_and_remove_drop_labels(self):
        table = ZoneTable(ZonePath.parse("/z"), max_rows=8)
        for index, label in enumerate("cab"):
            table.put_row(label, Row({"x": index}, (float(index), "w"), "w"))
        assert table.labels() == ("a", "b", "c")
        assert table.expire_older_than(1.0) == ["c"]
        assert table.labels() == ("a", "b")
        table.remove_row("a")
        assert table.labels() == ("b",)
        assert [label for label, _ in table.rows()] == ["b"]


class TestRestampedRow:
    def test_equals_a_freshly_built_row(self):
        attributes = {"load": 1.5, "contacts": ("/a", "/b"), "leaf": True}
        restamped = Row(attributes, (1.0, "w"), "w").restamped((2.0, "w"))
        fresh = Row(attributes, (2.0, "w"), "w")
        assert restamped == fresh
        assert hash(restamped) == hash(fresh)
        assert restamped.wire_size() == fresh.wire_size()


class LwwModel:
    """Last-writer-wins zone table as a plain dict: label -> (version, value)."""

    def __init__(self, max_rows):
        self.max_rows = max_rows
        self.rows = {}
        self.content = self.generation = self.future = 0

    def _install(self, label, version, value):
        current = self.rows.get(label)
        if current is not None and current[0] >= version:
            return False
        self.rows[label] = (version, value)
        self.generation += 1
        if current is None or current[1] != value:
            self.content += 1
        return True

    def put(self, label, version, value):
        if label not in self.rows and len(self.rows) >= self.max_rows:
            raise ZoneError("full")
        return self._install(label, version, value)

    def apply(self, items, low, high):
        changed = []
        for label, version, value in items:
            if version[0] < low:
                continue
            if version[0] > high:
                self.future += 1
                continue
            if label not in self.rows and len(self.rows) >= self.max_rows:
                continue
            if self._install(label, version, value):
                changed.append(label)
        return changed

    def expire(self, cutoff):
        stale = [label for label, (version, _) in self.rows.items()
                 if version < (cutoff, "")]
        for label in stale:
            del self.rows[label]
        if stale:
            self.content += 1
            self.generation += 1
        return stale

    def remove(self, label):
        if label in self.rows:
            del self.rows[label]
            self.content += 1
            self.generation += 1


STAMPS = st.integers(0, 8).map(float)
#: (label, timestamp, writer, value, re-stamp the stored row if any)
ROW_SPECS = st.tuples(
    st.sampled_from("abcde"), STAMPS, st.sampled_from(("w1", "w2")),
    st.integers(0, 2), st.booleans(),
)
BOUNDS = st.one_of(st.none(), STAMPS)
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("put"), ROW_SPECS),
    st.tuples(st.just("delta"), st.lists(ROW_SPECS, max_size=5), BOUNDS, BOUNDS),
    st.tuples(st.just("expire"), STAMPS),
    st.tuples(st.just("remove"), st.sampled_from("abcde")),
), max_size=30)


class TestZoneTableAgainstModel:
    @staticmethod
    def _row(table, spec):
        """A row for ``spec``; re-stamped rows share the stored map."""
        label, stamp, writer, value, restamp = spec
        version = (stamp, writer)
        current = table.row(label)
        if restamp and current is not None:
            return current.restamped(version)
        return Row({"v": value}, version, writer)

    @given(OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_model(self, operations):
        table, model = ZoneTable(ZonePath.parse("/z"), max_rows=3), LwwModel(3)
        for operation in operations:
            kind = operation[0]
            if kind == "put":
                row = self._row(table, operation[1])
                label = operation[1][0]
                try:
                    expected = model.put(label, row.version, row["v"])
                except ZoneError:
                    with pytest.raises(ZoneError):
                        table.put_row(label, row)
                else:
                    assert table.put_row(label, row) == expected
            elif kind == "delta":
                _, specs, low, high = operation
                delta = {spec[0]: self._row(table, spec) for spec in specs}
                low = float("-inf") if low is None else low
                high = float("inf") if high is None else high
                expected = model.apply(
                    [(label, row.version, row["v"]) for label, row in delta.items()],
                    low, high,
                )
                entries = {label: Entry(row.version, row) for label, row in delta.items()}
                assert table.apply_delta(entries, low, high) == expected
            elif kind == "expire":
                assert table.expire_older_than(operation[1]) == model.expire(operation[1])
            else:
                table.remove_row(operation[1])
                model.remove(operation[1])
            assert {label: (row.version, row["v"]) for label, row in table.rows()} \
                == model.rows
            assert table.labels() == tuple(sorted(model.rows))
            assert table.content_token == model.content
            assert table.generation == model.generation
            assert table.rejected_future == model.future
