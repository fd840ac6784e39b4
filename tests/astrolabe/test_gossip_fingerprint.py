"""Behaviour pin for the object-backend gossip round.

One fixed-seed NewsWire run that touches every path the gossip round
takes — own-row refreshes, a run-time load change and subscription, a
certificate spreading epidemically, a crash long enough for the
member's rows to expire and its recovery, a partition and its heal, and
one published item — reduced to a sha256 of everything the round
decides: every replica's rows, every agent's remembered peers, the
traffic each node sent and the trace's per-kind counts.

Caches in the agent and the zone tables must be invisible here: they
may make the round cheaper, but never change a message, a version or a
random draw.  If a change alters gossip semantics on purpose, re-capture
the digest with the same scenario and say why.
"""

import hashlib

from repro.core.config import NewsWireConfig
from repro.astrolabe.certificates import AggregationCertificate
from repro.astrolabe.deployment import ADMIN_PRINCIPAL
from repro.news.deployment import build_newswire
from repro.pubsub.subscription import Subscription

EXPECTED = "f38aab202fcab5479536ef7e8d630b628700738b84874b217dbccf5559ce5a73"


def run_scenario():
    # 300 nodes at branching 64 make leaf tables of 18 rows, so each
    # agent's 16-entry remembered-peer list truncates and rotates.
    system = build_newswire(300, NewsWireConfig(), seed=3)
    nodes = system.nodes
    system.run_for(4.0)

    nodes[10].set_load(3.5)
    nodes[20].subscribe(Subscription("fingerprint/late"))
    certificate = AggregationCertificate.issue(
        "fp_extra", "SELECT COUNT(*) AS fp_n", ADMIN_PRINCIPAL,
        system.deployment.keychain, issued_at=system.sim.now,
    )
    nodes[30].install_aggregation(certificate)
    system.run_for(6.0)

    crashed = nodes[40]
    crashed.crash()
    system.run_for(40.0)  # longer than the 30 s row TTL
    crashed.recover()
    system.run_for(6.0)

    publisher = system.publisher("newswire")
    own_top = publisher.node_id.labels[0]
    system.network.partition([
        [n.node_id for n in nodes if n.node_id.labels[0] == own_top],
        [n.node_id for n in nodes if n.node_id.labels[0] != own_top],
    ])
    system.run_for(8.0)
    system.network.heal()
    system.run_for(4.0)

    publisher.publish_news("fingerprint/late", "one story")
    system.run_for(4.0)
    return system


def fingerprint(system) -> str:
    digest = hashlib.sha256()
    for node in system.nodes:
        for zone, table in node.tables.items():
            for label, row in table.rows():
                digest.update(repr((
                    str(zone), label, row.version, row.writer,
                    sorted(row.mapping.items()),
                )).encode())
        digest.update(repr(node._remembered_peers).encode())
        stats = system.network.node_stats(node.node_id)
        digest.update(repr((stats.sent_messages, stats.sent_bytes)).encode())
    digest.update(repr(sorted(system.trace.counts().items())).encode())
    return digest.hexdigest()


def test_gossip_round_fingerprint():
    assert fingerprint(run_scenario()) == EXPECTED
