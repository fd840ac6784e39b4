"""What one in-flight columnar delivery costs.

A publish's deliveries wait in the kernel's bulk lane as columns: the
walk's arrays (time, node, hop) and a shared origin per publish, and
the lane's sorted times and sort permutation.  A row's tuple is built
only when it fires, so retained bytes per pending delivery stay flat
however large the population.
"""

from __future__ import annotations

import tracemalloc

from repro.pubsub.subscription import Subscription
from repro.scale.backend import build_columnar

NODES = 20_000
INTERESTS = (Subscription("news/base"),)  # one shared tuple: one install


def test_pending_delivery_stays_compact():
    """Bytes retained per pending row after one publish.

    Allocation sizes are deterministic, so this is a fixed number per
    interpreter build: on CPython 3.11 the 6-tuple walk rows plus the
    lane's ``(time, seq, row)`` entries took about 248 B, the columns
    about 27 B: an 8-byte time and a 4-byte permutation entry in the
    lane, a 4-byte node, a 1-byte hop and an 8-byte origin pointer in
    the walk's columns, plus their growth slack (the walk's own time
    column is dropped once the lane has sorted it).  Every name is
    cached first, so the publish record costs no new string.
    """
    system = build_columnar(NODES, subscriptions_for=lambda index: INTERESTS, seed=5)
    system.run_for(2.0)
    for index in range(NODES):
        system.node_name(index)
    sim = system.sim
    pending = sim.pending_events
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.publisher("newswire").publish_news("news/base", "headline")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sim.pending_events - pending
    assert rows == NODES  # every node subscribes, the publisher included
    assert retained / rows <= 80
