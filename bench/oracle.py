"""Correctness oracle: which ``(node, item)`` deliveries a plan requires.

The required set is derived from the generated inputs alone — the
interest model, the publication schedule, the run-time subscriptions
and the crash schedule — never from the system under test.  Every
observed delivery is then classed as required, optional or unexpected:

* a subscriber of an item's subject is *required* to receive it;
* a node that crashes at any point of the run is *optional* for every
  item (whether a copy in flight survives depends on timing the plan
  does not fix);
* a run-time subscriber is required only for items published at least
  ``PROPAGATION_S`` simulated seconds after it subscribed, and optional
  before that.

Pairs are packed as ``serial * num_nodes + node index`` so the 100k-node
sets stay cheap.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Simulated seconds a run-time subscription may take to reach every
#: forwarder (tree depth + root-replica ring, at 2 s gossip rounds).
PROPAGATION_S = 30.0


@dataclass
class Verdict:
    required: int
    delivered_required: int
    missing: int
    unexpected: int
    duplicates: int
    #: First offending pairs, ``(why, node index, item serial)``.
    offenders: List[Tuple[str, int, int]]
    #: sha256 over the sorted per-item delivery counts.
    guard_digest: str

    @property
    def delivery_ratio(self) -> float:
        return self.delivered_required / self.required if self.required else 0.0

    @property
    def failed(self) -> int:
        return self.missing + self.unexpected + self.duplicates


def expected_pairs(plan) -> Tuple[Set[int], Set[int]]:
    """``(required, optional)`` packed pairs for ``plan``."""
    nodes = plan.num_nodes
    by_subject: Dict[str, List[int]] = {}
    for index in range(nodes):
        for subscription in plan.interests.subscriptions_for(index):
            by_subject.setdefault(subscription.subject, []).append(index)
    late: Dict[str, List[Tuple[float, int]]] = {}
    for offset, index, subject in plan.subscribes:
        late.setdefault(subject, []).append((offset, index))
    crashed = {index for _fail, _recover, index in plan.failures}

    required: Set[int] = set()
    optional: Set[int] = set()
    for serial, publication in enumerate(plan.publications, start=1):
        base = serial * nodes
        for index in by_subject.get(publication.subject, ()):
            (optional if index in crashed else required).add(base + index)
        for offset, index in late.get(publication.subject, ()):
            settled = publication.time - offset >= PROPAGATION_S
            if settled and index not in crashed:
                required.add(base + index)
            elif base + index not in required:
                optional.add(base + index)
    return required, optional


def node_index(node: str) -> int:
    """``/z3/z1/n57`` -> 57 (the builders name leaves by index)."""
    return int(node.rsplit("n", 1)[1])


def item_serial(item: str) -> int:
    """``newswire:12.r0`` -> 12."""
    return int(item.split(":", 1)[1].split(".", 1)[0])


def judge(plan, nodes: Sequence[str], items: Sequence[str]) -> Verdict:
    """Compare observed ``(nodes[i], items[i])`` deliveries with the plan."""
    required, optional = expected_pairs(plan)
    index_of: Dict[str, int] = {}
    serial_of: Dict[str, int] = {}
    width = plan.num_nodes
    observed: List[int] = []
    for node, item in zip(nodes, items):
        index = index_of.get(node)
        if index is None:
            index = index_of[node] = node_index(node)
        serial = serial_of.get(item)
        if serial is None:
            serial = serial_of[item] = item_serial(item)
        observed.append(serial * width + index)
    delivered = set(observed)
    missing = required - delivered
    unexpected = delivered - required - optional
    offenders = [("missing", pair % width, pair // width) for pair in sorted(missing)[:10]]
    offenders += [
        ("unexpected", pair % width, pair // width) for pair in sorted(unexpected)[:10]
    ]
    per_item = Counter(items)
    digest = hashlib.sha256(
        json.dumps(sorted(per_item.items())).encode("utf-8")
    ).hexdigest()
    return Verdict(
        required=len(required),
        delivered_required=len(required & delivered),
        missing=len(missing),
        unexpected=len(unexpected),
        duplicates=len(observed) - len(delivered),
        offenders=offenders[:10],
        guard_digest=digest,
    )


def inputs_digest(plan) -> str:
    """sha256 over everything the plan feeds the system."""
    hasher = hashlib.sha256()
    hasher.update(
        json.dumps(
            [
                plan.num_nodes,
                [(p.time, p.subject, p.body_words) for p in plan.publications],
                plan.subscribes,
                plan.failures,
            ]
        ).encode("utf-8")
    )
    for index in range(plan.num_nodes):
        subjects = ",".join(s.subject for s in plan.interests.subscriptions_for(index))
        hasher.update(subjects.encode("utf-8"))
        hasher.update(b";")
    return hasher.hexdigest()


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of already sorted data, ``q`` in [0, 100]."""
    if not ordered:
        raise ValueError("percentile of empty data")
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_percentiles(latencies: Iterable[float]) -> Tuple[float, float]:
    """``(p50, p99)`` of the publish->deliver latencies."""
    ordered = sorted(latencies)
    return percentile(ordered, 50.0), percentile(ordered, 99.0)
