"""Subscriber populations: who is interested in what.

Interest is Zipf-distributed over subjects — a handful of subjects
(front-page tech news) attract most subscribers while the tail is
sparse.  This is the regime in which Bloom-filter aggregation pays
off: popular bits saturate high in the tree while rare subjects are
pruned close to the root (E5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Sequence

from repro.core.errors import ConfigurationError
from repro.pubsub.subscription import Subscription
from repro.sim.rng import derive_rng, substream_table


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    """Unnormalized Zipf popularity weights for ranks 1..count."""
    if count <= 0:
        raise ConfigurationError("count must be positive")
    if exponent < 0:
        raise ConfigurationError("exponent must be >= 0")
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


@dataclass
class InterestModel:
    """Assigns each subscriber a set of subject subscriptions."""

    subjects: Sequence[str]
    subscriptions_per_node: int = 3
    zipf_exponent: float = 1.0
    predicate_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.subjects:
            raise ConfigurationError("at least one subject is required")
        if self.subscriptions_per_node < 1:
            raise ConfigurationError("subscriptions_per_node must be >= 1")
        if not 0.0 <= self.predicate_probability <= 1.0:
            raise ConfigurationError("predicate_probability must be in [0, 1]")
        self._weights = zipf_weights(len(self.subjects), self.zipf_exponent)
        # Hoisted out of the per-node rejection-sampling loop: the
        # subject list and the cumulative weights are invariant, and
        # rebuilding them per draw made construction quadratic-ish at
        # large subscriptions_per_node / high skew.
        self._subject_list = list(self.subjects)
        self._cum_weights = list(accumulate(self._weights))
        self._assignments: Dict[int, tuple[Subscription, ...]] = {}
        # Predicate-free interest sets, one shared tuple per distinct
        # subject order: subscriptions are immutable, and 10^5 nodes
        # draw from at most P(subjects, count) of them, where one
        # Subscription per node per subject is 4 x 10^5 long-lived
        # objects for every full garbage collection to walk.
        self._shared: Dict[tuple[str, ...], tuple[Subscription, ...]] = {}
        self._substreams: list[int] = []

    def prepare(self, num_nodes: int) -> None:
        """Precompute the per-node substream ids for indices < ``num_nodes``.

        Population builders call this once so the per-node derivation
        drops out of the hot setup loop; the table holds the *same*
        substream ids :func:`repro.sim.rng.derive_substream` would
        produce, so prepared and unprepared models draw identical
        subscriptions (pinned in ``tests/scale/test_equivalence.py``).
        """
        if num_nodes > len(self._substreams):
            self._substreams = substream_table(self.seed, num_nodes)

    def _rng_for(self, index: int) -> random.Random:
        # Collision-free (seed, index) substream: the historical
        # ``(seed << 20) ^ index`` derivation collided for distinct
        # pairs once index reached 2**20 — exactly the 10^5–10^6-node
        # scale target — silently duplicating interest profiles.
        table = self._substreams
        if 0 <= index < len(table):
            return random.Random(table[index])
        return derive_rng(self.seed, index)

    def subscriptions_for(self, index: int) -> tuple[Subscription, ...]:
        """Deterministic per-subscriber interests (cached)."""
        cached = self._assignments.get(index)
        if cached is not None:
            return cached
        rng = self._rng_for(index)
        count = min(self.subscriptions_per_node, len(self.subjects))
        picked: list[str] = []
        while len(picked) < count:
            subject = rng.choices(
                self._subject_list, cum_weights=self._cum_weights, k=1
            )[0]
            if subject not in picked:
                picked.append(subject)
        predicates = [
            f"urgency <= {rng.randint(4, 7)}"
            if rng.random() < self.predicate_probability
            else None
            for _ in picked
        ]
        if any(predicates):
            result = tuple(map(Subscription, picked, predicates))
        else:
            key = tuple(picked)
            result = self._shared.get(key)
            if result is None:
                result = self._shared[key] = tuple(map(Subscription, picked))
        self._assignments[index] = result
        return result

    def subscriber_counts(self, num_nodes: int) -> Dict[str, int]:
        """How many of ``num_nodes`` subscribe to each subject."""
        counts: Dict[str, int] = {subject: 0 for subject in self.subjects}
        for index in range(num_nodes):
            for subscription in self.subscriptions_for(index):
                counts[subscription.subject] += 1
        return counts

    def expected_receivers(self, num_nodes: int, subject: str) -> int:
        """Subscribers whose *subject* matches (ignores predicates)."""
        return sum(
            1
            for index in range(num_nodes)
            if any(
                s.subject == subject for s in self.subscriptions_for(index)
            )
        )
