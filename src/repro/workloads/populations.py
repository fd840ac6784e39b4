"""Subscriber populations: who is interested in what.

Interest is Zipf-distributed over subjects — a handful of subjects
(front-page tech news) attract most subscribers while the tail is
sparse.  This is the regime in which Bloom-filter aggregation pays
off: popular bits saturate high in the tree while rare subjects are
pruned close to the root (E5).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
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
        # The check random.choices made on every call, made once.
        self._total = self._cum_weights[-1] + 0.0
        if not (self._total > 0.0 and isfinite(self._total)):
            raise ConfigurationError("subject weights must sum to a positive finite total")
        #: Interests of every index below ``len(_prepared)`` (:meth:`prepare`).
        self._prepared: list[tuple[Subscription, ...]] = []
        #: Interests drawn on demand, beyond the prepared range.
        self._assignments: Dict[int, tuple[Subscription, ...]] = {}
        # Predicate-free interest sets, one shared tuple per distinct
        # subject order: subscriptions are immutable, and 10^5 nodes
        # draw from at most P(subjects, count) of them, where one
        # Subscription per node per subject is 4 x 10^5 long-lived
        # objects for every full garbage collection to walk.
        self._shared: Dict[tuple[str, ...], tuple[Subscription, ...]] = {}

    def prepare(self, num_nodes: int) -> None:
        """Draw the interests of every index below ``num_nodes`` now.

        Population builders call this once, so the draw is one loop
        that re-seeds a single generator per index with that index's
        collision-free ``(seed, index)`` substream
        (:func:`repro.sim.rng.substream_table`, the ids
        :func:`repro.sim.rng.derive_substream` gives); seeding an
        existing generator and building a new one give the same state.
        Prepared and unprepared models therefore draw identical
        subscriptions (pinned in ``tests/scale/test_equivalence.py``).
        """
        prepared = self._prepared
        if num_nodes <= len(prepared):
            return
        rng = random.Random()
        reseed = rng.seed
        draw = self._draw
        append = prepared.append
        for stream in substream_table(self.seed, num_nodes)[len(prepared):]:
            reseed(stream)
            append(draw(rng))

    def _draw(self, rng: random.Random) -> tuple[Subscription, ...]:
        """One subscriber's interests from its own seeded ``rng``.

        ``subjects[bisect_right(cum, random() * total, 0, hi)]`` is the
        body of ``rng.choices(subjects, cum_weights=cum, k=1)[0]``, so
        the draws are the ones ``choices`` makes.
        """
        subjects = self._subject_list
        cum = self._cum_weights
        total = self._total
        hi = len(subjects) - 1
        draw = rng.random
        count = min(self.subscriptions_per_node, len(subjects))
        picked: list[str] = []
        while len(picked) < count:
            subject = subjects[bisect_right(cum, draw() * total, 0, hi)]
            if subject not in picked:
                picked.append(subject)
        # The predicate coin flips are the last draws on the stream, and
        # at probability zero none of them can come up.
        if self.predicate_probability:
            predicates = [
                f"urgency <= {rng.randint(4, 7)}"
                if draw() < self.predicate_probability
                else None
                for _ in picked
            ]
            if any(predicates):
                return tuple(map(Subscription, picked, predicates))
        key = tuple(picked)
        result = self._shared.get(key)
        if result is None:
            result = self._shared[key] = tuple(map(Subscription, picked))
        return result

    def subscriptions_for(self, index: int) -> tuple[Subscription, ...]:
        """Deterministic per-subscriber interests (cached)."""
        prepared = self._prepared
        if 0 <= index < len(prepared):
            return prepared[index]
        result = self._assignments.get(index)
        if result is None:
            # Collision-free (seed, index) substream: the historical
            # ``(seed << 20) ^ index`` derivation collided for distinct
            # pairs once index reached 2**20 — exactly the 10^5–10^6-node
            # scale target — silently duplicating interest profiles.
            result = self._assignments[index] = self._draw(
                derive_rng(self.seed, index)
            )
        return result
