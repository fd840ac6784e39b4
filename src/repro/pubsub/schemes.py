"""Subscription-aggregation schemes: Bloom filters and category masks.

The paper describes two generations of in-network subscription state:

* the early prototype (§7): one attribute *per publisher*, holding a
  small bitmask of the news categories subscribed to — exact but
  "poorly scalable in the selection of publishers"
  (:class:`PublisherMaskScheme`);
* the production design (§6): a single Bloom filter over all
  subscription subjects, OR-aggregated up the tree — scalable but with
  false positives (:class:`BloomScheme`).

A scheme answers four questions:

1. what attributes does a leaf export for its subscriptions?
2. what AQL aggregates those attributes up the zone tree?
3. what routing hints does a publisher stamp on an item?
4. given a child zone's aggregated row and an item's hints, *may* the
   zone contain a matching subscriber?

Beyond the paper's two generations, two adaptive schemes implement
ROADMAP item 3 (see docs/ROUTING.md):

* :class:`SubgroupScheme` — subscription subgrouping (Shafique, arXiv
  1604.06853 / 1611.08743): subscribers are clustered by interest-set
  similarity (bitmask Jaccard) into ``k`` subgroups, each advertising
  its own tight Bloom summary, with drift-triggered re-clustering
  under re-subscription churn;
* :class:`StabilizingScheme` — a self-stabilizing wrapper (Feldmann et
  al., arXiv 1710.08128): nodes periodically recompute and re-export
  their summaries from their true subscription lists, so arbitrarily
  corrupted routing state provably reconverges (the testkit's
  ``routing-stabilizes`` invariant checks exactly this contract).

Experiment E5 sweeps the paper schemes' accuracy/state trade-off; E12
compares all schemes on redundancy/latency/false-positive fronts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.core.bitmask import CategoryMask, CategoryRegistry
from repro.core.bloom import BloomFilter, bit_positions, positions_mask
from repro.core.config import BloomConfig
from repro.core.errors import ConfigurationError, SubscriptionError
from repro.core.identifiers import ZonePath
from repro.astrolabe.certificates import AggregationCertificate, KeyChain
from repro.astrolabe.mib import AttributeValue
from repro.multicast.messages import RoutingHints
from repro.pubsub.subscription import Subscription


class SubscriptionScheme(ABC):
    """Strategy object shared by all nodes of one deployment."""

    #: Name for the aggregation certificate this scheme installs.
    aggregation_name = "pubsub"

    #: Whether this scheme carries the self-stabilization contract: its
    #: summaries are periodically refreshed from ground truth, so the
    #: ``routing-stabilizes`` invariant holds it to full reconvergence
    #: even after trace-injected corruption.
    stabilizes = False

    @abstractmethod
    def leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        """Attributes a leaf exports to represent ``subscriptions``.

        ``leaf_key`` is a stable identity for the exporting leaf (the
        node-id string).  Stateless schemes ignore it; the adaptive
        :class:`SubgroupScheme` uses it to keep each subscriber's
        subgroup assignment consistent across re-exports.
        """

    @abstractmethod
    def aggregation_source(self) -> str:
        """AQL aggregating those attributes into parent rows."""

    def summary_attributes(self) -> tuple[str, ...]:
        """Names of the subscription-summary attributes a leaf exports.

        The corruption injector flips exactly these, and the
        ``routing-stabilizes`` invariant compares exactly these against
        the scheme's recomputed ground truth.
        """
        return ("subs",)

    def summary_matches(
        self,
        exported: Mapping[str, object],
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> bool:
        """Does a leaf's exported summary state match its true
        subscriptions?  Must be a *pure read* — invariant checkers call
        it at finalize time and may not perturb scheme state."""
        expected = self.expected_leaf_attributes(subscriptions, leaf_key)
        return all(exported.get(name) == value for name, value in expected.items())

    def expected_leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        """Ground-truth summary for ``subscriptions`` without mutating
        any clustering state (stateless schemes just re-encode)."""
        return self.leaf_attributes(subscriptions)

    @abstractmethod
    def hints_for(self, subject: str, publisher: str) -> RoutingHints:
        """Routing hints a publisher attaches to an item (§6: "an
        attribute is added to the data representing the bit position in
        the subscription array this publication corresponds to")."""

    @abstractmethod
    def zone_may_match(self, row: Mapping[str, object], hints: RoutingHints) -> bool:
        """The forwarding-node test against a child zone's row."""

    def certificate(
        self,
        keychain: KeyChain,
        issuer: str = "admin",
        issued_at: float = 0.0,
        scope: ZonePath = ZonePath(),
    ) -> AggregationCertificate:
        return AggregationCertificate.issue(
            self.aggregation_name,
            self.aggregation_source(),
            issuer,
            keychain,
            scope=scope,
            issued_at=issued_at,
        )


class BloomScheme(SubscriptionScheme):
    """§6: one Bloom filter over all subscription subjects.

    Leaf rows export the filter as an integer attribute ``subs``;
    parents aggregate with ``BOR`` (binary OR); items carry their
    subject's bit positions; forwarders test those positions.
    """

    #: Bound on the hints→mask memo (one entry per distinct subject in
    #: flight; cleared wholesale if a workload exceeds it).
    _MASK_CACHE_LIMIT = 65536

    def __init__(self, bloom: Optional[BloomConfig] = None):
        # ``None`` default, constructed per instance: a shared
        # module-level default instance would be mutated/aliased across
        # every default-constructed scheme.
        bloom = bloom if bloom is not None else BloomConfig()
        bloom.validate()
        self.config = bloom
        # hints tuple -> precomputed integer mask.  The scheme object is
        # shared by every node of a deployment, so the mask for an item
        # is folded once system-wide and the per-forward test collapses
        # to ``bits & mask == mask`` (one big-int op) at every hop.
        self._masks: Dict[tuple, int] = {}

    def _mask_for(self, positions: tuple) -> int:
        mask = self._masks.get(positions)
        if mask is None:
            if len(self._masks) >= self._MASK_CACHE_LIMIT:
                self._masks.clear()
            mask = positions_mask(positions)
            self._masks[positions] = mask
        return mask

    def leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        bloom = BloomFilter(self.config.num_bits, self.config.num_hashes)
        for subscription in subscriptions:
            bloom.add(subscription.subject)
        return {"subs": bloom.to_int()}

    def aggregation_source(self) -> str:
        return "SELECT BOR(subs) AS subs, UNION(publishers) AS publishers"

    def hints_for(self, subject: str, publisher: str) -> RoutingHints:
        return bit_positions(subject, self.config.num_bits, self.config.num_hashes)

    def zone_may_match(self, row: Mapping[str, object], hints: RoutingHints) -> bool:
        bits = row.get("subs")
        if not isinstance(bits, int):
            return True  # no subscription info: fail open, filter at leaf
        mask = self._mask_for(hints)
        return bits & mask == mask


class PublisherMaskScheme(SubscriptionScheme):
    """§7: per-publisher category bitmask attributes (the prototype).

    Subjects are ``"publisher/category"`` strings; each known publisher
    contributes one leaf attribute ``pub_<publisher>`` whose bits are
    the subscribed categories from that publisher's registry.  Exact
    (no false positives) but per-publisher state everywhere — "limited
    scalability in the selection of publishers".
    """

    def __init__(self, registries: Mapping[str, CategoryRegistry]):
        if not registries:
            raise SubscriptionError("at least one publisher registry is required")
        self.registries = dict(registries)

    @staticmethod
    def split_subject(subject: str) -> tuple[str, str]:
        publisher, _, category = subject.partition("/")
        if not publisher or not category:
            raise SubscriptionError(
                f"mask-scheme subjects are 'publisher/category', got {subject!r}"
            )
        return publisher, category

    def _attr(self, publisher: str) -> str:
        return f"pub_{publisher}"

    def summary_attributes(self) -> tuple[str, ...]:
        return tuple(self._attr(p) for p in sorted(self.registries))

    def leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        masks: Dict[str, CategoryMask] = {
            publisher: CategoryMask(registry)
            for publisher, registry in self.registries.items()
        }
        for subscription in subscriptions:
            publisher, category = self.split_subject(subscription.subject)
            registry = self.registries.get(publisher)
            if registry is None:
                raise SubscriptionError(f"unknown publisher {publisher!r}")
            masks[publisher].add(category)
        return {
            self._attr(publisher): mask.to_int() for publisher, mask in masks.items()
        }

    def aggregation_source(self) -> str:
        items = ", ".join(
            f"BOR({self._attr(p)}) AS {self._attr(p)}"
            for p in sorted(self.registries)
        )
        return f"SELECT {items}, UNION(publishers) AS publishers"

    def hints_for(self, subject: str, publisher: str) -> RoutingHints:
        subject_publisher, category = self.split_subject(subject)
        registry = self.registries.get(subject_publisher)
        if registry is None:
            raise SubscriptionError(f"unknown publisher {subject_publisher!r}")
        return (subject_publisher, 1 << registry.bit_for(category))

    def zone_may_match(self, row: Mapping[str, object], hints: RoutingHints) -> bool:
        publisher, mask = hints
        bits = row.get(self._attr(publisher))
        if not isinstance(bits, int):
            return True  # no info for this publisher: fail open
        return bool(bits & mask)


class PrefixBloomScheme(BloomScheme):
    """Hierarchical subjects with wildcard subscriptions.

    The paper plans to "enrich the subscription space within which our
    Bloom filters operate" as it moves to NewsML (§7).  This scheme
    implements one such enrichment: subjects are slash-paths
    (``reuters/sports/football``) and a subscription may name a whole
    subtree (``reuters/sports/*``).

    Encoding: a wildcard subscription sets the filter bit of its
    *prefix key* (``reuters/sports/*``); an exact subscription sets the
    bit of the subject itself.  A published item carries one hint
    *group* per way it could be matched — its exact subject plus every
    ancestor's prefix key — and a zone may match if **any** group's
    bits are all present.  Filtering stays sound (no false negatives):
    whatever a leaf below could match, one of the groups tests for.
    """

    @staticmethod
    def prefix_keys(subject: str) -> tuple[str, ...]:
        """All filter keys an item with ``subject`` can be matched by.

        Includes the subject's *own* wildcard key: ``a/b/*`` matches
        ``a/b`` itself, so an item on ``a/b`` must test that group too.
        """
        parts = subject.split("/")
        keys = [subject]
        for depth in range(1, len(parts) + 1):
            keys.append("/".join(parts[:depth]) + "/*")
        return tuple(keys)

    def leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        bloom = BloomFilter(self.config.num_bits, self.config.num_hashes)
        for subscription in subscriptions:
            bloom.add(subscription.subject)  # exact or ``.../*`` key
        return {"subs": bloom.to_int()}

    def hints_for(self, subject: str, publisher: str) -> RoutingHints:
        """One position-group per matchable key (tuple of tuples)."""
        return tuple(
            bit_positions(key, self.config.num_bits, self.config.num_hashes)
            for key in self.prefix_keys(subject)
        )

    def zone_may_match(self, row: Mapping[str, object], hints: RoutingHints) -> bool:
        bits = row.get("subs")
        if not isinstance(bits, int):
            return True  # no subscription info: fail open, filter at leaf
        for group in hints:
            mask = self._mask_for(group)
            if bits & mask == mask:
                return True
        return False


@dataclass
class SubgroupStats:
    """Clustering telemetry :class:`SubgroupScheme` accumulates."""

    #: Members currently registered (distinct leaf keys seen).
    members: int = 0
    #: Re-exports whose best-matching subgroup differed from the
    #: member's current assignment (the drift signal).
    drift_events: int = 0
    #: Full re-clustering passes triggered by the drift threshold.
    reclusters: int = 0


class SubgroupScheme(BloomScheme):
    """Subscription subgrouping: per-cluster Bloom summaries.

    A flat Bloom aggregate ORs *every* subscriber's bits together, so a
    zone containing one sports fan and one markets trader appears to
    subscribe to any subject whose bits happen to split across the two
    interest sets — the cross-member false positives Shafique's
    subgrouping work (arXiv 1604.06853, 1611.08743) attacks.  This
    scheme clusters subscribers by interest-set similarity (Jaccard
    over the interest bitmask ints the Bloom encoding already produces)
    into ``num_subgroups`` subgroups; each leaf exports its bits under
    its subgroup's attribute only (``subs_g0`` .. ``subs_g{k-1}``), and
    a forwarder tests the item against each per-subgroup aggregate
    separately.  Because the union of the subgroup aggregates equals
    the flat aggregate, the test can only be *tighter*: zero false
    negatives, never more false positives.

    Clustering is online and deterministic: a new interest set joins
    the most-similar subgroup centroid (ties to the lowest index; with
    no overlap anywhere, the smallest subgroup).  Re-subscription churn
    makes assignments drift away from their best cluster; when the
    drifted fraction exceeds ``drift_threshold``, the scheme re-clusters
    every known member from scratch (members pick the new placement up
    at their next summary export — the stabilizing wrapper's refresh
    rounds, or their own next (un)subscribe).
    """

    def __init__(
        self,
        bloom: Optional[BloomConfig] = None,
        num_subgroups: int = 4,
        drift_threshold: float = 0.25,
    ):
        super().__init__(bloom)
        if num_subgroups < 2:
            raise SubscriptionError("num_subgroups must be >= 2")
        if not 0.0 < drift_threshold <= 1.0:
            raise SubscriptionError("drift_threshold must be in (0, 1]")
        self.num_subgroups = num_subgroups
        self.drift_threshold = drift_threshold
        self._assignment: Dict[str, int] = {}      # leaf_key -> subgroup
        self._member_bits: Dict[str, int] = {}     # leaf_key -> interest mask
        self._centroids: List[int] = [0] * num_subgroups
        self._group_sizes: List[int] = [0] * num_subgroups
        self._drifted: Set[str] = set()
        self.stats = SubgroupStats()

    def _attr(self, group: int) -> str:
        return f"subs_g{group}"

    def summary_attributes(self) -> tuple[str, ...]:
        return tuple(self._attr(g) for g in range(self.num_subgroups))

    @staticmethod
    def jaccard(a: int, b: int) -> float:
        """Interest-set similarity of two bitmask ints."""
        union = a | b
        if not union:
            return 0.0
        return (a & b).bit_count() / union.bit_count()

    def _best_subgroup(self, bits: int) -> int:
        """Deterministic placement: most-similar centroid, ties to the
        lowest index; a mask overlapping no centroid balances onto the
        smallest subgroup (again ties low)."""
        best_group, best_similarity = 0, 0.0
        for group, centroid in enumerate(self._centroids):
            similarity = self.jaccard(bits, centroid)
            if similarity > best_similarity:
                best_group, best_similarity = group, similarity
        if best_similarity > 0.0:
            return best_group
        return min(range(self.num_subgroups), key=lambda g: (self._group_sizes[g], g))

    def _place(self, leaf_key: str, bits: int) -> int:
        group = self._best_subgroup(bits)
        self._assignment[leaf_key] = group
        self._member_bits[leaf_key] = bits
        self._centroids[group] |= bits
        self._group_sizes[group] += 1
        return group

    def _observe(self, leaf_key: str, bits: int) -> int:
        """Register/refresh a member's interest mask; returns its
        subgroup.  Tracks drift and re-clusters past the threshold."""
        assigned = self._assignment.get(leaf_key)
        if assigned is None:
            group = self._place(leaf_key, bits)
            self.stats.members = len(self._assignment)
            return group
        if bits != self._member_bits[leaf_key]:
            self._member_bits[leaf_key] = bits
            # Centroids only ever grow between re-clusters (removing a
            # member's old bits from an OR is not incremental); stale
            # centroid bits can cost accuracy, never correctness.
            self._centroids[assigned] |= bits
            if self._best_subgroup(bits) != assigned and leaf_key not in self._drifted:
                self._drifted.add(leaf_key)
                self.stats.drift_events += 1
            if len(self._drifted) > self.drift_threshold * len(self._assignment):
                self._recluster()
        return self._assignment[leaf_key]

    def _recluster(self) -> None:
        """Re-place every known member from scratch (deterministic:
        members are re-inserted in sorted leaf-key order)."""
        self.stats.reclusters += 1
        self._centroids = [0] * self.num_subgroups
        self._group_sizes = [0] * self.num_subgroups
        self._drifted.clear()
        members = sorted(self._member_bits.items())
        self._assignment.clear()
        for leaf_key, bits in members:
            self._place(leaf_key, bits)

    def _encode(self, subscriptions: Sequence[Subscription]) -> int:
        bloom = BloomFilter(self.config.num_bits, self.config.num_hashes)
        for subscription in subscriptions:
            bloom.add(subscription.subject)
        return bloom.to_int()

    def leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        bits = self._encode(subscriptions)
        if leaf_key is None:
            group = self._best_subgroup(bits)  # anonymous: no registration
        else:
            group = self._observe(leaf_key, bits)
        return {
            self._attr(g): bits if g == group else 0
            for g in range(self.num_subgroups)
        }

    def expected_leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        bits = self._encode(subscriptions)
        group = self._assignment.get(leaf_key) if leaf_key is not None else None
        if group is None:
            group = self._best_subgroup(bits)
        return {
            self._attr(g): bits if g == group else 0
            for g in range(self.num_subgroups)
        }

    def summary_matches(
        self,
        exported: Mapping[str, object],
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> bool:
        """Placement-independent ground truth: the union of the
        exported per-subgroup summaries must equal the recomputed flat
        interest filter, spread over exactly one subgroup.  (A
        re-cluster elsewhere may change this member's *assignment*
        before its next export; that moves bits between attributes
        without making routing state wrong.)"""
        values = []
        for name in self.summary_attributes():
            value = exported.get(name)
            if not isinstance(value, int):
                return False
            values.append(value)
        bits = self._encode(subscriptions)
        union = 0
        for value in values:
            union |= value
        populated = sum(1 for value in values if value)
        return union == bits and populated == (1 if bits else 0)

    def zone_may_match(self, row: Mapping[str, object], hints: RoutingHints) -> bool:
        mask = self._mask_for(hints)
        saw_summary = False
        for group in range(self.num_subgroups):
            bits = row.get(self._attr(group))
            if not isinstance(bits, int):
                continue
            saw_summary = True
            if bits & mask == mask:
                return True
        # No subgroup attribute at all: fail open, filter at the leaf.
        return not saw_summary

    def aggregation_source(self) -> str:
        items = ", ".join(
            f"BOR({self._attr(g)}) AS {self._attr(g)}"
            for g in range(self.num_subgroups)
        )
        return f"SELECT {items}, UNION(publishers) AS publishers"


class StabilizingScheme(SubscriptionScheme):
    """Self-stabilizing repair wrapper around any other scheme.

    Adds the recovery contract of Feldmann et al.'s supervised
    self-stabilizing pub-sub (arXiv 1710.08128) to an ``inner`` scheme:
    nodes running a stabilizing scheme re-derive their summary
    attributes from their true subscription lists every
    ``refresh_interval`` seconds (:meth:`PubSubNode._summary_refresh_round`)
    and re-export on any mismatch.  Because the leaf row is the *root*
    of all aggregated routing state — parents recompute their
    aggregates from child rows on every gossip round — repairing the
    leaves provably reconverges the whole tree: after the last
    corruption, every summary is correct within one refresh interval
    plus an aggregation epidemic (O(log n) gossip rounds).

    The testkit's ``routing-stabilizes`` invariant checks this contract
    end-of-run; the fuzz routing profile injects ``summary-corruption``
    and churn-storm events against it.
    """

    stabilizes = True

    def __init__(self, inner: SubscriptionScheme, refresh_interval: float = 5.0):
        if refresh_interval <= 0:
            raise SubscriptionError("refresh_interval must be positive")
        self.inner = inner
        self.refresh_interval = refresh_interval
        self.aggregation_name = inner.aggregation_name

    @property
    def config(self):
        """The inner scheme's Bloom geometry (when it has one)."""
        return getattr(self.inner, "config", None)

    def leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        return self.inner.leaf_attributes(subscriptions, leaf_key)

    def expected_leaf_attributes(
        self,
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> Dict[str, AttributeValue]:
        return self.inner.expected_leaf_attributes(subscriptions, leaf_key)

    def summary_attributes(self) -> tuple[str, ...]:
        return self.inner.summary_attributes()

    def summary_matches(
        self,
        exported: Mapping[str, object],
        subscriptions: Sequence[Subscription],
        leaf_key: Optional[str] = None,
    ) -> bool:
        return self.inner.summary_matches(exported, subscriptions, leaf_key)

    def aggregation_source(self) -> str:
        return self.inner.aggregation_source()

    def hints_for(self, subject: str, publisher: str) -> RoutingHints:
        return self.inner.hints_for(subject, publisher)

    def zone_may_match(self, row: Mapping[str, object], hints: RoutingHints) -> bool:
        return self.inner.zone_may_match(row, hints)


def categories_registry(publisher_categories: Mapping[str, Iterable[str]]) -> Dict[str, CategoryRegistry]:
    """Build registries from ``{publisher: [categories...]}`` (test helper)."""
    registries: Dict[str, CategoryRegistry] = {}
    for publisher, categories in publisher_categories.items():
        category_list = list(categories)
        registry = CategoryRegistry(capacity=max(32, len(category_list)))
        for category in category_list:
            registry.register(category)
        registries[publisher] = registry
    return registries


#: The forwarding-scheme ladder by name, flat baselines first: what E12
#: sweeps and what a testkit scenario may run under (docs/ROUTING.md).
SCHEME_NAMES: tuple[str, ...] = (
    "bloom",
    "subgroup",
    "stabilizing-bloom",
    "stabilizing-subgroup",
)


def scheme_by_name(name: str, bloom_config: BloomConfig) -> SubscriptionScheme:
    """Build the rung of :data:`SCHEME_NAMES` called ``name`` over
    ``bloom_config``'s filter geometry."""
    if name not in SCHEME_NAMES:
        raise ConfigurationError(
            f"unknown scheme {name!r}; choose from {SCHEME_NAMES}"
        )
    flat = SubgroupScheme if name.endswith("subgroup") else BloomScheme
    scheme = flat(bloom_config)
    return StabilizingScheme(scheme) if name.startswith("stabilizing-") else scheme
