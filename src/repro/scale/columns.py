"""Struct-of-arrays membership and interest store.

One :class:`MembershipColumns` replaces ``num_nodes`` agent objects
with parallel columns keyed by dense node index: heartbeat timestamps,
Bloom interest masks, exact subject-id tuples, alive/member/
representative flags.  Zone structure is pure arithmetic — the same
balanced layout :func:`repro.astrolabe.deployment.balanced_paths`
assigns, so node ``index`` lives in leaf zone ``index // width`` and
its ancestor at depth ``d`` is ``index // width**(levels - d)``, and
the string names match the object backend's digit for digit.

Aggregates (the zone tree's ``BOR(subs)`` / ``SUM(nmembers)`` rows)
are flat per-depth lists rather than replicated tables; the staged
propagation in :mod:`repro.scale.batched` keeps them honest at gossip
cadence.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from repro.astrolabe.deployment import balanced_layout
from repro.core.errors import ConfigurationError


class MembershipColumns:
    """Columnar node state for one balanced zone tree."""

    def __init__(
        self,
        num_nodes: int,
        branching: int,
        representatives: int = 2,
    ):
        if representatives < 1:
            raise ConfigurationError("representatives must be >= 1")
        levels, width = balanced_layout(num_nodes, branching)
        self.num_nodes = num_nodes
        self.levels = levels
        self.width = width
        #: ``spans[d]`` = nodes per zone at depth ``d`` (root = 0).
        self.spans: List[int] = [width ** (levels - d) for d in range(levels + 1)]
        #: ``zone_counts[d]`` = number of zones at depth ``d``.
        self.zone_counts: List[int] = [
            (num_nodes - 1) // span + 1 for span in self.spans
        ]

        # -- per-node columns ------------------------------------------
        #: Last refresh timestamp (authoritative only in *unclean*
        #: zones; clean zones carry one shared ``zone_refresh`` stamp).
        self.heartbeat = array("d", bytes(8 * num_nodes))
        #: Bloom interest mask per node.  A list, not an ``array``:
        #: masks are ints wider than a machine word.  Nodes of one
        #: interest class share one mask object.
        self.interest: List[int] = [0] * num_nodes
        #: Interned subject ids per node — the exact leaf-level match,
        #: one shared tuple per interest class.
        self.subjects: List[Tuple[int, ...]] = [()] * num_nodes
        self.alive = bytearray(b"\x01" * num_nodes)
        #: Still part of its zone's membership (cleared by expiry).
        self.member = bytearray(b"\x01" * num_nodes)
        self.representative = bytearray(num_nodes)

        # -- per-leaf-zone columns -------------------------------------
        leaf_count = self.zone_counts[levels - 1]
        #: Shared heartbeat stamp for zones with no failed members.
        self.zone_refresh = array("d", bytes(8 * leaf_count))
        #: 1 = every member alive, so one stamp covers the whole zone.
        self.zone_clean = bytearray(b"\x01" * leaf_count)

        for zone in range(leaf_count):
            members = self.leaf_members(zone)
            for index in members[: min(representatives, len(members))]:
                self.representative[index] = 1

        # -- aggregates -------------------------------------------------
        #: ``agg_subs[d][z]`` / ``agg_count[d][z]``: the BOR interest
        #: mask and membership count of zone ``z`` at depth ``d``.
        self.agg_subs: List[List[int]] = [
            [0] * count for count in self.zone_counts[:levels]
        ]
        self.agg_count: List[List[int]] = [
            [0] * count for count in self.zone_counts[:levels]
        ]

        self._names: List[Optional[str]] = [None] * num_nodes

    # -- zone arithmetic ---------------------------------------------------

    @property
    def leaf_depth(self) -> int:
        return self.levels - 1

    @property
    def leaf_zone_count(self) -> int:
        return self.zone_counts[self.levels - 1]

    def leaf_zone(self, index: int) -> int:
        return index // self.spans[self.levels - 1]

    def zone_of(self, index: int, depth: int) -> int:
        """Id of ``index``'s ancestor zone at ``depth``."""
        return index // self.spans[depth]

    def leaf_members(self, zone: int) -> range:
        span = self.spans[self.levels - 1]
        start = zone * span
        return range(start, min(start + span, self.num_nodes))

    def zone_members(self, depth: int, zone: int) -> range:
        span = self.spans[depth]
        start = zone * span
        return range(start, min(start + span, self.num_nodes))

    def children(self, depth: int, zone: int) -> range:
        """Child zone ids (at ``depth + 1``) of zone ``zone`` at ``depth``."""
        base = zone * self.width
        return range(base, min(base + self.width, self.zone_counts[depth + 1]))

    def zone_label(self, zone: int) -> str:
        """The child label of a zone inside its parent (``z<digit>``)."""
        return f"z{zone % self.width}"

    def node_path(self, index: int) -> str:
        """The node-id string, identical to ``balanced_paths``' output."""
        name = self._names[index]
        if name is None:
            digits: List[int] = []
            remaining = index
            for _ in range(self.levels):
                digits.append(remaining % self.width)
                remaining //= self.width
            digits.reverse()
            labels = [f"z{digit}" for digit in digits[:-1]]
            labels.append(f"n{index}")
            name = "/" + "/".join(labels)
            self._names[index] = name
        return name

    # -- carriers ----------------------------------------------------------

    def carrier_for(self, depth: int, zone: int) -> Optional[int]:
        """The member that receives a zone's copy and fans it out.

        Mirrors representative election closely enough for timing: the
        first alive representative, falling back to the first alive
        member; ``None`` when the zone is entirely dead.
        """
        alive = self.alive
        representative = self.representative
        fallback = -1
        for index in self.zone_members(depth, zone):
            if not alive[index] or not self.member[index]:
                continue
            if representative[index]:
                return index
            if fallback < 0:
                fallback = index
        return fallback if fallback >= 0 else None

    # -- aggregates --------------------------------------------------------

    def recompute_zone(self, depth: int, zone: int) -> Tuple[int, int]:
        """Fresh ``(subs_mask, nmembers)`` for one zone.

        Leaf zones fold the member columns (crashed-but-unexpired
        members still count, exactly like their unreaped table rows in
        the object backend); internal zones fold their children's
        aggregates, which the staged propagation guarantees are already
        current when the parent is recomputed.
        """
        if depth == self.levels - 1:
            mask = 0
            count = 0
            member = self.member
            interest = self.interest
            for index in self.leaf_members(zone):
                if member[index]:
                    mask |= interest[index]
                    count += 1
            return mask, count
        mask = 0
        count = 0
        child_subs = self.agg_subs[depth + 1]
        child_count = self.agg_count[depth + 1]
        for child in self.children(depth, zone):
            mask |= child_subs[child]
            count += child_count[child]
        return mask, count

    def build_aggregates(self) -> None:
        """Full bottom-up aggregate computation (time-zero pre-seed)."""
        for depth in range(self.levels - 1, -1, -1):
            subs = self.agg_subs[depth]
            counts = self.agg_count[depth]
            for zone in range(self.zone_counts[depth]):
                subs[zone], counts[zone] = self.recompute_zone(depth, zone)

    # -- convenience -------------------------------------------------------

    def alive_members(self, depth: int, zone: int) -> Iterator[int]:
        alive = self.alive
        member = self.member
        for index in self.zone_members(depth, zone):
            if alive[index] and member[index]:
                yield index

    def __repr__(self) -> str:
        return (
            f"MembershipColumns(n={self.num_nodes}, levels={self.levels}, "
            f"width={self.width}, leaf_zones={self.leaf_zone_count})"
        )
