"""Batched gossip rounds: one kernel event per population round.

The object backend schedules one jittered timer per agent per round —
``O(N)`` heap traffic before any protocol work happens.  Here a single
:meth:`BatchedGossip.run_round` event advances the whole population:

1. **heartbeat refresh** — clean zones take one shared stamp
   (``zone_refresh``), zones with failed members refresh per member;
2. **expiry** — members whose heartbeat fell behind the shared
   :func:`repro.astrolabe.agent.expiry_cutoff` leave the membership
   ("node failure & automatic zone reconfiguration", §10);
3. **staged aggregate propagation** — dirty zones recompute their
   ``BOR(subs)`` / ``SUM(nmembers)`` aggregates and mark their parent
   dirty *for the next round*: exactly one tree level per gossip
   round, the cadence the object backend's bottom-up aggregation
   exhibits, so subscription changes reach the root in ``levels - 1``
   rounds plus the replica spread below;
4. **root-replica anti-entropy** — each top-level zone keeps a full
   :class:`~repro.astrolabe.zone.ZoneTable` replica of the root table.
   Per round every replica reconciles with one partner on a doubling
   ring (stride ``2^(round mod ceil(log2 T))``), spreading any change
   to all ``T`` replicas in ``O(log T)`` rounds.  Pairs whose stores'
   :attr:`~repro.gossip.antientropy.VersionedStore.generation`
   counters are unchanged since their last exchange are skipped, so a
   converged population pays ``O(T)`` dict probes per round and zero
   digest work.

Together with the analytic dissemination walk in
:mod:`repro.scale.backend` this reproduces the object backend's
delivery sets and convergence cadence with event-kernel cost
``O(rounds)`` instead of ``O(rounds × N)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.astrolabe.agent import expiry_cutoff
from repro.astrolabe.mib import Row
from repro.astrolabe.zone import ZoneTable
from repro.core.config import NewsWireConfig
from repro.core.identifiers import ZonePath
from repro.scale.columns import MembershipColumns
from repro.sim.engine import Simulation


class BatchedGossip:
    """Whole-population anti-entropy, one event per round."""

    def __init__(
        self,
        sim: Simulation,
        columns: MembershipColumns,
        config: NewsWireConfig,
    ):
        self.sim = sim
        self.columns = columns
        self.config = config
        self.round_index = 0
        self._timer = None
        #: Dirty zone ids per depth, processed one level per round.
        self._pending: List[Set[int]] = [set() for _ in range(columns.levels)]
        #: Last seen (own, partner) store generations per ring pair.
        self._pair_gens: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.rounds_run = 0
        self.reconciles = 0
        self.reconciles_skipped = 0

        # One root-table replica per top-level zone (the tables every
        # member of that zone would hold).  With a single top zone
        # (levels == 1, or a tree narrower than its width) the root
        # view reads the aggregate column directly and the ring is
        # degenerate.
        top_count = columns.zone_counts[1] if columns.levels > 1 else 1
        self.replicas: List[ZoneTable] = [
            ZoneTable(ZonePath(), max_rows=max(2, top_count))
            for _ in range(top_count)
        ]
        self._seed_epoch = 0
        self._seed_replicas()

    # -- construction ------------------------------------------------------

    def _top_row(self, zone: int, version: Tuple[float, str]) -> Row:
        label = f"z{zone}"
        columns = self.columns
        depth = 1 if columns.levels > 1 else 0
        return Row(
            {
                "subs": columns.agg_subs[depth][zone],
                "nmembers": columns.agg_count[depth][zone],
                "zone": label,
                "leaf": False,
            },
            version,
            f"agg:{label}",
        )

    def _seed_replicas(self) -> None:
        """Consistent time-zero snapshot, mirroring ``_preseed``.

        Re-seeding (after the build installs time-zero interests) bumps
        the writer tag so the versioned stores accept the fresh rows
        over the construction-time zeros.
        """
        self._seed_epoch += 1
        version = (0.0, f"agg:init{self._seed_epoch}")
        top = len(self.replicas) if self.columns.levels > 1 else 1
        for zone in range(top):
            row = self._top_row(zone, version)
            for replica in self.replicas:
                replica.put_row(f"z{zone}", row)
        self._pair_gens.clear()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.sim.call_every(
                self.config.gossip.interval, self.run_round
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- mutation entry points --------------------------------------------

    def mark_dirty(self, leaf_zone: int) -> None:
        """A leaf zone's membership or interests changed."""
        self._pending[self.columns.levels - 1].add(leaf_zone)

    def fail_node(self, index: int) -> None:
        """Crash ``index``: heartbeats stop, expiry reaps it later."""
        columns = self.columns
        if not columns.alive[index]:
            return
        zone = columns.leaf_zone(index)
        if columns.zone_clean[zone]:
            # Materialize the shared stamp before per-member tracking.
            stamp = columns.zone_refresh[zone]
            heartbeat = columns.heartbeat
            for member in columns.leaf_members(zone):
                if heartbeat[member] < stamp:
                    heartbeat[member] = stamp
            columns.zone_clean[zone] = 0
        columns.alive[index] = 0

    def recover_node(self, index: int) -> None:
        columns = self.columns
        if columns.alive[index] and columns.member[index]:
            return
        columns.alive[index] = 1
        columns.member[index] = 1
        columns.heartbeat[index] = self.sim.now
        self.mark_dirty(columns.leaf_zone(index))

    # -- the round ---------------------------------------------------------

    def run_round(self) -> None:
        self.round_index += 1
        self.rounds_run += 1
        now = self.sim.now
        columns = self.columns
        cutoff = expiry_cutoff(now, self.config)

        # 1 + 2: heartbeat refresh and expiry.
        heartbeat = columns.heartbeat
        for zone in range(columns.leaf_zone_count):
            if columns.zone_clean[zone]:
                columns.zone_refresh[zone] = now
                continue
            expired = False
            failed_left = False
            for index in columns.leaf_members(zone):
                if not columns.member[index]:
                    continue
                if columns.alive[index]:
                    heartbeat[index] = now
                elif heartbeat[index] < cutoff:
                    columns.member[index] = 0
                    expired = True
                else:
                    failed_left = True
            if expired:
                self.mark_dirty(zone)
            if not failed_left:
                # All failures reaped: the zone is clean again and can
                # go back to the shared-stamp fast path.
                columns.zone_clean[zone] = 1
                columns.zone_refresh[zone] = now

        # 3: staged propagation, one level per round.
        levels = columns.levels
        nxt: List[Set[int]] = [set() for _ in range(levels)]
        for depth in range(levels - 1, -1, -1):
            pending = self._pending[depth]
            if not pending:
                continue
            subs = columns.agg_subs[depth]
            counts = columns.agg_count[depth]
            for zone in sorted(pending):
                mask, count = columns.recompute_zone(depth, zone)
                if mask == subs[zone] and count == counts[zone]:
                    continue
                subs[zone] = mask
                counts[zone] = count
                if depth == 0:
                    continue  # the root row has no parent
                if depth == 1:
                    # Reached the top: install into the zone's own root
                    # replica (the ring spreads it from here) and keep
                    # the canonical root aggregate honest next round.
                    self.replicas[zone].put_row(
                        f"z{zone}", self._top_row(zone, (now, f"agg:z{zone}"))
                    )
                nxt[depth - 1].add(zone // columns.width)
            pending.clear()
        for depth, zones in enumerate(nxt):
            self._pending[depth] |= zones

        # 4: root-replica anti-entropy on a doubling ring.
        replica_count = len(self.replicas)
        if replica_count > 1:
            strides = max(1, (replica_count - 1).bit_length())
            stride = (1 << (self.round_index % strides)) % replica_count
            if stride == 0:
                stride = 1
            for here in range(replica_count):
                there = (here + stride) % replica_count
                a = self.replicas[here]
                b = self.replicas[there]
                key = (here, there)
                generations = (a.generation, b.generation)
                if self._pair_gens.get(key) == generations:
                    self.reconciles_skipped += 1
                    continue
                a.reconcile_with(b)
                self._pair_gens[key] = (a.generation, b.generation)
                self.reconciles += 1

    # -- views -------------------------------------------------------------

    def root_subs_view(self, observer_index: int) -> int:
        """The root ``BOR(subs)`` as seen from ``observer_index``'s
        top-level zone replica (what ``evaluate_zone(root)`` returns on
        an agent in that zone)."""
        columns = self.columns
        if columns.levels == 1:
            return columns.agg_subs[0][0]
        replica = self.replicas[columns.zone_of(observer_index, 1)]
        view = 0
        for _label, row in replica.rows():
            bits = row.get("subs")
            if isinstance(bits, int):
                view |= bits
        return view

    def top_child_mask(self, publisher_index: int, child_zone: int) -> Optional[int]:
        """The publisher's replica view of one top-level child's subs."""
        columns = self.columns
        if columns.levels == 1:
            return columns.agg_subs[0][0]
        replica = self.replicas[columns.zone_of(publisher_index, 1)]
        row = replica.row(f"z{child_zone}")
        if row is None:
            return None
        bits = row.get("subs")
        return bits if isinstance(bits, int) else None
