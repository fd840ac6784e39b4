"""Zone tables: one replicated table per zone on an agent's root path.

A :class:`ZoneTable` maps *child zone label* → :class:`Row`.  Each
agent replicates the tables of every zone between its leaf and the
root (the "jigsaw puzzle" of §3: each participant stores just a part
of the virtual database).  Tables reconcile by digest/delta
anti-entropy (see :mod:`repro.gossip.antientropy`) and enforce the
paper's size bound: "each of these tables is limited to some small
size (say, 64 rows)".
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.core.errors import ZoneError
from repro.core.identifiers import ZonePath
from repro.gossip.antientropy import Entry, Version, VersionedStore
from repro.astrolabe.mib import Row

#: Digest type exchanged during gossip: child label -> row version.
ZoneDigest = Dict[str, Version]
#: Delta type: child label -> versioned row entry.
ZoneDelta = Dict[str, Entry[Row]]


class ZoneTable:
    """The replicated table of one zone."""

    def __init__(self, path: ZonePath, max_rows: int = 64):
        if max_rows < 2:
            raise ZoneError("a zone table needs room for at least 2 rows")
        self.path = path
        self.max_rows = max_rows
        self._store: VersionedStore[str, Row] = VersionedStore()
        self._content = 0
        #: Sorted labels, dropped whenever the key set changes.
        self._labels: Optional[tuple[str, ...]] = None
        #: Rows :meth:`apply_delta` refused for being stamped after its
        #: ``max_timestamp`` (cumulative).
        self.rejected_future = 0

    @property
    def content_token(self) -> int:
        """Monotone counter of *value-visible* changes.

        Bumped whenever a row's attribute mapping changes (or a row
        appears/disappears) — but **not** for version-only refreshes,
        which rewrite identical attributes with a fresh timestamp every
        gossip round.  Aggregation results depend only on attribute
        values, so a consumer that caches per-zone aggregates can key
        them on this token and skip re-evaluating unchanged zones (see
        ``AstrolabeAgent._recompute_aggregates``).
        """
        return self._content

    # -- row access -----------------------------------------------------

    def put_row(self, label: str, row: Row) -> bool:
        """Install ``row`` for child ``label`` if its version is newer.

        The table bound is enforced only for *new* children: updates to
        known children always apply, so a full zone keeps refreshing.
        """
        if label not in self._store and len(self._store) >= self.max_rows:
            raise ZoneError(
                f"zone {self.path} is full ({self.max_rows} children); "
                f"cannot admit {label!r}"
            )
        # A local write, not a received delta: apply_delta (and the
        # ``astrolabe.rows_applied`` count of bench/) sees gossip merges only.
        return bool(self._merge({label: Entry(row.version, row)}))

    def row(self, label: str) -> Optional[Row]:
        return self._store.get(label)

    def remove_row(self, label: str) -> None:
        if label in self._store:
            self._content += 1
            self._labels = None
        self._store.remove(label)

    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(sorted(self._store.keys()))
        return self._labels

    def rows(self) -> Iterator[tuple[str, Row]]:
        """(label, row) pairs in sorted label order (deterministic)."""
        for label in self.labels():
            row = self._store.get(label)
            if row is not None:
                yield label, row

    def row_mappings(self) -> list[Mapping[str, object]]:
        """Attribute maps for AQL evaluation.

        Rows written by agents already carry their ``zone`` label as an
        attribute, in which case the row's internal mapping is used
        directly (zero copies — this is the hottest path in the whole
        system); rows from other sources get a copied overlay.
        """
        mappings: list[Mapping[str, object]] = []
        for label, row in self.rows():
            mapping = row.mapping
            if "zone" not in mapping:
                overlay = dict(mapping)
                overlay["zone"] = label
                mapping = overlay
            mappings.append(mapping)
        return mappings

    def __contains__(self, label: str) -> bool:
        return label in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def is_empty(self) -> bool:
        return len(self._store) == 0

    # -- anti-entropy -----------------------------------------------------

    def digest(self) -> ZoneDigest:
        return self._store.digest()

    def digest_view(self) -> ZoneDigest:
        """The live digest map — zero-copy, for in-process reconciliation.

        Same contract as :meth:`VersionedStore.digest_view`: read-only,
        never held across mutations, never shipped in a message.
        """
        return self._store.digest_view()

    @property
    def generation(self) -> int:
        """Mutation counter of the underlying store (see
        :attr:`VersionedStore.generation`)."""
        return self._store.generation

    def delta_for(self, remote_digest: ZoneDigest) -> ZoneDelta:
        return self._store.delta_for(remote_digest)

    def reconcile_with(
        self, other: "ZoneTable", min_timestamp: float = float("-inf")
    ) -> tuple[list[str], list[str]]:
        """Symmetric in-process anti-entropy with another replica.

        One full digest → delta → delta exchange without serialization:
        digests are read zero-copy (:meth:`digest_view`) and row entries
        are shared by reference, so converged rows compare by pointer
        identity in ``delta_for``.  Going through the table layer keeps
        the size bound, resurrection cutoff and content token enforced.
        Batched gossip rounds
        (``repro.scale``) call this once per scheduled replica pair in
        place of a simulated message exchange.

        Returns ``(changed_here, changed_there)``.
        """
        changed_here = self.apply_delta(
            other.delta_for(self.digest_view()), min_timestamp
        )
        changed_there = other.apply_delta(
            self.delta_for(other.digest_view()), min_timestamp
        )
        return changed_here, changed_there

    def apply_delta(
        self,
        delta: ZoneDelta,
        min_timestamp: float = float("-inf"),
        max_timestamp: float = float("inf"),
    ) -> list[str]:
        """Merge rows, honouring the size bound for unseen children.

        Entries older than ``min_timestamp`` are rejected: without this
        check, anti-entropy resurrects expired rows from peers that
        have not reaped them yet, and a crashed member's row circulates
        forever instead of aging out.  Entries newer than
        ``max_timestamp`` are rejected and counted in
        :attr:`rejected_future`: they would beat every refresh of their
        owner and outlive expiry by the same margin.
        """
        return self._merge(delta, min_timestamp, max_timestamp)

    def _merge(
        self, delta: ZoneDelta, low: float = float("-inf"), high: float = float("inf")
    ) -> list[str]:
        changed, replaced, future = self._store.merge(delta, low, high, self.max_rows)
        self.rejected_future += future
        for label, current in zip(changed, replaced):
            if current is None:
                self._labels = None
                self._content += 1
            else:  # re-stamped rows share one map: usually a pointer test
                old, new = current.value.mapping, delta[label].value.mapping
                if old is not new and old != new:
                    self._content += 1
        return changed

    def expire_older_than(self, cutoff_timestamp: float) -> list[str]:
        """Reap rows whose owner stopped refreshing them.

        This is how crashed members leave the zone ("node failure &
        automatic zone reconfiguration", §10).
        """
        expired = self._store.expire((cutoff_timestamp, ""))
        if expired:
            self._content += 1
            self._labels = None
        return expired

    def wire_size(self) -> int:
        return sum(row.wire_size() for _, row in self.rows())

    def __repr__(self) -> str:
        return f"ZoneTable({self.path}, rows={self.labels()})"

