"""Rumor mongering: bounded-history epidemic dissemination of items.

The multicast reliability layer (paper §5: "the protocol thus obtained
should have many of the properties of Bimodal Multicast") pairs the
best-effort tree dissemination with an epidemic *repair* phase: nodes
periodically gossip digests of recently received item ids; a peer that
is missing items pulls them from the gossiper's cache.  This module
provides the bounded rumor buffer and the digest/pull bookkeeping; the
transport and timing live in :mod:`repro.multicast.reliability`.
"""

from __future__ import annotations

from itertools import islice
from typing import Generic, Hashable, Iterable, Optional, TypeVar

ItemKeyT = TypeVar("ItemKeyT", bound=Hashable)
PayloadT = TypeVar("PayloadT")


class RumorBuffer(Generic[ItemKeyT, PayloadT]):
    """Recently seen items, bounded to the newest ``capacity`` entries.

    Bounding the buffer is what makes the protocol *bimodal*: repair is
    only possible while an item is still rumored, so delivery is
    either near-certain (repaired within the window) or abandoned —
    there is no unbounded retransmission state.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        #: Insertion-ordered, oldest first.
        self._items: dict[ItemKeyT, PayloadT] = {}
        #: Bumped on every change to the contents, so a reader can keep
        #: something derived from them (a digest) until it moves.
        self.generation = 0

    def add(self, key: ItemKeyT, payload: PayloadT) -> bool:
        """Record an item; returns False when it was already known."""
        if key in self._items:
            return False
        items = self._items
        items[key] = payload
        self.generation += 1
        excess = len(items) - self.capacity
        if excess > 0:
            # One iterator for every victim: each fresh ``iter`` would
            # rescan the slots the previous deletions left empty.
            for victim in list(islice(items, excess)):
                del items[victim]
        return True

    def __contains__(self, key: ItemKeyT) -> bool:
        return key in self._items

    def get(self, key: ItemKeyT) -> Optional[PayloadT]:
        return self._items.get(key)

    def digest(self) -> frozenset[ItemKeyT]:
        """Ids currently rumored (sent to gossip partners)."""
        return frozenset(self._items)

    def missing_from(self, remote_digest: Iterable[ItemKeyT]) -> list[ItemKeyT]:
        """Ids in the remote digest that we have not seen."""
        return [key for key in remote_digest if key not in self._items]

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"RumorBuffer({len(self._items)}/{self.capacity})"
