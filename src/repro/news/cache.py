"""The end-system message cache (paper §9).

"At the end system the news items are delivered to a message cache,
which feeds the applications that use the news items.  Automatic cache
management can be configured to provide item management based on the
metadata of the news items, which includes information about item
revision history.  On the basis of this metadata, the news item can be
garbage collected, or fused or aggregated into a more compact form.
The same cache is used for assisting in achieving end-to-end
reliability in the case of forwarding node failures, and for a limited
state transfer to participants that are joining the system."

Responsibilities implemented here:

* bounded storage with age- and capacity-based garbage collection;
* revision *fusion*: keeping only the newest revision of each story;
* recency queries for the joining-node state transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, takewhile
from typing import Iterator, Optional

from repro.core.config import CacheConfig
from repro.core.errors import CacheError
from repro.core.identifiers import ItemId
from repro.news.item import NewsItem


@dataclass
class CacheStats:
    inserted: int = 0
    duplicates: int = 0
    stale_revisions: int = 0   # arrived after a newer revision was cached
    fused: int = 0             # older revisions replaced by newer ones
    evicted_capacity: int = 0
    evicted_age: int = 0

    @property
    def evicted(self) -> int:
        return self.evicted_capacity + self.evicted_age


@dataclass(slots=True)
class _CachedItem:
    item: NewsItem
    received_at: float


class MessageCache:
    """Bounded per-subscriber news store with revision management."""

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config if config is not None else CacheConfig()
        self.config.validate()
        self.stats = CacheStats()
        # Insertion-ordered: oldest first, so GC drops from the front.
        self._entries: dict[tuple[str, int], _CachedItem] = {}
        self._by_id: dict[ItemId, tuple[str, int]] = {}

    # -- insertion -----------------------------------------------------------

    def insert(self, item: NewsItem, now: float) -> bool:
        """Store ``item``; returns False for duplicates/stale revisions."""
        key = item.story_key
        cached = self._entries.get(key)
        if cached is not None:
            if cached.item.revision >= item.revision:
                if cached.item.item_id == item.item_id:
                    self.stats.duplicates += 1
                else:
                    self.stats.stale_revisions += 1
                return False
            # Newer revision: fuse (replace in place, refresh recency).
            del self._by_id[cached.item.item_id]
            del self._entries[key]
            self.stats.fused += 1
        self._entries[key] = _CachedItem(item, now)
        self._by_id[item.item_id] = key
        self.stats.inserted += 1
        self._evict_capacity()
        return True

    def _evict_capacity(self) -> None:
        excess = len(self._entries) - self.config.capacity
        if excess > 0:
            self._drop(list(islice(self._entries.items(), excess)))
            self.stats.evicted_capacity += excess

    def gc(self, now: float) -> int:
        """Drop items older than ``max_age`` (by receive time)."""
        cutoff = now - self.config.max_age
        expired = list(
            takewhile(lambda entry: entry[1].received_at < cutoff, self._entries.items())
        )
        self._drop(expired)
        self.stats.evicted_age += len(expired)
        return len(expired)

    def _drop(self, entries: list[tuple[tuple[str, int], _CachedItem]]) -> None:
        """Delete oldest-first ``entries``, collected by one walk: a fresh
        iterator per victim would rescan the slots earlier deletions
        left empty."""
        for key, cached in entries:
            del self._entries[key]
            del self._by_id[cached.item.item_id]

    # -- queries -----------------------------------------------------------

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._by_id

    def has_story(self, story_key: tuple[str, int]) -> bool:
        return story_key in self._entries

    def get(self, item_id: ItemId) -> Optional[NewsItem]:
        key = self._by_id.get(item_id)
        return self._entries[key].item if key is not None else None

    def latest(self, story_key: tuple[str, int]) -> Optional[NewsItem]:
        cached = self._entries.get(story_key)
        return cached.item if cached is not None else None

    def items(self) -> Iterator[NewsItem]:
        """All cached items, oldest receive time first."""
        return (cached.item for cached in self._entries.values())

    def recent(self, count: int) -> list[NewsItem]:
        """The ``count`` most recently received items (state transfer)."""
        if count < 0:
            raise CacheError("count must be >= 0")
        out = [cached.item for cached in self._entries.values()]
        return out[-count:] if count else []

    def __len__(self) -> int:
        return len(self._entries)

    # -- aggregation into compact form (§9) ---------------------------------

    def front_page(self, count: int = 10) -> list[NewsItem]:
        """The "front page" this cache feeds applications: the most
        newsworthy items — urgency first (NITF: 1 is a flash), then
        recency."""
        if count < 0:
            raise CacheError("count must be >= 0")
        ranked = sorted(
            (cached.item for cached in self._entries.values()),
            key=lambda item: (item.urgency, -item.published_at),
        )
        return ranked[:count]

    def subject_digest(self) -> dict[str, int]:
        """Compact per-subject story counts ("aggregated into a more
        compact form") — what a headline ticker displays."""
        counts: dict[str, int] = {}
        for cached in self._entries.values():
            subject = cached.item.subject
            counts[subject] = counts.get(subject, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"MessageCache({len(self._entries)}/{self.config.capacity})"
