"""Tests for the end-system message cache (§9)."""

from collections import OrderedDict
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig
from repro.core.errors import CacheError
from repro.core.identifiers import ItemId
from repro.news.cache import CacheStats, MessageCache
from repro.news.item import NewsItem


def item(serial: int, revision: int = 0, publisher: str = "p") -> NewsItem:
    return NewsItem(
        ItemId(publisher, serial, revision),
        subject="p/c",
        headline=f"h{serial}.{revision}",
        published_at=float(serial),
    )


class TestInsertion:
    def test_insert_and_get(self):
        cache = MessageCache()
        one = item(1)
        assert cache.insert(one, now=0.0)
        assert cache.get(one.item_id) == one
        assert one.item_id in cache
        assert len(cache) == 1

    def test_duplicate_rejected(self):
        cache = MessageCache()
        one = item(1)
        cache.insert(one, 0.0)
        assert not cache.insert(one, 1.0)
        assert cache.stats.duplicates == 1

    def test_newer_revision_fuses(self):
        cache = MessageCache()
        original = item(1, 0)
        revised = item(1, 1)
        cache.insert(original, 0.0)
        assert cache.insert(revised, 1.0)
        assert cache.stats.fused == 1
        assert cache.latest(original.story_key) == revised
        assert original.item_id not in cache
        assert len(cache) == 1

    def test_stale_revision_rejected(self):
        cache = MessageCache()
        cache.insert(item(1, 2), 0.0)
        assert not cache.insert(item(1, 1), 1.0)
        assert cache.stats.stale_revisions == 1

    def test_fused_revision_is_gone_after_eviction(self):
        """A fused-away revision leaves the id index: ``in`` and ``get``
        answer neither it nor, once the story is evicted, its
        successor."""
        cache = MessageCache(CacheConfig(capacity=1))
        old, new = item(1, 0), item(1, 1)
        cache.insert(old, 0.0)
        assert cache.insert(new, 1.0)
        assert old.item_id not in cache
        assert cache.get(old.item_id) is None
        assert cache.get(new.item_id) == new
        assert cache.insert(item(2), 2.0)  # evicts the story
        assert old.item_id not in cache and new.item_id not in cache
        assert cache.get(old.item_id) is None
        assert cache.get(new.item_id) is None

    def test_different_publishers_do_not_collide(self):
        cache = MessageCache()
        cache.insert(item(1, publisher="a"), 0.0)
        cache.insert(item(1, publisher="b"), 0.0)
        assert len(cache) == 2


class TestEviction:
    def test_capacity_evicts_oldest(self):
        cache = MessageCache(CacheConfig(capacity=3))
        for serial in range(1, 6):
            cache.insert(item(serial), float(serial))
        assert len(cache) == 3
        assert cache.stats.evicted_capacity == 2
        assert item(1).item_id not in cache
        assert item(5).item_id in cache

    def test_gc_by_age(self):
        cache = MessageCache(CacheConfig(max_age=10.0))
        cache.insert(item(1), now=0.0)
        cache.insert(item(2), now=8.0)
        dropped = cache.gc(now=15.0)
        assert dropped == 1
        assert cache.stats.evicted_age == 1
        assert item(2).item_id in cache

    def test_gc_noop_when_fresh(self):
        cache = MessageCache(CacheConfig(max_age=100.0))
        cache.insert(item(1), now=0.0)
        assert cache.gc(now=5.0) == 0


class TestQueries:
    def test_items_ordered_by_receipt(self):
        cache = MessageCache()
        for serial in (3, 1, 2):
            cache.insert(item(serial), float(serial))
        assert [i.item_id.serial for i in cache.items()] == [3, 1, 2]

    def test_recent_for_state_transfer(self):
        cache = MessageCache()
        for serial in range(1, 6):
            cache.insert(item(serial), float(serial))
        recent = cache.recent(2)
        assert [i.item_id.serial for i in recent] == [4, 5]

    def test_recent_zero(self):
        cache = MessageCache()
        cache.insert(item(1), 0.0)
        assert cache.recent(0) == []

    def test_recent_negative_raises(self):
        with pytest.raises(CacheError):
            MessageCache().recent(-1)

    def test_has_story(self):
        cache = MessageCache()
        one = item(1)
        cache.insert(one, 0.0)
        assert cache.has_story(one.story_key)
        assert not cache.has_story(("p", 99))

    def test_latest_missing_is_none(self):
        assert MessageCache().latest(("p", 1)) is None


class TestCompactAggregation:
    def _filled(self):
        cache = MessageCache()
        cache.insert(
            NewsItem(ItemId("p", 1), "p/a", "routine-old", urgency=6,
                     published_at=1.0), 1.0)
        cache.insert(
            NewsItem(ItemId("p", 2), "p/b", "flash", urgency=1,
                     published_at=2.0), 2.0)
        cache.insert(
            NewsItem(ItemId("p", 3), "p/a", "routine-new", urgency=6,
                     published_at=3.0), 3.0)
        return cache

    def test_front_page_ranks_urgency_then_recency(self):
        page = self._filled().front_page()
        assert [i.headline for i in page] == [
            "flash", "routine-new", "routine-old"
        ]

    def test_front_page_bounded(self):
        assert len(self._filled().front_page(2)) == 2

    def test_front_page_negative_raises(self):
        with pytest.raises(CacheError):
            MessageCache().front_page(-1)

    def test_subject_digest(self):
        assert self._filled().subject_digest() == {"p/a": 2, "p/b": 1}


@dataclass
class _LegacyCachedItem:
    item: NewsItem
    received_at: float


class LegacyMessageCache:
    """The ``OrderedDict`` cache the plain dict replaced, kept verbatim
    except that revisions are always fused (fusion stopped being
    optional)."""

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        self._entries = OrderedDict()
        self._by_id = {}

    def insert(self, item, now):
        key = item.story_key
        cached = self._entries.get(key)
        if cached is not None:
            if cached.item.revision >= item.revision:
                if cached.item.item_id == item.item_id:
                    self.stats.duplicates += 1
                else:
                    self.stats.stale_revisions += 1
                return False
            del self._by_id[cached.item.item_id]
            del self._entries[key]
            self.stats.fused += 1
        self._entries[key] = _LegacyCachedItem(item, now)
        self._by_id[item.item_id] = key
        self.stats.inserted += 1
        self._evict_capacity()
        return True

    def _evict_capacity(self):
        while len(self._entries) > self.config.capacity:
            key, cached = self._entries.popitem(last=False)
            del self._by_id[cached.item.item_id]
            self.stats.evicted_capacity += 1

    def gc(self, now):
        cutoff = now - self.config.max_age
        dropped = 0
        while self._entries:
            key, cached = next(iter(self._entries.items()))
            if cached.received_at >= cutoff:
                break
            del self._entries[key]
            del self._by_id[cached.item.item_id]
            self.stats.evicted_age += 1
            dropped += 1
        return dropped

    def get(self, item_id):
        key = self._by_id.get(item_id)
        return self._entries[key].item if key is not None else None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.floats(1.0, 20.0),
    st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"),
                st.integers(1, 6),
                st.integers(0, 3),
                st.floats(0.0, 50.0),
            ),
            st.tuples(st.just("gc"), st.floats(0.0, 80.0)),
        ),
        max_size=50,
    ),
)
def test_matches_the_ordered_dict_cache(capacity, max_age, ops):
    config = CacheConfig(capacity=capacity, max_age=max_age)
    cache, legacy = MessageCache(config), LegacyMessageCache(config)
    seen = set()
    for op in ops:
        if op[0] == "insert":
            _, serial, revision, now = op
            news = item(serial, revision)
            seen.add(news.item_id)
            assert cache.insert(news, now) == legacy.insert(news, now)
        else:
            assert cache.gc(op[1]) == legacy.gc(op[1])
        assert [
            (key, entry.item, entry.received_at)
            for key, entry in cache._entries.items()
        ] == [
            (key, entry.item, entry.received_at)
            for key, entry in legacy._entries.items()
        ]
        assert cache._by_id == legacy._by_id
        assert cache.stats == legacy.stats
        for item_id in seen:
            assert (item_id in cache) == (item_id in legacy._by_id)
            assert cache.get(item_id) == legacy.get(item_id)
