"""Tests for versioned-store anti-entropy (the convergence engine)."""

from hypothesis import given, settings, strategies as st

from repro.gossip.antientropy import Entry, VersionedStore

VERSIONS = st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False), st.text(max_size=4)
)
# The protocol's version-uniqueness assumption: a given (key, version)
# always names the same value (writers never reuse a timestamp — the
# agent's _stamp() enforces this).  Values are therefore derived from
# (key, version) rather than generated independently.
WRITES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), VERSIONS),
    max_size=30,
)


def store_of(writes):
    store = VersionedStore()
    for key, version in writes:
        store.put(key, hash((key, version)), version)
    return store


def sync(a: VersionedStore, b: VersionedStore) -> None:
    """One full push-pull exchange."""
    delta_for_a = b.delta_for(a.digest())
    delta_for_b = a.delta_for(b.digest())
    a.apply_delta(delta_for_a)
    b.apply_delta(delta_for_b)


def state(store: VersionedStore):
    return {key: store.entry(key) for key in store.keys()}


class TestBasics:
    def test_put_get(self):
        store = VersionedStore()
        assert store.put("k", 1, (1.0, "a"))
        assert store.get("k") == 1

    def test_put_older_rejected(self):
        store = VersionedStore()
        store.put("k", 2, (2.0, "a"))
        assert not store.put("k", 1, (1.0, "a"))
        assert store.get("k") == 2

    def test_put_equal_version_rejected(self):
        store = VersionedStore()
        store.put("k", 1, (1.0, "a"))
        assert not store.put("k", 2, (1.0, "a"))

    def test_writer_tiebreak(self):
        store = VersionedStore()
        store.put("k", 1, (1.0, "a"))
        assert store.put("k", 2, (1.0, "b"))  # same time, later writer wins
        assert store.get("k") == 2

    def test_get_missing_none(self):
        assert VersionedStore().get("nope") is None

    def test_remove(self):
        store = VersionedStore()
        store.put("k", 1, (1.0, "a"))
        store.remove("k")
        assert "k" not in store

    def test_digest_matches_contents(self):
        store = VersionedStore()
        store.put("k", 1, (1.0, "a"))
        assert store.digest() == {"k": (1.0, "a")}

    def test_delta_for_empty_digest_is_everything(self):
        store = VersionedStore()
        store.put("a", 1, (1.0, "x"))
        store.put("b", 2, (2.0, "x"))
        assert set(store.delta_for({})) == {"a", "b"}

    def test_delta_excludes_up_to_date(self):
        store = VersionedStore()
        store.put("a", 1, (1.0, "x"))
        assert store.delta_for({"a": (1.0, "x")}) == {}
        assert store.delta_for({"a": (2.0, "x")}) == {}

    def test_apply_delta_reports_changes(self):
        store = VersionedStore()
        changed = store.apply_delta({"a": Entry((1.0, "x"), 1)})
        assert changed == ["a"]
        assert store.apply_delta({"a": Entry((1.0, "x"), 1)}) == []

    def test_merge_shares_object(self):
        store = VersionedStore()
        entry = Entry((1.0, "x"), 1)
        assert store.merge({"a": entry}) == (["a"], [None], 0)
        assert store.entry("a") is entry

    def test_merge_bounds_and_capacity(self):
        store = VersionedStore()
        old = Entry((1.0, "x"), 1)
        store.merge({"a": old})
        delta = {
            "a": Entry((2.0, "x"), 2),
            "b": Entry((0.5, "x"), 3),   # older than min_timestamp
            "c": Entry((9.0, "x"), 4),   # newer than max_timestamp
            "d": Entry((2.0, "x"), 5),   # new key, store at capacity
        }
        assert store.merge(delta, 1.0, 5.0, capacity=1) == (["a"], [old], 1)
        assert store.generation == 2

    def test_expire(self):
        store = VersionedStore()
        store.put("old", 1, (1.0, "x"))
        store.put("new", 2, (5.0, "x"))
        assert store.expire((3.0, "")) == ["old"]
        assert "old" not in store and "new" in store

    def test_merge_from(self):
        a = VersionedStore()
        b = VersionedStore()
        b.put("k", 9, (1.0, "x"))
        a.merge_from(b)
        assert a.get("k") == 9


class TestConvergenceProperties:
    @given(WRITES, WRITES)
    @settings(max_examples=60)
    def test_one_sync_converges_two_replicas(self, writes_a, writes_b):
        a, b = store_of(writes_a), store_of(writes_b)
        sync(a, b)
        assert state(a) == state(b)

    @given(WRITES, WRITES, WRITES)
    @settings(max_examples=40)
    def test_merge_order_independent(self, x, y, z):
        """Merging is commutative+associative: any gossip order
        converges to the same state (the eventual-consistency core)."""
        def merged(order):
            base = VersionedStore()
            for writes in order:
                base.merge_from(store_of(writes))
            return state(base)

        assert merged([x, y, z]) == merged([z, y, x]) == merged([y, x, z])

    @given(WRITES)
    @settings(max_examples=40)
    def test_merge_idempotent(self, writes):
        a = store_of(writes)
        before = state(a)
        a.merge_from(store_of(writes))
        assert state(a) == before

    @given(WRITES, WRITES)
    @settings(max_examples=40)
    def test_merged_version_is_max(self, writes_a, writes_b):
        a, b = store_of(writes_a), store_of(writes_b)
        versions_a = dict(a.digest())
        versions_b = dict(b.digest())
        sync(a, b)
        for key in a.keys():
            expected = max(
                v for v in (versions_a.get(key), versions_b.get(key)) if v is not None
            )
            assert a.version(key) == expected


# Arbitrary mutation sequences for the incremental-digest invariant.
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(min_value=0, max_value=5), VERSIONS),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("expire"), VERSIONS),
    ),
    max_size=40,
)


class TestIncrementalDigest:
    """The digest map is maintained incrementally on every mutation; it
    must stay equal to the from-scratch rebuild over the entries."""

    @staticmethod
    def rebuilt(store: VersionedStore):
        return {key: store.entry(key).version for key in store.keys()}

    @given(MUTATIONS)
    @settings(max_examples=100)
    def test_digest_equals_from_scratch(self, mutations):
        store = VersionedStore()
        for mutation in mutations:
            if mutation[0] == "put":
                _, key, version = mutation
                store.put(key, hash((key, version)), version)
            elif mutation[0] == "remove":
                store.remove(mutation[1])
            else:
                store.expire(mutation[1])
            assert store.digest() == self.rebuilt(store)

    @given(WRITES, WRITES)
    @settings(max_examples=50)
    def test_digest_consistent_after_sync(self, writes_a, writes_b):
        a, b = store_of(writes_a), store_of(writes_b)
        sync(a, b)  # exercises merge/apply_delta maintenance
        assert a.digest() == self.rebuilt(a)
        assert b.digest() == self.rebuilt(b)

    def test_digest_returns_snapshot(self):
        """In-flight gossip messages carry the digest as sent, not a live
        view that mutates underneath them."""
        store = VersionedStore()
        store.put("k", 1, (1.0, "a"))
        snapshot = store.digest()
        store.put("k", 2, (2.0, "a"))
        assert snapshot == {"k": (1.0, "a")}

    def test_digest_view_is_live_and_zero_copy(self):
        store = VersionedStore()
        store.put("k", 1, (1.0, "a"))
        view = store.digest_view()
        store.put("k", 2, (2.0, "a"))
        assert view == {"k": (2.0, "a")}
        assert store.digest_view() is view

    def test_delta_for_identical_digest_is_empty(self):
        """The steady-state fast path: replicas that agree exchange
        nothing."""
        store = store_of([(1, (1.0, "a")), (2, (2.0, "b"))])
        assert store.delta_for(store.digest()) == {}
