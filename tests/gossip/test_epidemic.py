"""Tests for the bounded rumor buffer."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.epidemic import RumorBuffer


class TestRumorBuffer:
    def test_add_and_contains(self):
        buffer = RumorBuffer(capacity=4)
        assert buffer.add("a", 1)
        assert "a" in buffer
        assert buffer.get("a") == 1

    def test_duplicate_add_returns_false(self):
        buffer = RumorBuffer(capacity=4)
        buffer.add("a", 1)
        assert not buffer.add("a", 2)
        assert buffer.get("a") == 1  # original payload kept

    def test_capacity_evicts_oldest(self):
        buffer = RumorBuffer(capacity=2)
        buffer.add("a", 1)
        buffer.add("b", 2)
        buffer.add("c", 3)
        assert "a" not in buffer
        assert "b" in buffer and "c" in buffer

    def test_digest(self):
        buffer = RumorBuffer(capacity=4)
        buffer.add("a", 1)
        buffer.add("b", 2)
        assert buffer.digest() == frozenset({"a", "b"})

    def test_missing_from(self):
        buffer = RumorBuffer(capacity=4)
        buffer.add("a", 1)
        assert buffer.missing_from(["a", "b", "c"]) == ["b", "c"]

    def test_len(self):
        buffer = RumorBuffer(capacity=4)
        buffer.add("a", 1)
        assert len(buffer) == 1

    def test_get_missing_is_none(self):
        assert RumorBuffer(4).get("nope") is None

    def test_bounded_is_bimodal_window(self):
        """Once an item ages out, it can be re-added: the repair window
        is bounded, not a permanent suppression set."""
        buffer = RumorBuffer(capacity=1)
        buffer.add("a", 1)
        buffer.add("b", 2)
        assert buffer.add("a", 3)  # aged out, rumored anew

    def test_generation_moves_only_when_contents_change(self):
        buffer = RumorBuffer(capacity=2)
        start = buffer.generation
        buffer.add("a", 1)
        assert buffer.generation == start + 1
        buffer.add("a", 2)  # already known: nothing changed
        assert buffer.generation == start + 1
        buffer.add("b", 2)
        buffer.add("c", 3)  # evicts "a"
        assert buffer.generation == start + 3


class LegacyRumorBuffer:
    """The ``OrderedDict`` buffer the plain dict replaced, kept verbatim."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._items = OrderedDict()
        self.generation = 0

    def add(self, key, payload) -> bool:
        if key in self._items:
            return False
        self._items[key] = payload
        self.generation += 1
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)
        return True

    def get(self, key):
        return self._items.get(key)

    def digest(self):
        return frozenset(self._items)

    def missing_from(self, remote_digest):
        return [key for key in remote_digest if key not in self._items]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 12), st.integers()),
            st.tuples(st.just("shrink"), st.integers(1, 6)),
        ),
        max_size=60,
    ),
)
def test_matches_the_ordered_dict_buffer(capacity, ops):
    buffer, legacy = RumorBuffer(capacity), LegacyRumorBuffer(capacity)
    for op in ops:
        if op[0] == "add":
            _, key, payload = op
            assert buffer.add(key, payload) == legacy.add(key, payload)
        else:
            # A lowered capacity evicts several entries on the next add.
            buffer.capacity = legacy.capacity = op[1]
        assert list(buffer._items.items()) == list(legacy._items.items())
        assert buffer.digest() == legacy.digest()
        assert list(buffer.digest()) == list(legacy.digest())
        assert buffer.generation == legacy.generation
        assert len(buffer) == len(legacy._items)
        probe = list(range(13))
        assert buffer.missing_from(probe) == legacy.missing_from(probe)
        assert [buffer.get(k) for k in probe] == [legacy.get(k) for k in probe]
