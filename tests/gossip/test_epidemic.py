"""Tests for the bounded rumor buffer."""

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
