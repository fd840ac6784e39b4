"""Tests for the trace sinks and the TraceLog fan-out dispatcher."""

import json
import tracemalloc

import pytest

from repro.obs import sinks
from repro.obs.sinks import (
    JsonlFileSink,
    MemorySink,
    StreamingSink,
    normalize_field,
)
from repro.sim.engine import Simulation
from repro.sim.trace import TraceLog


def make_log(**kwargs):
    return TraceLog(Simulation(seed=1), **kwargs)


class TestMemorySink:
    def test_default_log_retains_events(self):
        log = make_log()
        log.record("deliver", node="n0", item="i1", latency=0.5)
        assert log.retained_events == 1
        events = list(log.events("deliver"))
        assert events[0]["latency"] == 0.5
        assert events[0].get("missing") is None

    def test_clear_drops_events_and_counts(self):
        log = make_log()
        log.record("x")
        log.clear()
        assert log.retained_events == 0
        assert log.count("x") == 0


class TestStreamingSink:
    def test_aggregates_without_retaining(self):
        sink = StreamingSink()
        log = make_log(sinks=[sink])
        for i in range(50):
            log.record("deliver", node=f"n{i % 5}", item=f"i{i % 10}",
                       latency=0.1 * (i % 7))
        log.record("forward", to="/z0/n1", item="i0")
        assert sink.retained_events == 0
        assert log.retained_events == 0
        assert sink.latency.count == 50
        assert sum(sink.deliveries_per_item.values()) == 50
        assert len(sink.deliveries_per_item) == 10
        assert sink.count("forward") == 1
        assert sink.count("deliver") == 50
        assert sink.first_time is not None

    def test_bounded_memory_as_items_grow(self):
        """Acceptance: retained events stay constant as load grows."""
        retained = []
        aggregate_sizes = []
        for scale in (100, 1000, 10_000):
            sink = StreamingSink()
            log = make_log(sinks=[sink])
            for i in range(scale):
                log.record("deliver", node=f"n{i % 20}", item=f"i{i % 50}",
                           latency=0.01 * (i % 90))
            retained.append(log.retained_events)
            aggregate_sizes.append(
                len(sink.deliveries_per_item)
                + len(sink.latency.counts)
            )
        assert retained == [0, 0, 0]
        # Aggregate state is bounded by distinct items/buckets,
        # not by how many events flowed through.
        assert aggregate_sizes[0] == aggregate_sizes[-1]

    @pytest.mark.parametrize("batched", [False, True])
    def test_state_does_not_grow_with_delivering_nodes(self, batched):
        """Deliveries of 3 items from 100 or from 20,000 distinct nodes
        leave the sink holding the same bytes: nothing is kept per node."""

        def retained_bytes(num_nodes):
            events = [
                (0.001 * i, {"node": f"/z{i // 100}/n{i}", "item": f"i{i % 3}",
                             "latency": 0.5})
                for i in range(num_nodes)
            ]
            tracemalloc.start()
            try:
                sink = StreamingSink()
                if batched:
                    sink.emit_many("deliver", events)
                else:
                    for time, fields in events:
                        sink.emit(time, "deliver", fields)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            assert sink.count("deliver") == num_nodes
            in_sinks = snapshot.filter_traces([tracemalloc.Filter(True, sinks.__file__)])
            return sum(stat.size for stat in in_sinks.statistics("filename"))

        # The slack covers a few count ints past the small-int cache; a
        # per-node tally would add ~20 B per node, ~400 KiB here.
        assert retained_bytes(20_000) <= retained_bytes(100) + 1024

    def test_as_dict_jsonable(self):
        sink = StreamingSink()
        log = make_log(sinks=[sink])
        log.record("deliver", node="n0", item="i1", latency=0.2)
        payload = json.dumps(sink.as_dict())
        assert "events_seen" in payload

    def test_clear_resets(self):
        sink = StreamingSink()
        sink.emit(1.0, "deliver", {"latency": 0.1, "item": "a", "node": "n"})
        sink.clear()
        assert sink.events_seen == 0
        assert sink.latency.count == 0
        assert sink.deliveries_per_item == {}


class TestJsonlFileSink:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlFileSink(path) as sink:
            log = make_log(sinks=[sink])
            log.record("publish", item="i1")
            log.record("deliver", item="i1", latency=0.25)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "publish"
        assert sink.lines_written == 2
        assert sink.retained_events == 0

    def test_non_json_values_stringified(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlFileSink(path) as sink:
            sink.emit(0.0, "x", {"obj": object()})
        assert "object" in path.read_text()

    def test_containers_become_json_arrays(self, tmp_path):
        """Tuples/sets/dicts serialize structurally, not via str()."""
        path = tmp_path / "trace.jsonl"
        with JsonlFileSink(path) as sink:
            sink.emit(0.0, "rows-expired", {
                "labels": ("zone-a", "zone-b"),
                "members": {"n2", "n1"},
                "nested": {"counts": [1, 2], "who": ("x",)},
            })
        record = json.loads(path.read_text())
        assert record["labels"] == ["zone-a", "zone-b"]
        assert record["members"] == ["n1", "n2"]  # sorted for determinism
        assert record["nested"] == {"counts": [1, 2], "who": ["x"]}
        assert "(" not in path.read_text()  # no stringified tuples

    def test_line_buffered_lines_visible_before_close(self, tmp_path):
        # buffering=1 — each emitted line reaches the OS immediately,
        # so a concurrent reader (or a crash) sees every whole line
        # without waiting for close().
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path)
        try:
            sink.emit(0.0, "publish", {"item": "i1"})
            sink.emit(1.0, "deliver", {"item": "i1"})
            lines = path.read_text().strip().split("\n")
            assert len(lines) == 2
            assert json.loads(lines[1])["kind"] == "deliver"
        finally:
            sink.close()

    def test_clear_keeps_written_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlFileSink(path) as sink:
            sink.emit(0.0, "x", {})
            sink.clear()  # a no-op: the file is an artifact, not state
            sink.emit(1.0, "y", {})
        assert len(path.read_text().strip().split("\n")) == 2

    def test_close_idempotent_and_emits_after_close_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path)
        sink.emit(0.0, "x", {})
        sink.close()
        sink.close()  # second close is a no-op, not an error
        sink.emit(1.0, "y", {})  # silently ignored
        assert sink.lines_written == 1
        assert len(path.read_text().strip().split("\n")) == 1

    def test_normalize_field_recurses_and_falls_back_to_str(self):
        class Opaque:
            def __str__(self):
                return "/z0/n1"

        assert normalize_field([Opaque(), ("a", 1)]) == ["/z0/n1", ["a", 1]]
        assert normalize_field({"k": frozenset({2, 1})}) == {"k": [1, 2]}
        assert normalize_field(None) is None
        assert normalize_field(1.5) == 1.5


class TestFanOut:
    def test_multiple_sinks_all_see_events(self):
        memory = MemorySink()
        streaming = StreamingSink()
        log = make_log(sinks=[memory, streaming])
        log.record("deliver", node="n0", item="i1", latency=0.1)
        assert len(memory.events) == 1
        assert streaming.latency.count == 1
        assert log.memory_sink() is memory
        assert log.streaming_sink() is streaming

    def test_kinds_filter_applies_before_sinks(self):
        memory = MemorySink()
        log = TraceLog(Simulation(seed=1), kinds={"deliver"}, sinks=[memory])
        log.record("forward", to="x")
        log.record("deliver", node="n0")
        assert len(memory.events) == 1
        # counts still see everything, retained or not
        assert log.count("forward") == 1

    def test_add_sink_sees_only_later_events(self):
        log = make_log()
        log.record("a")
        streaming = log.add_sink(StreamingSink())
        log.record("b")
        assert streaming.count("a") == 0
        assert streaming.count("b") == 1

    def test_streaming_only_log_has_no_events(self):
        log = make_log(sinks=[StreamingSink()])
        log.record("deliver", node="n0")
        assert list(log.events()) == []
        assert len(log) == 0
        assert log.count("deliver") == 1
