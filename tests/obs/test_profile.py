"""Handler categorization, unwrapping, aggregation and report text."""

import functools
import pickle

from repro.obs.profile import (
    KernelProfiler,
    categorize,
    format_profile_report,
    profile_simulations,
)
from repro.experiments.e2_latency import run_e2
from repro.scale.backend import ColumnarNewsWire
from repro.scale.batched import BatchedGossip
from repro.sim.engine import Simulation


def _make_handler(module: str):
    def handler():
        pass

    handler.__module__ = module
    handler.__qualname__ = f"{module.rsplit('.', 1)[-1]}.handler"
    return handler


class TestCategorize:
    def test_prefix_table(self):
        cases = {
            "repro.gossip.protocol": "gossip",
            "repro.astrolabe.agent": "gossip",
            "repro.pubsub.node": "pubsub",
            "repro.news.node": "pubsub",
            "repro.multicast.node": "multicast",
            "repro.multicast.queues": "queues",
            "repro.sim.network": "network",
            "repro.runtime.asyncio_udp": "network",
            "repro.experiments.common": "other",
            "somewhere.else": "other",
        }
        for module, expected in cases.items():
            category, name = categorize(_make_handler(module))
            assert category == expected, module
            assert name.startswith(module)
        for handler in (BatchedGossip.run_round, ColumnarNewsWire._deliver):
            assert categorize(handler)[0] == "scale"

    def test_unwraps_functools_partial(self):
        handler = _make_handler("repro.gossip.protocol")
        category, name = categorize(functools.partial(handler, 1, 2))
        assert category == "gossip"
        assert "handler" in name

    def test_unwraps_periodic_fire(self):
        handler = _make_handler("repro.multicast.node")
        sim = Simulation(seed=0)
        periodic = sim.call_every(1.0, handler)
        category, name = categorize(periodic._fire)
        assert category == "multicast"
        assert "handler" in name

    def test_unwraps_process_guarded(self):
        class FakeNode:
            def _guarded(self, callback, args):
                callback(*args)

        handler = _make_handler("repro.pubsub.node")
        node = FakeNode()
        # The kernel dispatches _guarded with (callback, args) as the
        # event arguments — exactly what Process.set_timer schedules.
        category, name = categorize(node._guarded, (handler, (1,)))
        assert category == "pubsub"
        assert "handler" in name


class TestKernelProfiler:
    def observe(self, profiler, module, elapsed, heap_len=5):
        profiler.observe(_make_handler(module), (), elapsed, 1.0, heap_len)

    def test_categories_sum_to_total(self):
        profiler = KernelProfiler()
        self.observe(profiler, "repro.gossip.a", 0.5)
        self.observe(profiler, "repro.sim.network", 0.25)
        self.observe(profiler, "my.driver", 0.125)
        assert profiler.events == 3
        assert sum(profiler.category_seconds().values()) == profiler.total_s
        assert profiler.by_category["gossip"] == [1, 0.5]
        assert profiler.by_category["other"] == [1, 0.125]

    def test_heap_high_water_mark(self):
        profiler = KernelProfiler()
        self.observe(profiler, "m", 0.0, heap_len=3)
        self.observe(profiler, "m", 0.0, heap_len=9)
        self.observe(profiler, "m", 0.0, heap_len=4)
        assert profiler.heap_max == 9

    def test_merge_folds_counts_times_and_peaks(self):
        left, right = KernelProfiler(), KernelProfiler()
        self.observe(left, "repro.gossip.a", 0.5, heap_len=2)
        self.observe(right, "repro.gossip.a", 0.25, heap_len=8)
        self.observe(right, "repro.news.b", 0.125)
        left.merge(right)
        assert left.events == 3
        assert left.total_s == 0.875
        assert left.by_category["gossip"] == [2, 0.75]
        assert left.heap_max == 8

    def test_summary_is_jsonable_and_ranked(self):
        import json

        profiler = KernelProfiler()
        self.observe(profiler, "repro.gossip.a", 0.5)
        self.observe(profiler, "repro.news.b", 2.0)
        payload = json.loads(json.dumps(profiler.summary(top=1)))
        assert payload["events"] == 2
        assert len(payload["hot_handlers"]) == 1
        assert payload["hot_handlers"][0]["category"] == "pubsub"
        assert payload["categories"]["gossip"]["share"] == 0.2

    def test_pickles_across_worker_boundary(self):
        profiler = KernelProfiler()
        self.observe(profiler, "repro.gossip.a", 0.5)
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone.events == 1
        assert clone.by_category == profiler.by_category

    def test_report_text_has_both_tables(self):
        profiler = KernelProfiler()
        self.observe(profiler, "repro.gossip.a", 0.5)
        text = format_profile_report(profiler)
        assert "dispatch wall-time by category" in text
        assert "hot handlers" in text
        assert "gossip" in text


class TestProfileSimulations:
    def test_profiles_every_sim_in_scope(self):
        fired = []
        with profile_simulations() as profiler:
            sim = Simulation(seed=1)
            sim.call_every(0.5, lambda: fired.append(sim.now))
            sim.run_until(5.0)
        assert fired
        assert profiler.events >= len(fired)
        assert sum(profiler.category_seconds().values()) == profiler.total_s

    def test_columnar_handlers_are_billed_to_scale(self):
        with profile_simulations() as profiler:
            run_e2(sizes=(100,), items=2, backend="columnar")
        assert profiler.by_category["scale"][1] > 0
        assert "scale" in profiler.summary()["categories"]
        billed = {name: entry[3] for name, entry in profiler.by_handler.items()}
        for handler in (
            "repro.scale.batched.BatchedGossip.run_round",
            "repro.scale.backend.ColumnarNewsWire._deliver",
        ):
            assert billed[handler] == "scale"

    def test_detaches_outside_the_block(self):
        with profile_simulations() as profiler:
            pass
        sim = Simulation(seed=1)
        sim.call_after(0.1, lambda: None)
        sim.run_until(1.0)
        assert profiler.events == 0

    def test_track_memory_records_high_water_mark(self):
        with profile_simulations(track_memory=True) as profiler:
            sim = Simulation(seed=1)
            sim.call_after(0.1, lambda: list(range(50_000)))
            sim.run_until(1.0)
        assert profiler.memory_peak_bytes > 0
