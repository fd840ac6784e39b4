"""The flight recorder never perturbs a run.

The profiler and the time-series sampler hook the kernel's dispatch
loop from outside the event stream: they read wall time and registry
values but never schedule events or draw randomness.  These tests rerun
the golden fingerprints of ``test_golden_fingerprints.py`` with both
monitors attached and assert byte-identical results — the contract the
experiments CLI ``--profile`` flag relies on.
"""

from repro.experiments.e2_latency import run_e2
from repro.experiments.e5_bloom import run_e5_system
from repro.experiments.e9_queues import run_e9
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfiler
from repro.obs.timeseries import TimeSeriesBundle, TimeSeriesRecorder
from repro.sim.engine import instrumented
from tests.integration.test_golden_fingerprints import fingerprint


def flight_recorder(profiler=None, bundle=None):
    """Both flight-recorder monitors on every simulation, aggressively
    sampled."""
    profiler = KernelProfiler() if profiler is None else profiler
    bundle = TimeSeriesBundle() if bundle is None else bundle
    registry = MetricsRegistry()
    return instrumented(sim=[
        lambda sim: profiler,
        lambda sim: bundle.add(TimeSeriesRecorder(registry, interval=0.25, capacity=64)),
    ])


class TestGoldensWithMonitorsAttached:
    def test_e2_small_fingerprint_unchanged(self):
        with flight_recorder():
            result = run_e2(
                sizes=(48,),
                items=3,
                item_spacing=1.0,
                subscriptions_per_node=2,
                settle_rounds=2.0,
                drain_time=20.0,
                seed=11,
            )
        assert fingerprint(result) == (
            48, 3, 71, 71, 1.0,
            0.07920745575383048,
            0.11288422608405124,
            0.1264471050192081,
            0.12767120304479818,
        )

    def test_e5_system_fingerprint_unchanged(self):
        with flight_recorder():
            rows = run_e5_system(
                num_nodes=48, bit_sizes=(256,), num_subjects=12, seed=3
            )
        assert [
            (r.scheme, r.num_bits, r.forwards, r.filtered,
             r.leaf_rejections, r.deliveries, r.wasted_forward_ratio)
            for r in rows
        ] == [
            ("bloom", 256, 124, 287, 0, 96, 0.0),
            ("mask(§7)", 6, 124, 287, 0, 96, 0.0),
        ]

    def test_e9_fingerprint_unchanged(self):
        with flight_recorder():
            result = run_e9(
                num_nodes=48,
                items=10,
                strategies=("fifo", "weighted_rr"),
                send_rate=12.0,
                seed=7,
            )
        assert [
            (r.strategy, r.deliveries, r.all_p50, r.all_p99, r.urgent_p50,
             r.urgent_p99, r.publisher_peak_backlog, r.publisher_mean_wait)
            for r in result.rows
        ] == [
            ("fifo", 255,
             3.6071800773783824, 7.157163823246992,
             0.9525284349634013, 4.336647475328998,
             86, 3.589195402298846),
            ("weighted_rr", 255,
             2.4634039558127006, 6.925340855893339,
             0.7478461365327846, 6.046463985668727,
             86, 3.5891954022988446),
        ]

    def test_monitors_actually_observed_dispatch(self):
        """Guard against a silently-detached hook making the tests above
        vacuous: the same instrumented run must record real samples."""
        profiler, bundle = KernelProfiler(), TimeSeriesBundle()
        with flight_recorder(profiler, bundle):
            run_e2(
                sizes=(48,),
                items=3,
                item_spacing=1.0,
                subscriptions_per_node=2,
                settle_rounds=2.0,
                drain_time=20.0,
                seed=11,
            )
        assert profiler.events > 1000
        assert profiler.total_s > 0.0
        assert bundle.total_samples > 10
        # Cost attribution is exhaustive: every category bucket sums
        # back to the total (the ≥95% acceptance bound by construction).
        assert sum(profiler.category_seconds().values()) == profiler.total_s
