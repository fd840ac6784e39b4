"""Golden determinism fingerprints for fixed-seed experiment runs.

The tuples were re-captured when ``InterestModel`` switched to the
collision-free ``derive_substream`` RNG derivation (the historical
``(seed << 20) ^ index`` scheme collided above ``index = 2**20``);
that legitimately re-rolled every fixed-seed subscription population.
Optimizations must be behaviour-preserving: a fixed-seed run stays
byte-identical.  If a change legitimately alters scheduling, hashing
or gossip semantics, re-capture the tuples with the same calls below
and document the change.

(The companion pin in ``tests/testkit/test_transparency.py`` reruns
the E2 fingerprints with the full invariant suite attached.)
"""

from dataclasses import astuple

import pytest

from repro.experiments.e2_latency import run_e2
from repro.experiments.e3_publisher_load import run_e3
from repro.experiments.e4_overload import run_e4, run_e4_physical
from repro.experiments.e5_bloom import run_e5_analytic, run_e5_system
from repro.experiments.e6_subscription import run_e6
from repro.experiments.e7_redundancy import run_e7
from repro.experiments.e8_branching import run_e8
from repro.experiments.e9_queues import run_e9
from repro.experiments.e10_scoped import run_e10
from repro.experiments.e11_partition import run_e11
from repro.experiments.e12_routing import run_e12


def fingerprint(result):
    row = result.rows[0]
    return (
        row.num_nodes,
        row.items,
        row.expected,
        row.delivered,
        row.ratio,
        row.latency.p50,
        row.latency.p90,
        row.latency.p99,
        row.latency.maximum,
    )


class TestE2Golden:
    def test_small_run_byte_identical(self):
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

    def test_medium_run_byte_identical(self):
        result = run_e2(
            sizes=(96,),
            items=4,
            item_spacing=1.0,
            subscriptions_per_node=3,
            settle_rounds=3.0,
            drain_time=25.0,
            seed=5,
        )
        assert fingerprint(result) == (
            96, 4, 230, 230, 1.0,
            0.14033687811909834,
            0.15650089315460444,
            0.16331479351673944,
            0.16839642025896762,
        )


class TestE5Golden:
    """Bloom accuracy + in-network filtering at a reduced sweep.

    Pins both the deterministic blake2b hashing (the measured FP rate
    is a pure function of the seed) and the forwarding/filtering event
    counts of a fixed-seed deployment.
    """

    def test_analytic_sweep_byte_identical(self):
        rows = run_e5_analytic(
            bit_sizes=(512,),
            subscription_counts=(100,),
            hash_counts=(1, 2),
            probes=1000,
            seed=3,
        )
        assert [
            (r.num_bits, r.num_hashes, r.subscriptions, r.fill_ratio,
             r.measured_fp_rate, r.predicted_fp_rate)
            for r in rows
        ] == [
            (512, 1, 100, 0.17578125, 0.148, 0.17578125),
            (512, 2, 100, 0.302734375, 0.11, 0.09164810180664062),
        ]

    def test_system_filtering_byte_identical(self):
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


def e12_fingerprint(result):
    return [
        (r.scheme, r.forwards, r.filtered, r.leaf_rejections, r.deliveries,
         r.duplicates, r.mean_latency, r.resubscriptions, r.corruptions,
         r.repairs, r.diverged, r.wasted_forward_ratio)
        for r in result.rows
    ]


E12_SMALL_KWARGS = dict(num_nodes=48, churn_rate=2.0, churn_duration=6.0, seed=0)

E12_SMALL_GOLDEN = [
    ("bloom", 382, 1906, 34, 194, 0, 0.6328, 14, 0, 0, 0, 0.089),
    ("subgroup", 360, 1738, 34, 194, 0, 0.6192, 14, 0, 0, 0, 0.0944),
    ("stabilizing-bloom", 376, 1912, 30, 194, 0, 0.5154, 13, 12, 11, 0, 0.0798),
    ("stabilizing-subgroup", 359, 1788, 32, 195, 0, 0.8717, 16, 12, 47, 0, 0.0891),
]


class TestE12Golden:
    """Routing schemes under churn + corruption, two sizes.

    Beyond byte-identity, these pin the paper-facing claims: the
    subgroup scheme forwards strictly less than the flat Bloom baseline
    at equal redundancy with identical delivery counts (no false
    negatives traded away), and every stabilizing run ends with zero
    diverged summaries despite the injected corruption.
    """

    def _claims(self, rows):
        by = {r.scheme: r for r in rows}
        assert by["subgroup"].forwards < by["bloom"].forwards
        assert by["subgroup"].filtered < by["bloom"].filtered
        assert by["subgroup"].deliveries == by["bloom"].deliveries
        for r in rows:
            if r.scheme.startswith("stabilizing"):
                assert r.corruptions > 0 and r.repairs > 0
            assert r.diverged == 0

    def test_small_run_byte_identical(self):
        result = run_e12(**E12_SMALL_KWARGS)
        assert e12_fingerprint(result) == E12_SMALL_GOLDEN
        self._claims(result.rows)

    def test_medium_run_byte_identical(self):
        result = run_e12(num_nodes=72, churn_rate=3.0, churn_duration=8.0, seed=5)
        assert e12_fingerprint(result) == [
            ("bloom", 690, 2282, 47, 290, 0, 0.6301, 21, 0, 0, 0, 0.0681),
            ("subgroup", 633, 2066, 47, 290, 0, 0.7305, 21, 0, 0, 0, 0.0742),
            ("stabilizing-bloom", 686, 2288, 45, 288, 0, 0.4444, 19, 18, 18, 0,
             0.0656),
            ("stabilizing-subgroup", 633, 2075, 45, 290, 0, 0.6048, 18, 18, 65,
             0, 0.0711),
        ]
        self._claims(result.rows)


class TestE9Golden:
    def test_queue_strategies_byte_identical(self):
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


class TestTinyGoldens:
    """Tiny-input pins (each under ~2 s) for the runners the quick
    battery alone used to cover: every row, every field, byte for byte.
    Captured before E3–E11 moved onto ``build_system``; a refactor of
    the build → settle → publish → collect plumbing keeps them equal.
    """

    def test_e3_four_systems(self):
        assert [astuple(r) for r in run_e3(sizes=(40,), items=3, seed=1).rows] == [
            ("direct-push", 40, 3, 22.0, 34896.0, 0.06227841412709617),
            ("pull@60s", 40, 3, 33.333333333333336, 150094.66666666666,
             59.8326762496605),
            ("cdn@8edges", 40, 3, 8.0, 13365.333333333334, 59.81399418684879),
            ("newswire", 40, 3, 53.0, 118484.66666666667, 0.11622849566235337),
        ]

    def test_e4_flood_table(self):
        result = run_e4(num_clients=40, items=3, flood_rates=(0.0, 500.0), seed=2)
        assert [astuple(r) for r in result.rows] == [
            ("pull", 0.0, 1.0, 1.0, 26.557915029654424),
            ("pull", 500.0, 0.3804878048780488, 0.6, 73.11624939949515),
            ("newswire+pubcrash", 0.0, 1.0, 1.0, 0.12545065820248952),
            ("newswire+pubcrash", 500.0, 1.0, 1.0, 0.12614468470059992),
        ]

    def test_e4_physical_links(self):
        assert astuple(run_e4_physical(num_nodes=60, items=3)) == (
            "newswire(1Mbit links)", 500.0, 1.0, 1.0, 0.5569221614708084,
        )

    @pytest.mark.parametrize(
        "backend, row",
        [
            ("object", (40, 2.0, 5.0, 0.05889542296336003)),
            ("columnar", (40, 2.0, 2.0, 0.05900067110303553)),
        ],
    )
    def test_e6_either_backend(self, backend, row):
        result = run_e6(sizes=(40,), gossip_intervals=(2.0,), backend=backend)
        assert [astuple(r) for r in result.rows] == [row]

    def test_e7_loss_and_crashes(self):
        result = run_e7(
            num_nodes=80, items=4, rep_counts=(1, 3),
            repair_options=(False, True), loss_rate=0.1, crash_fraction=0.2,
            seed=3,
        )
        assert [astuple(r) for r in result.rows] == [
            (1, False, 0.1, 0.2, 0.5704697986577181, 0.0, 0),
            (1, True, 0.1, 0.2, 0.9194630872483222, 0.0, 47),
            (3, False, 0.1, 0.2, 0.9060402684563759, 0.6592592592592592, 0),
            (3, True, 0.1, 0.2, 0.9932885906040269, 0.668918918918919, 14),
        ]

    def test_e8_two_branchings(self):
        result = run_e8(
            num_nodes=48, branchings=(4, 16), items=2, measure_time=15.0, seed=4
        )
        assert [astuple(r) for r in result.rows] == [
            (4, 3, 2976.0805555555557, 0.1777087642488322,
             0.28393122757902034, 36.0),
            (16, 2, 2830.3708333333334, 0.1277781760974297,
             0.1570869729485367, 34.0),
        ]

    def test_e10_three_cases(self):
        assert [astuple(r) for r in run_e10(num_nodes=48, seed=5).rows] == [
            ("global", 48, 48, 0, 47),
            ("scoped:/z0", 7, 7, 0, 6),
            ("premium-only", 16, 16, 0, 47),
        ]

    def test_e11_inside_and_beyond_the_window(self):
        result = run_e11(
            num_nodes=32, durations=(12.0,), buffer_capacities=(2, 64), seed=6
        )
        assert [astuple(r) for r in result.rows] == [
            (12.0, 2, 3, 26, 0.6666666666666666, None),
            (12.0, 64, 3, 26, 1.0, 24.0),
        ]
