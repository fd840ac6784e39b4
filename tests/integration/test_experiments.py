"""Shape tests: every claim-reproduction experiment.

These assert the *direction* of each paper claim (who wins, roughly by
how much), not absolute numbers.  Each runs at small parameters; the
``full`` inputs (``@pytest.mark.slow``) are the experiments' default
sizes, the ones EXPERIMENTS.md records — except E3's, which is the
smallest sweep that still separates its claim (the default's
2000-node point alone took 86 s).
"""

import functools

import pytest

from repro.experiments.e1_redundancy import run_e1
from repro.experiments.e2_latency import run_e2
from repro.experiments.e3_publisher_load import run_e3
from repro.experiments.e4_overload import run_e4
from repro.experiments.e5_bloom import run_e5_analytic, run_e5_system
from repro.experiments.e6_subscription import run_e6
from repro.experiments.e7_redundancy import run_e7
from repro.experiments.e8_branching import run_e8
from repro.experiments.e9_queues import run_e9
from repro.experiments.e10_scoped import run_e10
from repro.experiments.e11_partition import run_e11

full = functools.partial(pytest.param, marks=pytest.mark.slow, id="full")


@functools.lru_cache(maxsize=None)
def run_once(runner, **kwargs):
    """One run per distinct input: several tests read the same sweep."""
    return runner(**kwargs)


def strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


class TestE1PullRedundancy:
    def test_claim_70_percent_at_4_visits(self):
        result = run_e1(days=2.0, visits_per_day=(1, 4, 24), modes=("full",))
        at4 = result.redundancy_at("full", 4)
        assert 0.5 <= at4 <= 0.85  # "about 70%"
        assert result.redundancy_at("full", 24) > at4

    def test_redundancy_monotone_in_poll_rate(self):
        result = run_e1(days=1.0, visits_per_day=(2, 8, 48), modes=("full",))
        values = [row.redundancy_ratio for row in result.rows]
        assert values == sorted(values)

    def test_delta_eliminates_redundancy(self):
        result = run_e1(days=1.0, visits_per_day=(8,), modes=("delta",))
        assert result.rows[0].redundancy_ratio == 0.0


E2_INPUTS = [
    pytest.param({"sizes": (60, 240), "items": 3}, id="small"),
    full({"sizes": (100, 500, 2000), "items": 5}),
]


class TestE2LatencyScaling:
    @pytest.mark.parametrize("kwargs", E2_INPUTS)
    def test_full_delivery_within_tens_of_seconds(self, kwargs):
        for row in run_once(run_e2, **kwargs).rows:
            assert row.ratio == 1.0, f"lost deliveries at N={row.num_nodes}"
            assert row.latency.maximum < 30.0  # "tens of seconds"

    @pytest.mark.parametrize("kwargs", E2_INPUTS)
    def test_latency_grows_sublinearly(self, kwargs):
        rows = run_once(run_e2, **kwargs).rows
        small, large = rows[0], rows[-1]
        # Log growth: under half the growth in nodes (10x over 20x the nodes).
        nodes_growth = large.num_nodes / small.num_nodes
        assert large.latency.p99 / small.latency.p99 < nodes_growth / 2


class TestE3PublisherLoad:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "sizes, items, push_growth_above, newswire_growth_below, bytes_share",
        [
            # 4x the nodes.  Below ~1000 nodes the publisher's gossip
            # background outweighs what it saves in item bytes.
            pytest.param((50, 200), 5, 3.0, 2.0, None, id="small"),
            # 10x the nodes: push grows 9.97x, NewsWire 1.63x at 0.39 of
            # push's bytes (the default (100, 500, 2000) sweep: 86 s more).
            full((100, 1000), 10, 8.0, 3.0, 0.5),
        ],
    )
    def test_newswire_publisher_load_sublinear(
        self, sizes, items, push_growth_above, newswire_growth_below, bytes_share
    ):
        result = run_e3(sizes=sizes, items=items)
        by_system = {}
        for row in result.rows:
            by_system.setdefault(row.system, []).append(row)
        push = by_system["direct-push"]
        newswire = by_system["newswire"]
        push_growth = push[-1].publisher_msgs_per_item / push[0].publisher_msgs_per_item
        newswire_growth = (
            newswire[-1].publisher_msgs_per_item / newswire[0].publisher_msgs_per_item
        )
        assert push_growth > push_growth_above          # ~linear in N
        assert newswire_growth < newswire_growth_below  # ~flat
        if bytes_share is not None:
            assert (
                newswire[-1].publisher_bytes_per_item
                < push[-1].publisher_bytes_per_item * bytes_share
            )


class TestE4Overload:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "num_clients, items, flood_rates, collapsed_below, served_below",
        [
            pytest.param(80, 5, (0.0, 2000.0), 0.5, 0.5, id="small"),
            # "completely useless"; "even a small percentage".
            full(300, 10, (0.0, 100.0, 1000.0, 5000.0), 0.25, 0.3),
        ],
    )
    def test_pull_collapses_newswire_survives(
        self, num_clients, items, flood_rates, collapsed_below, served_below
    ):
        result = run_e4(num_clients=num_clients, items=items, flood_rates=flood_rates)
        rows = {(r.system, r.flood_rate): r for r in result.rows}
        assert rows[("pull", 0.0)].delivery_ratio > 0.95
        pull_attacked = rows[("pull", flood_rates[-1])]
        assert pull_attacked.delivery_ratio < collapsed_below
        assert pull_attacked.served_ratio < served_below
        for flood in flood_rates:  # "guarantees delivery"
            assert rows[("newswire+pubcrash", flood)].delivery_ratio > 0.95


class TestE5Bloom:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(
                {"bit_sizes": (256, 2048), "subscription_counts": (200,), "probes": 1500},
                id="small",
            ),
            full({}),
        ],
    )
    def test_fp_rate_drops_with_bits(self, kwargs):
        by_count = {}
        for row in run_e5_analytic(**kwargs):
            by_count.setdefault(row.subscriptions, []).append(row)
        for rows in by_count.values():
            rates = [r.measured_fp_rate for r in sorted(rows, key=lambda r: r.num_bits)]
            assert rates == sorted(rates, reverse=True)
            assert rates[0] > rates[-1]

    def test_measured_matches_prediction(self):
        rows = run_e5_analytic(
            bit_sizes=(1024,), subscription_counts=(200,), probes=3000
        )
        row = rows[0]
        assert abs(row.measured_fp_rate - row.predicted_fp_rate) < 0.05
        assert row.measured_fp_rate < 0.25  # ~1000 bits adequate

    @pytest.mark.parametrize(
        "kwargs",
        [pytest.param({"num_nodes": 60, "bit_sizes": (64,)}, id="small"), full({})],
    )
    def test_mask_scheme_exact(self, kwargs):
        mask_row = run_e5_system(**kwargs)[-1]
        assert mask_row.scheme == "mask(§7)"
        assert mask_row.leaf_rejections == 0

    def test_small_bloom_wastes_forwards(self):
        rows = run_e5_system(num_nodes=60, bit_sizes=(64, 1024))
        small, large = rows[0], rows[1]
        assert small.leaf_rejections >= large.leaf_rejections


class TestE6SubscriptionPropagation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(
                {"sizes": (60,), "gossip_intervals": (2.0,), "horizon": 120.0},
                id="small",
            ),
            full({"sizes": (100, 500), "gossip_intervals": (2.0, 5.0)}),
        ],
    )
    def test_within_tens_of_seconds(self, kwargs):
        fastest = {}
        for row in run_e6(**kwargs).rows:
            assert row.root_visibility_s is not None, "propagation timed out"
            assert row.root_visibility_s < 60.0      # "tens of seconds"
            assert row.first_delivery_s is not None  # end-to-end ready
            fastest[row.gossip_interval] = min(
                row.root_visibility_s, fastest.get(row.gossip_interval, 60.0)
            )
        # Propagation time scales with the gossip interval, not with N.
        assert strictly_increasing([fastest[i] for i in sorted(fastest)])


E7_INPUTS = [
    pytest.param(
        {"num_nodes": 80, "items": 5, "rep_counts": (1, 3), "loss_rate": 0.08},
        id="small",
    ),
    full({"num_nodes": 300, "items": 10}),
]


class TestE7Redundancy:
    @pytest.mark.parametrize("kwargs", E7_INPUTS)
    def test_more_reps_more_robust(self, kwargs):
        # Repair off isolates the effect of the representative count.
        rows = [r for r in run_once(run_e7, **kwargs).rows if not r.repair]
        assert rows[-1].delivery_ratio > rows[0].delivery_ratio
        # Redundancy costs duplicates; k=1 has (almost) none.
        assert rows[0].duplicates_per_delivery < 0.05
        assert strictly_increasing([r.duplicates_per_delivery for r in rows])

    @pytest.mark.parametrize("kwargs", E7_INPUTS)
    def test_repair_lifts_delivery(self, kwargs):
        rows = {(r.representatives, r.repair): r for r in run_once(run_e7, **kwargs).rows}
        for (reps, repair), on in rows.items():
            if repair:  # completes delivery at every redundancy level
                assert on.delivery_ratio >= rows[(reps, False)].delivery_ratio
                assert on.delivery_ratio > 0.97


E8_INPUTS = [
    pytest.param(
        {"num_nodes": 128, "branchings": (4, 64), "items": 3, "measure_time": 30.0},
        id="small",
    ),
    full({"num_nodes": 512, "branchings": (4, 8, 16, 64)}),
]


class TestE8Branching:
    @pytest.mark.parametrize("kwargs", E8_INPUTS)
    def test_depth_decreases_with_branching(self, kwargs):
        rows = run_once(run_e8, **kwargs).rows
        assert rows[0].depth > rows[-1].depth
        for row in rows:  # everything delivered regardless of shape
            assert row.forwards_per_item > 0

    @pytest.mark.parametrize("kwargs", E8_INPUTS)
    def test_latency_tracks_depth(self, kwargs):
        rows = run_once(run_e8, **kwargs).rows
        assert rows[0].deliver_p99 > rows[-1].deliver_p99


E9_FULL = {"num_nodes": 200, "items": 40}


class TestE9Queues:
    @pytest.mark.parametrize(
        "kwargs, factor",
        [
            pytest.param(
                {
                    "num_nodes": 60, "items": 20,
                    "strategies": ("fifo", "urgency_first"), "send_rate": 10.0,
                },
                1,
                id="small",
            ),
            full(E9_FULL, 2),  # by a large factor over FIFO
        ],
    )
    def test_urgency_first_prioritizes_flashes(self, kwargs, factor):
        rows = {row.strategy: row for row in run_once(run_e9, **kwargs).rows}
        assert rows["urgency_first"].urgent_p50 < rows["fifo"].urgent_p50 / factor

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"num_nodes": 60, "items": 10, "send_rate": 20.0}, id="small"),
            full(E9_FULL),
        ],
    )
    def test_all_strategies_deliver_everything(self, kwargs):
        rows = {row.strategy: row for row in run_once(run_e9, **kwargs).rows}
        deliveries = {row.deliveries for row in rows.values()}
        assert len(deliveries) == 1  # same workload, same totals
        # Weighted RR beats FIFO on overall median (big zones served more).
        assert rows["weighted_rr"].all_p50 <= rows["fifo"].all_p50


class TestE10Scoped:
    @pytest.mark.parametrize("num_nodes", [120, full(240)])
    def test_scope_containment_and_premium(self, num_nodes):
        result = run_e10(num_nodes=num_nodes)
        by_case = {row.case.split(":")[0]: row for row in result.rows}
        scoped = by_case["scoped"]
        premium = by_case["premium-only"]
        # Containment: zero deliveries outside the selected zone.
        assert scoped.delivered_outside == 0
        assert scoped.delivered_inside == scoped.expected_receivers
        # Premium targeting: exactly the premium subscribers, nobody else.
        assert premium.delivered_outside == 0
        assert premium.delivered_inside == premium.expected_receivers
        # Traffic shrinks proportionally with the scope.
        assert scoped.forwards < by_case["global"].forwards / 4


class TestE11Partition:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(
                {
                    "num_nodes": 60, "durations": (15.0,),
                    "buffer_capacities": (64,), "publish_interval": 5.0,
                },
                id="small",
            ),
            full({"num_nodes": 120, "durations": (20.0,), "buffer_capacities": (256,)}),
        ],
    )
    def test_short_partition_heals_fully(self, kwargs):
        row = run_e11(**kwargs).rows[0]
        assert row.recovered_ratio > 0.95
        assert row.recovery_time_s is not None

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(
                {
                    "num_nodes": 60, "durations": (90.0,),
                    "buffer_capacities": (8, 128), "publish_interval": 4.0,
                },
                id="small",
            ),
            full(
                {"num_nodes": 120, "durations": (120.0,), "buffer_capacities": (16, 256)}
            ),
        ],
    )
    def test_long_partition_small_buffer_loses_backlog(self, kwargs):
        small, large = run_e11(**kwargs).rows
        assert small.recovered_ratio < large.recovered_ratio
        assert large.recovered_ratio > 0.95


class TestE4Physical:
    @pytest.mark.slow
    def test_delivery_survives_physically_saturated_downlink(self):
        from repro.experiments.e4_overload import run_e4_physical

        row = run_e4_physical(num_nodes=100, items=5)
        assert row.delivery_ratio > 0.95
        assert row.latency_p90 < 5.0
