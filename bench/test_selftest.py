"""Self-tests of the benchmark (``python -m pytest bench/ -q``).

Not part of the tier-1 suite: they start child interpreters and bind
loopback sockets.  Everything runs at ``--smoke`` size.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]
#: Its own port range, so a benchmark running beside the tests is safe.
TEST_BASE_PORT = 45400


def run_driver(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--base-port", str(TEST_BASE_PORT), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_file_names_exactly_the_workloads() -> None:
    assert NAMES == list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]
    assert "setup_s" in [metric["name"] for metric in BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_named_metric_and_no_other(name: str) -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_driver("--smoke", "--seconds", "0", "--workload", name, "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = last_json(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seed_changes_the_generated_inputs() -> None:
    for name, workload in workloads.WORKLOADS.items():
        digests = {
            oracle.inputs_digest(workload.plan(workloads.Options(seed=seed, smoke=True)))
            for seed in (0, 0, 1)
        }
        assert len(digests) == 2, name


def test_dropping_one_expected_pair_fails_the_oracle() -> None:
    workload = workloads.WORKLOADS["columnar-feed-20k"]
    opts = workloads.Options(seed=0, smoke=True)
    outcome = workload.run(workload.plan(opts), opts)
    sink = outcome.sink
    assert oracle.judge(outcome.plan, sink.nodes, sink.items).failed == 0
    required, optional = oracle.expected_pairs(outcome.plan)
    width = outcome.plan.num_nodes
    victim = next(
        position
        for position, (node, item) in enumerate(zip(sink.nodes, sink.items))
        if oracle.item_serial(item) * width + oracle.node_index(node) in required
    )
    nodes = sink.nodes[:victim] + sink.nodes[victim + 1:]
    items = sink.items[:victim] + sink.items[victim + 1:]
    verdict = oracle.judge(outcome.plan, nodes, items)
    assert verdict.missing == 1 and verdict.failed == 1
    assert verdict.delivery_ratio < 1.0
    assert verdict.offenders[0][0] == "missing"
    # ... and a delivery nobody asked for, or a repeated one, fails too.
    stranger = next(
        index for index in range(width)
        if (1 * width + index) not in required and (1 * width + index) not in optional
    )
    extra = oracle.judge(
        outcome.plan,
        sink.nodes + [f"/z0/n{stranger}", sink.nodes[0]],
        sink.items + [f"{workloads.PUBLISHER}:1.r0", sink.items[0]],
    )
    assert extra.unexpected == 1 and extra.duplicates == 1


def test_live_workload_names_the_port_range_it_cannot_bind() -> None:
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        blocker.bind(("127.0.0.1", TEST_BASE_PORT + 3))
        done = run_driver("--smoke", "--seconds", "0", "--workload", "live-udp-50", "--trace", "0")
    finally:
        blocker.close()
    assert done.returncode != 0
    assert f"{TEST_BASE_PORT}-{TEST_BASE_PORT + 11}" in done.stderr


def test_compare_names_the_layer_behind_a_regression() -> None:
    def result(run_s: float, walk_s: float, reps: int = 3, live: bool = False) -> dict:
        summary = compare.summarize([run_s, run_s * 1.01, run_s * 0.99][:reps])
        return {
            "workloads": {
                "columnar-feed-20k": {
                    "live": live,
                    "end_to_end": {"run_s": summary},
                    "per_layer": {"scale.backend.walk_self_s": walk_s, "obs.self_s": 0.5},
                }
            }
        }

    rows = compare.compare(BENCHMARK, result(4.0, 1.0), result(6.0, 2.9))
    (row,) = rows
    assert row["verdict"] == "worse"
    assert row["layer"].startswith("scale.backend.walk_self_s")
    assert "1.5000x of 4" in compare.format_rows(rows)
    (same,) = compare.compare(BENCHMARK, result(4.0, 1.0), result(4.1, 1.0))
    assert same["verdict"] == "same"
    # Fewer than three repetitions have no spread: never better or worse.
    (lone,) = compare.compare(BENCHMARK, result(4.0, 1.0), result(6.0, 2.9, reps=2))
    assert lone["verdict"] == "unresolved"
    # A live run lasts as long as its schedule: its length is not scored.
    assert not compare.compare(
        BENCHMARK, result(4.0, 1.0, live=True), result(6.0, 2.9, live=True)
    )
