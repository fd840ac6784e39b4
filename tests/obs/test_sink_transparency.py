"""Sinks must be observers only: attaching them cannot change results.

The golden-fingerprint tests pin the default (memory-sink) behaviour;
this module pins the stronger property that extra sinks see the run
without perturbing it — same RNG draws, same event order, same
latencies to the last bit.  Note that *which* sinks are attached does
change where the latency summary comes from (exact from a memory
sink, histogram-approximate from a streaming sink), so the
byte-identical comparison keeps a MemorySink in the mix.
"""

import pytest

from repro.experiments.e2_latency import run_e2
from repro.experiments.registry import ExperimentConfig, RunOptions, get_spec
from repro.obs.causal import CausalSink
from repro.obs.sinks import JsonlFileSink, StreamingSink
from repro.parallel import run_spec
from repro.sim.trace import observed_traces

E2_KWARGS = dict(
    sizes=(48,),
    items=3,
    item_spacing=1.0,
    subscriptions_per_node=2,
    settle_rounds=2.0,
    drain_time=20.0,
    seed=11,
)


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


class TestSinkTransparency:
    def test_extra_sinks_do_not_perturb_run(self, tmp_path):
        baseline = run_e2(**E2_KWARGS)
        with JsonlFileSink(tmp_path / "run.jsonl") as jsonl:
            with observed_traces(lambda trace: StreamingSink(), lambda trace: jsonl):
                observed = run_e2(**E2_KWARGS)
        assert fingerprint(observed) == fingerprint(baseline)
        # The file sink actually saw the traffic it was asked to record.
        assert jsonl.lines_written > 0

    def test_streaming_only_run_is_not_perturbed(self):
        """Without a memory sink the exact-valued fields still agree.

        Quantiles are histogram-approximate in streaming mode, so they
        are compared with a tolerance rather than bit-for-bit.
        """
        baseline = run_e2(**E2_KWARGS)
        sink = StreamingSink()
        with observed_traces(lambda trace: sink):
            observed = run_e2(**E2_KWARGS)

        base_row, obs_row = baseline.rows[0], observed.rows[0]
        assert obs_row.expected == base_row.expected
        assert obs_row.delivered == base_row.delivered
        assert obs_row.ratio == base_row.ratio
        assert obs_row.latency.count == base_row.latency.count
        assert obs_row.latency.maximum == base_row.latency.maximum
        assert obs_row.latency.p50 == pytest.approx(base_row.latency.p50, abs=0.05)

        # The sink's own aggregates agree with the exact trace scan.
        assert sink.count("deliver") == base_row.delivered
        assert sink.latency.count == base_row.delivered
        assert sink.latency.maximum == base_row.latency.maximum

    def test_causal_sink_does_not_perturb_run(self):
        """CausalSink rebuilds dissemination trees without touching the run."""
        baseline = run_e2(**E2_KWARGS)
        causal = CausalSink()
        with observed_traces(lambda trace: causal):
            observed = run_e2(**E2_KWARGS)
        assert fingerprint(observed) == fingerprint(baseline)
        # The sink actually reconstructed the dissemination it watched.
        assert causal.events_seen > 0
        assert len(causal.trees) == E2_KWARGS["items"]
        assert sum(
            len(t.delivered_nodes) for t in causal.trees.values()
        ) == baseline.rows[0].delivered

    def test_causal_alongside_streaming_does_not_perturb_run(self):
        baseline = run_e2(**E2_KWARGS)
        causal = CausalSink()
        with observed_traces(lambda trace: StreamingSink(), lambda trace: causal):
            observed = run_e2(**E2_KWARGS)
        assert fingerprint(observed) == fingerprint(baseline)
        assert causal.events_seen > 0

    def test_report_mode_does_not_perturb_run(self):
        """``RunOptions(report=True)`` only attaches a sink per trace;
        rows stay byte-identical."""
        baseline = run_e2(**E2_KWARGS)
        observed = run_spec(
            get_spec("e2"),
            ExperimentConfig(overrides=E2_KWARGS),
            RunOptions(report=True),
        )
        assert fingerprint(observed.result) == fingerprint(baseline)
        ((summary, _text),) = observed.causal.values()
        assert summary["deliveries"] == baseline.rows[0].delivered
