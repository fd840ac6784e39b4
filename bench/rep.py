"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts ``python bench/rep.py '<json spec>'`` for every
repetition, so import and build cost, peak RSS and the tracer's
monkey-patches are all per run.  The last line of standard output is
one JSON object; a run the oracle rejects still prints it (with
``correct: false`` and the offending pairs) and exits 1.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

RUN_PHASES = ("settle", "publish", "drain", "collect")


def run(spec: dict) -> dict:
    # Imported here so that their cost (the whole of ``repro``) falls
    # inside ``setup_s``, which is measured from ``spec["spawned_at"]``.
    import layers
    import oracle
    import workloads

    name = spec["workload"]
    workload = workloads.WORKLOADS[name]
    tracer = monitor = causal = None
    built: dict = {}  # the tracer's per-layer self seconds when the build ended
    if spec["traced"]:
        from repro.obs.causal import CausalSink

        tracer = layers.Tracer()
        tracer.install(name)
        monitor = layers.HeapMonitor()
        # The columnar walk is analytic: no queue or transit to split,
        # and 600k retained spans would only distort the layer shares.
        if name not in layers.COLUMNAR:
            causal = CausalSink()
    opts = workloads.Options(
        seed=spec["seed"],
        smoke=spec["smoke"],
        base_port=spec["base_port"] or workloads.DEFAULT_BASE_PORT,
        monitor=monitor,
        extra_sink=causal,
        on_built=(lambda: built.update(tracer.snapshot())) if tracer else None,
    )
    outcome = workload.run(workload.plan(opts), opts)
    # Before the oracle runs: its pair sets would count as the system's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = outcome.setup_done - spec["spawned_at"]

    phases = outcome.phases
    run_s = sum(phases[phase] for phase in RUN_PHASES)
    sink = outcome.sink
    verdict = oracle.judge(outcome.plan, sink.nodes, sink.items)
    latencies = sink.latencies
    if workload.live:
        # Open loop: time each delivery from when its item was *due*.
        lag = outcome.lag_by_item
        latencies = [late + lag[item] for late, item in zip(latencies, sink.items)]
    p50, p99 = oracle.latency_percentiles(latencies)
    failed = verdict.failed + outcome.flow_controlled + outcome.receive_errors
    end_to_end = {
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": setup_s + run_s,
        "peak_rss_mb": peak_rss_mb,
        "delivery_ratio": verdict.delivery_ratio,
        "latency_p50_ms": p50 * 1000.0,
        "latency_p99_ms": p99 * 1000.0,
    }
    # Every per-layer metric is reported on every workload; a layer the
    # workload never enters reads 0.
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {metric["name"]: 0.0 for metric in benchmark["per_layer"]}
    known = set(per_layer)
    per_layer.update({f"phase.{phase}_s": seconds for phase, seconds in phases.items()})
    per_layer.update(outcome.counts)
    per_layer.update(outcome.timed)
    if workload.live:
        per_layer["runtime.udp.generator_lag_p99_ms"] = (
            oracle.percentile(sorted(outcome.lag_by_item.values()), 99.0) * 1000.0
        )
        per_layer["runtime.udp.cpu_ms_per_delivery"] = (
            outcome.timed["runtime.udp.cpu_s"] * 1000.0 / max(1, len(sink.items))
        )
    result = {
        "workload": name,
        "live": workload.live,
        "seed": spec["seed"],
        "correct": failed == 0,
        "attempted": verdict.required + outcome.publishes_attempted,
        "failed": failed,
        "offenders": verdict.offenders,
        "guard_digest": verdict.guard_digest,
        "inputs_digest": oracle.inputs_digest(outcome.plan),
        "deliveries": len(sink.items),
        "counts": outcome.counts,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    if tracer:
        result["trace_file"] = _finish_trace(
            spec, tracer, monitor, causal, built, run_s, per_layer, workload.live
        )
    unknown = sorted(set(per_layer) - known)
    if unknown:
        raise RuntimeError(f"metrics emitted but not named in BENCHMARK.json: {unknown}")
    return result


def _finish_trace(
    spec, tracer, monitor, causal, built, run_s, per_layer, live: bool
) -> str:
    """Fold the tracer into ``per_layer`` and write the trace file."""
    silent = tracer.never_called()
    if silent:
        raise RuntimeError(
            f"{spec['workload']}: wrapped entry points never called: {silent}"
        )
    total = tracer.snapshot()
    per_layer.update(total)
    per_layer.update(tracer.count_metrics())
    per_layer["sim.engine.heap_max"] = monitor.heap_max
    # Run-phase seconds per layer.  What no other layer covers is the
    # event kernel's own (heap pushes and pops, dispatch); a live run's
    # uncovered time is mostly sleep, so it is left unassigned there.
    in_run = {metric: total[metric] - built.get(metric, 0.0) for metric in total}
    in_run.pop("sim.engine.self_s", None)
    attributed = sum(in_run.values())
    if not live:
        in_run["sim.engine.self_s"] = max(0.0, run_s - attributed)
        per_layer["sim.engine.self_s"] = in_run["sim.engine.self_s"]
    report = tracer.report()
    report.update(
        workload=spec["workload"],
        seed=spec["seed"],
        run_s=run_s,
        run_phase_self_s=dict(sorted(in_run.items(), key=lambda kv: -kv[1])),
        attributed_share=attributed / run_s,
        causal=causal.summary() if causal else None,
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{spec['workload']}.trace.json"
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    return str(path.relative_to(HERE.parent))


def main(argv) -> int:
    spec = json.loads(argv[1])
    result = run(spec)
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
