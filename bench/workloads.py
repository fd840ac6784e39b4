"""The five benchmark workloads: seeded inputs, then timed phases.

Each workload turns a seed into a :class:`Plan` (who subscribes to
what, what is published when, who fails when), feeds that plan to the
system through its public builders and drivers, and times the ROADMAP
phases from outside: build / settle / publish / drain / collect.  The
system only ever sees the generated inputs; :mod:`oracle` re-derives
the required deliveries from the same plan without asking the system.

Sizes were chosen on a 2-core box so that one untraced repetition of
every workload together stays under a minute (see README.md).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.astrolabe.deployment import balanced_paths
from repro.core.config import NewsWireConfig
from repro.core.errors import FlowControlError
from repro.experiments.common import body_text, drive_trace
from repro.live.deploy import LiveSpec, live_config
from repro.metrics import collectors
from repro.news.deployment import build_newswire
from repro.obs.sinks import MemorySink, StreamingSink
from repro.pubsub.subscription import Subscription
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.scale.backend import build_columnar
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication

PUBLISHER = "newswire"
SUBJECTS = tuple(subjects_for((PUBLISHER,), TECH_CATEGORIES))
LATE_SUBJECTS = tuple(f"{PUBLISHER}/late-{k}" for k in range(4))
SUBSCRIPTIONS_PER_NODE = 3
#: Protocol defaults on the simulator; the live workload uses ``live_config``.
CONFIG = NewsWireConfig()

#: Seed of the one arrival-time sample path every feed uses.
ARRIVALS_SEED = 20020702

#: Default first UDP port of the live workload: clear of 47000
#: (``python -m repro.live``) and 49700 (the sim-vs-live test).
DEFAULT_BASE_PORT = 45200


# ----------------------------------------------------------------------
# Inputs and raw outputs
# ----------------------------------------------------------------------

@dataclass
class Plan:
    """Everything one run feeds the system, generated from the seed.

    Times are offsets from the start of the publish phase.
    """

    num_nodes: int
    interests: InterestModel
    publications: List[Publication]
    #: Run-time subscriptions: ``(offset, node index, subject)``.
    subscribes: List[Tuple[float, int, str]] = field(default_factory=list)
    #: Crash/recover pairs: ``(fail offset, recover offset, node index)``.
    failures: List[Tuple[float, float, int]] = field(default_factory=list)


@dataclass(frozen=True)
class Options:
    """How one repetition is run (``rep.py`` builds it from its spec)."""

    seed: int
    smoke: bool = False
    base_port: int = DEFAULT_BASE_PORT
    #: Traced repetitions only: a dispatch monitor for the simulator,
    #: an extra trace sink (the ``CausalSink``) and a callback fired
    #: when the build phase ends.
    monitor: Any = None
    extra_sink: Any = None
    on_built: Optional[Callable[[], None]] = None


class DeliverySink:
    """Trace sink keeping, by reference, what the oracle needs of each delivery."""

    def __init__(self) -> None:
        self.nodes: List[str] = []
        self.items: List[str] = []
        self.latencies = array("d")

    def emit(self, time_: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "deliver":
            self.nodes.append(fields["node"])
            self.items.append(fields["item"])
            self.latencies.append(fields["latency"])

    def clear(self) -> None:
        self.nodes.clear()
        self.items.clear()
        self.latencies = array("d")

    def close(self) -> None:
        pass


@dataclass
class Outcome:
    """What one repetition observed, before the oracle judges it."""

    plan: Plan
    sink: DeliverySink
    #: Wall-clock time (``time.time()``) when the build phase ended.
    setup_done: float
    phases: Dict[str, float]
    #: Per-layer counts read from the counters the layers expose; on
    #: the simulator they repeat exactly for one seed.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values derived from host time, which never do.
    timed: Dict[str, float] = field(default_factory=dict)
    publishes_attempted: int = 0
    flow_controlled: int = 0
    receive_errors: int = 0
    #: Live only: per-item ``actual - scheduled`` publish time, seconds.
    lag_by_item: Dict[str, float] = field(default_factory=dict)


class Phases:
    """Host seconds per named phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - started


def _interests(seed: int, num_nodes: int) -> InterestModel:
    interests = InterestModel(
        subjects=SUBJECTS, subscriptions_per_node=SUBSCRIPTIONS_PER_NODE, seed=seed
    )
    interests.prepare(num_nodes)
    return interests


def _spaced_items(count: int, spacing: float, subjects=SUBJECTS, first: float = 0.0):
    return [
        Publication(
            time=first + index * spacing,
            subject=subjects[index % len(subjects)],
            headline=f"story {index}",
            body_words=200,
        )
        for index in range(count)
    ]


def _shifted(publications: List[Publication], start: float) -> List[Publication]:
    return [dataclasses.replace(p, time=start + p.time) for p in publications]


# ----------------------------------------------------------------------
# Simulated workloads (object and columnar backends)
# ----------------------------------------------------------------------

def _run_sim(
    plan: Plan,
    build: Callable[[list], Any],
    settle_rounds: float,
    drain: float,
    primary_sink,
    opts: Options,
) -> Outcome:
    """Build, settle, publish, drain and collect on the simulator."""
    phases = Phases()
    sink = DeliverySink()
    sinks = [primary_sink, sink]
    if opts.extra_sink is not None:
        sinks.append(opts.extra_sink)
    with phases("build"):
        system = build(sinks)
    setup_done = time.time()
    if opts.on_built is not None:
        opts.on_built()
    sim = system.sim
    if opts.monitor is not None:
        sim.add_monitor(opts.monitor)

    with phases("settle"):
        system.run_for(settle_rounds * CONFIG.gossip.interval)
    start = sim.now
    with phases("publish"):
        driven = drive_trace(system, PUBLISHER, _shifted(plan.publications, start))
        for offset, index, subject in plan.subscribes:
            sim.call_at(start + offset, system.subscribe, index, Subscription(subject))
        for fail_at, recover_at, index in plan.failures:
            sim.call_at(start + fail_at, system.fail_node, index)
            sim.call_at(start + recover_at, system.recover_node, index)
        last = plan.publications[-1].time
        sim.run_until(start + last)
    with phases("drain"):
        sim.run_until(start + last + drain)
    with phases("collect"):
        collectors.collect_delivery_stats(system.trace)
        counts = _sim_counts(system)
    busy = phases.seconds["settle"] + phases.seconds["publish"] + phases.seconds["drain"]
    return Outcome(
        plan=plan,
        sink=sink,
        setup_done=setup_done,
        phases=phases.seconds,
        counts=counts,
        timed={"sim.engine.events_per_s": sim.events_processed / busy},
        publishes_attempted=len(plan.publications),
        flow_controlled=driven.flow_controlled,
    )


def _trace_counts(trace) -> Dict[str, float]:
    """Counts every backend reports through ``TraceLog.counts()``."""
    seen = trace.counts()
    forwards = seen.get("forward", 0)
    return {
        "gossip.exchanges": seen.get("gossip-request", 0),
        "pubsub.filtered": seen.get("filtered", 0),
        "pubsub.rejected": seen.get("rejected", 0),
        "pubsub.delivered_per_forward": (
            seen.get("deliver", 0) / forwards if forwards else 0.0
        ),
        "multicast.forwards": forwards,
        "multicast.dup_dropped": seen.get("dup-dropped", 0),
        "multicast.repair_delivered": seen.get("repair-delivered", 0),
        "news.publishes": seen.get("publish", 0),
        "news.flow_controlled": seen.get("flow-control", 0),
        "obs.events_recorded": sum(seen.values()),
    }


def _node_counts(system) -> Dict[str, float]:
    """Counts the object-backend nodes expose, on the simulator or live."""
    enqueued = sent = dropped = backlog = 0
    total_wait = 0.0
    for node in system.nodes:
        stats = node.queues.stats
        enqueued += stats.enqueued
        sent += stats.sent
        dropped += stats.dropped_on_crash
        total_wait += stats.total_wait
        backlog = max(backlog, stats.max_backlog)
    return {
        "pubsub.forward_tests": system.metrics.counter("bloom.tests").value,
        "multicast.queues.enqueued": enqueued,
        "multicast.queues.mean_wait_s": total_wait / sent if sent else 0.0,
        "multicast.queues.max_backlog": backlog,
        "multicast.queues.dropped_on_crash": dropped,
    }


def _sim_counts(system) -> Dict[str, float]:
    counts = _trace_counts(system.trace)
    counts["sim.engine.events"] = system.sim.events_processed
    if system.nodes:  # object backend: per-node queues and a simulated network
        counts.update(_node_counts(system))
        per_node = [system.network.node_stats(node.node_id) for node in system.nodes]
        counts["sim.network.sent_messages"] = sum(s.sent_messages for s in per_node)
        counts["sim.network.sent_bytes"] = sum(s.sent_bytes for s in per_node)
        counts["sim.network.dropped"] = system.network.stats.dropped
    else:  # columnar backend
        counts["scale.backend.deliver_events"] = system.trace.count("deliver")
        counts["scale.batched.rounds"] = system.gossip.rounds_run
        counts["scale.batched.reconciles"] = system.gossip.reconciles
    return counts


def _build_object(plan: Plan, deployment_seed: int, publisher_rate: float, sinks):
    return build_newswire(
        plan.num_nodes,
        CONFIG,
        publisher_names=(PUBLISHER,),
        publisher_rate=publisher_rate,
        subscriptions_for=plan.interests.subscriptions_for,
        seed=deployment_seed,
        sinks=sinks,
    )


def _build_columnar(plan: Plan, deployment_seed: int, sinks):
    return build_columnar(
        plan.num_nodes,
        CONFIG,
        publisher_names=(PUBLISHER,),
        subscriptions_for=plan.interests.subscriptions_for,
        seed=deployment_seed,
        sinks=sinks,
    )


def object_e2_plan(opts: Options) -> Plan:
    nodes, items = (100, 2) if opts.smoke else (1000, 5)
    return Plan(nodes, _interests(opts.seed, nodes), _spaced_items(items, 1.0))


def object_e2(plan: Plan, opts: Options) -> Outcome:
    """E2 shape on the object backend (deployment seed ``seed + nodes``,
    interest seed ``seed``, as ``run_e2`` does)."""
    return _run_sim(
        plan,
        lambda sinks: _build_object(plan, opts.seed + plan.num_nodes, 50.0, sinks),
        settle_rounds=3.0,
        drain=10.0 if opts.smoke else 30.0,
        primary_sink=MemorySink(),
        opts=opts,
    )


def _poisson_times(count: int, rate: float) -> List[float]:
    """``count`` arrival offsets of one fixed Poisson sample path.

    The same path for every seed: with a few hundred arrivals the
    latency tail is set by where the bursts happen to fall (live p99
    ranged 130-310 ms across per-seed paths), which would bury any
    regression under input noise.  The seed varies everything else.
    """
    rng = random.Random(ARRIVALS_SEED)
    now = 0.0
    times = []
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def _feed(seed: int, count: int, rate: float) -> List[Publication]:
    """Open-loop feed: the fixed arrival path, subjects in rotation.

    Every node holds three subjects, so rotating through all six keeps
    the number of required deliveries the same for every seed; the seed
    decides who the subscribers are and how long each story is.
    """
    rng = random.Random(seed)
    return [
        Publication(
            time=due,
            subject=SUBJECTS[index % len(SUBJECTS)],
            headline=f"story {index}",
            body_words=rng.randint(50, 400),
        )
        for index, due in enumerate(_poisson_times(count, rate))
    ]


def object_feed_plan(opts: Options) -> Plan:
    nodes, items = (80, 30) if opts.smoke else (300, 300)
    return Plan(nodes, _interests(opts.seed, nodes), _feed(opts.seed, items, 10.0))


def object_feed(plan: Plan, opts: Options) -> Outcome:
    """Open-loop Poisson feed at 10 items/s on the object backend.

    10/s is below the simulated knee: forwarding queues hold a backlog
    but drain.
    """
    return _run_sim(
        plan,
        lambda sinks: _build_object(plan, opts.seed + plan.num_nodes, 1000.0, sinks),
        settle_rounds=3.0,
        drain=5.0 if opts.smoke else 10.0,
        primary_sink=MemorySink(),
        opts=opts,
    )


def columnar_e2_plan(opts: Options) -> Plan:
    """The standing ``bench_scale`` point on the columnar backend."""
    nodes = 2000 if opts.smoke else 100_000
    return Plan(nodes, _interests(opts.seed, nodes), _spaced_items(3, 1.0))


def _run_columnar(plan: Plan, opts: Options) -> Outcome:
    """Both columnar workloads run alike; their plans differ."""
    return _run_sim(
        plan,
        lambda sinks: _build_columnar(plan, opts.seed + plan.num_nodes, sinks),
        settle_rounds=2.0,
        drain=20.0,
        primary_sink=StreamingSink(),
        opts=opts,
    )


def columnar_feed_plan(opts: Options) -> Plan:
    """Columnar backend with writes beside reads.

    Phase A publishes on the base subjects while run-time subscriptions
    to fresh subjects and crash/recover pairs land at seeded times;
    phase B, 60 simulated seconds later, publishes on the fresh
    subjects, so late-subject routing has to have propagated.
    """
    nodes, items, subscribes, failures = (
        (1000, 10, 30, 10) if opts.smoke else (20_000, 60, 500, 100)
    )
    rng = random.Random(opts.seed)
    spacing = 0.5
    window = items * spacing
    phase_a = _spaced_items(items, spacing)
    phase_b = _spaced_items(
        len(LATE_SUBJECTS), 1.0, subjects=LATE_SUBJECTS, first=window + 60.0
    )
    late = sorted(
        (rng.uniform(0.0, window), rng.randrange(nodes), rng.choice(LATE_SUBJECTS))
        for _ in range(subscribes)
    )
    # Crashes last 1-5 s, well under the 30 s row TTL, and never hit
    # the publisher (node 0).
    crashed = []
    for index in rng.sample(range(1, nodes), failures):
        fail_at = rng.uniform(0.0, window)
        crashed.append((fail_at, fail_at + rng.uniform(1.0, 5.0), index))
    return Plan(
        nodes, _interests(opts.seed, nodes), phase_a + phase_b, late, sorted(crashed)
    )


# ----------------------------------------------------------------------
# Live workload (real loopback UDP sockets, wall-clock timers)
# ----------------------------------------------------------------------

def live_udp_plan(opts: Options) -> Plan:
    nodes, items, rate = (12, 10, 20.0) if opts.smoke else (50, 72, 10.0)
    return Plan(nodes, _interests(opts.seed, nodes), _feed(opts.seed, items, rate))


def live_udp(plan: Plan, opts: Options) -> Outcome:
    """50 nodes in one asyncio loop; open-loop Poisson feed at 10 items/s.

    10/s keeps the loop near 30 % CPU, under the measured knee, so
    latency is stable and extra per-datagram cost shows as busy time
    before it shows as loss.
    """
    warmup, drain = (0.5, 1.0) if opts.smoke else (1.5, 3.0)
    return asyncio.run(_run_live(plan, warmup, drain, opts))


async def _run_live(plan: Plan, warmup: float, drain: float, opts: Options) -> Outcome:
    phases = Phases()
    sink = DeliverySink()
    sinks = [MemorySink(), sink]
    if opts.extra_sink is not None:
        sinks.append(opts.extra_sink)
    config = live_config(LiveSpec())
    last_port = opts.base_port + plan.num_nodes - 1
    with phases("build"):
        paths = balanced_paths(plan.num_nodes, config.branching_factor)
        runtime = AsyncioUdpRuntime(
            seed=opts.seed,
            address_book={
                str(path): ("127.0.0.1", opts.base_port + index)
                for index, path in enumerate(paths)
            },
        )
        system = build_newswire(
            plan.num_nodes,
            config,
            publisher_names=(PUBLISHER,),
            publisher_rate=200.0,
            subscriptions_for=plan.interests.subscriptions_for,
            seed=opts.seed,
            sinks=sinks,
            start=False,
            runtime=runtime,
        )
        try:
            await runtime.start()
        except OSError as exc:
            runtime.close()
            raise SystemExit(
                f"live-udp-50: cannot bind UDP ports {opts.base_port}-{last_port} "
                f"on 127.0.0.1: {exc}"
            ) from exc
        for node in system.nodes:
            node.start()
    setup_done = time.time()
    if opts.on_built is not None:
        opts.on_built()
    try:
        return await _drive_live(
            plan, system, runtime, warmup, drain, phases, sink, setup_done
        )
    finally:
        for node in system.nodes:
            node.crash()  # cancels the node's timers
        runtime.close()


async def _drive_live(
    plan, system, runtime, warmup, drain, phases, sink, setup_done
) -> Outcome:
    publisher = system.publisher(PUBLISHER)
    lag_by_item: Dict[str, float] = {}
    flow_controlled = 0

    def publish_one(publication: Publication, due: float) -> None:
        nonlocal flow_controlled
        lag = runtime.now - due
        try:
            item = publisher.publish_news(
                subject=publication.subject,
                headline=publication.headline,
                body=body_text(publication.body_words),
            )
        except FlowControlError:
            flow_controlled += 1
        else:
            lag_by_item[str(item.item_id)] = lag

    cpu_started = time.process_time()
    with phases("settle"):
        await asyncio.sleep(warmup)
    with phases("publish"):
        # Open loop: every send is scheduled up front against the wall
        # clock, whatever the system does with the earlier ones.
        start = runtime.now
        for publication in plan.publications:
            due = start + publication.time
            runtime.call_at(due, publish_one, publication, due)
        await asyncio.sleep(plan.publications[-1].time)
    with phases("drain"):
        await asyncio.sleep(drain)
    cpu_s = time.process_time() - cpu_started
    with phases("collect"):
        collectors.collect_delivery_stats(system.trace)
        counts = _trace_counts(system.trace)
        counts.update(_node_counts(system))
        per_node = [runtime.node_stats(node.node_id) for node in system.nodes]
        counts["runtime.udp.datagrams_sent"] = sum(s.sent_messages for s in per_node)
        counts["runtime.udp.bytes_sent"] = sum(s.sent_bytes for s in per_node)
        counts["runtime.udp.receive_errors"] = runtime.receive_errors
        counts["runtime.udp.dropped_oversize"] = runtime.dropped_oversize
    return Outcome(
        plan=plan,
        sink=sink,
        setup_done=setup_done,
        phases=phases.seconds,
        counts=counts,
        timed={"runtime.udp.cpu_s": cpu_s},
        publishes_attempted=len(plan.publications),
        flow_controlled=flow_controlled,
        receive_errors=runtime.receive_errors + runtime.dropped_oversize,
        lag_by_item=lag_by_item,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: The seed's inputs; the oracle reads nothing else.
    plan: Callable[[Options], Plan]
    run: Callable[[Plan, Options], Outcome]
    #: Host time is set by the schedule and latency is wall-clock, so
    #: nothing about a run repeats exactly.
    live: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("object-e2-1k", object_e2_plan, object_e2),
        Workload("object-feed-300", object_feed_plan, object_feed),
        Workload("columnar-e2-100k", columnar_e2_plan, _run_columnar),
        Workload("columnar-feed-20k", columnar_feed_plan, _run_columnar),
        Workload("live-udp-50", live_udp_plan, live_udp, live=True),
    )
}
