"""Multi-process live NewsWire deployment on real UDP sockets.

``run_live`` boots a full NewsWire population across several worker
processes, each hosting a slice of the nodes on its own
:class:`~repro.runtime.asyncio_udp.AsyncioUdpRuntime`.  Every datagram
— gossip, multicast forwarding, anti-entropy repair — crosses real
sockets, including between processes.  A synthetic feed is published
through the usual certificate-checked publisher path and the run is
judged on the same accounting the simulation experiments use: expected
deliveries from the :class:`~repro.workloads.populations.InterestModel`
versus observed ``deliver`` trace events, plus the duplicate
suppression counters that show the redundant dissemination paths were
actually exercised.

Construction per worker mirrors the simulator exactly: each worker
builds the *same* reference simulation deployment (``start=False``,
never run) purely to obtain the deterministic time-zero state — zone
tables, Bloom aggregates, certificates, keychain — then copies that
state into its locally-owned live nodes.  Because the keychain derives
principal secrets deterministically, publisher signatures verify
across process boundaries without any key distribution.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing as mp
import queue as queue_mod
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.config import GossipConfig, MulticastConfig, NewsWireConfig
from repro.core.errors import ConfigurationError, FlowControlError
from repro.workloads.populations import InterestModel, zipf_weights
from repro.workloads.traces import Publication

__all__ = [
    "LiveSpec",
    "LiveReport",
    "TelemetryCollector",
    "run_live",
    "make_trace",
    "live_config",
]

#: Default subjects for the synthetic feed.
SUBJECTS = (
    "news/politics",
    "news/business",
    "news/sports",
    "news/science",
    "news/weather",
)


@dataclass(frozen=True)
class LiveSpec:
    """Declarative description of one live deployment run."""

    num_nodes: int = 50
    workers: int = 4
    base_port: int = 47000
    host: str = "127.0.0.1"
    seed: int = 0
    #: Synthetic feed: number of stories and mean inter-arrival gap.
    items: int = 40
    publish_interval: float = 0.15
    subjects: Tuple[str, ...] = SUBJECTS
    subscriptions_per_node: int = 3
    publisher_name: str = "newswire"
    publisher_rate: float = 200.0
    #: Seconds of gossip before the first story (spreads the publisher
    #: announcement and freshens the pre-seeded tables).
    warmup: float = 1.5
    #: Seconds after the last story for repair rounds to fill gaps.
    drain: float = 3.0
    min_delivery: float = 0.99
    #: Wall-clock seconds between worker telemetry snapshots (shipped
    #: to the parent over the result plumbing; see
    #: :class:`TelemetryCollector`).
    telemetry_interval: float = 1.0

    def validate(self) -> "LiveSpec":
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if not 1 <= self.workers <= self.num_nodes:
            raise ConfigurationError("workers must be in [1, num_nodes]")
        if self.items <= 0:
            raise ConfigurationError("items must be positive")
        if self.publish_interval <= 0:
            raise ConfigurationError("publish_interval must be positive")
        if not self.subjects:
            raise ConfigurationError("subjects must not be empty")
        if not 0.0 < self.min_delivery <= 1.0:
            raise ConfigurationError("min_delivery must be in (0, 1]")
        if self.telemetry_interval <= 0:
            raise ConfigurationError("telemetry_interval must be positive")
        return self


def live_config(spec: LiveSpec) -> NewsWireConfig:
    """Protocol timings tightened for a seconds-long wall-clock run.

    ``send_to_representatives=2`` turns on full tree redundancy so the
    duplicate-suppression path is demonstrably exercised; a generous
    row TTL keeps the pre-seeded (t=0) rows alive until gossip has
    refreshed every table.
    """
    return NewsWireConfig(
        branching_factor=8,
        gossip=GossipConfig(
            interval=0.25, fanout=1, jitter=0.2, row_ttl_rounds=60
        ),
        multicast=MulticastConfig(
            representatives=2,
            send_to_representatives=2,
            forwarding_delay=0.02,
            repair_interval=0.75,
        ),
    )


def make_trace(spec: LiveSpec) -> List[Publication]:
    """The synthetic feed: deterministic in ``spec`` alone, so the
    parent (for expectations) and the publishing worker (for the
    schedule) agree without any coordination."""
    rng = random.Random(spec.seed ^ 0x5EED)
    weights = zipf_weights(len(spec.subjects))
    publications: List[Publication] = []
    now = 0.0
    for serial in range(1, spec.items + 1):
        now += rng.expovariate(1.0 / spec.publish_interval)
        subject = rng.choices(spec.subjects, weights)[0]
        publications.append(
            Publication(
                time=now,
                subject=subject,
                headline=f"{subject} story {serial}",
                body_words=120,
                categories=(subject.rpartition("/")[2] or subject,),
                urgency=5,
            )
        )
    return publications


def address_book_for(spec: LiveSpec, paths) -> Dict[str, Tuple[str, int]]:
    """One UDP port per node, deterministic in the node's index."""
    return {
        str(path): (spec.host, spec.base_port + index)
        for index, path in enumerate(paths)
    }


def worker_indices(spec: LiveSpec, worker: int) -> List[int]:
    """Round-robin node ownership: keeps every zone spread across
    processes so intra-zone gossip exercises real sockets."""
    return [i for i in range(spec.num_nodes) if i % spec.workers == worker]


class _DeliverySink:
    """Trace sink retaining (node, item) delivery pairs only."""

    def __init__(self) -> None:
        self.pairs: List[Tuple[str, str]] = []

    def emit(self, time_: float, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "deliver":
            self.pairs.append((str(fields["node"]), str(fields["item"])))

    def clear(self) -> None:
        self.pairs.clear()

    def close(self) -> None:
        pass


class TelemetryCollector:
    """Parent-side fold of worker telemetry snapshots.

    Workers ship one small dict per :attr:`LiveSpec.telemetry_interval`
    (delivered / duplicate / queue-depth counts so far); the parent
    drains them while waiting on results, appends each as one JSONL
    line to ``path`` (when given) and renders the human progress line.
    Pure dict-in, line-out — unit-testable without any processes
    (``tests/live/test_telemetry.py``).
    """

    def __init__(self, path: Optional[Any] = None):
        self.path = Path(path) if path is not None else None
        self.snapshots = 0
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Line-buffered so a killed run still leaves usable lines.
            self._handle = self.path.open("w", encoding="utf-8", buffering=1)

    @staticmethod
    def format_line(snap: Mapping[str, Any]) -> str:
        return (
            "[live w{worker} t={t:.1f}s] delivered={delivered} "
            "dup={dup_dropped} published={published} "
            "queue={queue_depth}"
        ).format(**snap)

    def record(self, snap: Mapping[str, Any]) -> str:
        """Persist one snapshot; returns the formatted progress line."""
        self.snapshots += 1
        if self._handle is not None:
            self._handle.write(json.dumps(dict(snap)) + "\n")
        return self.format_line(snap)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _drain_telemetry(
    telemetry_q, collector: Optional[TelemetryCollector], progress
) -> None:
    if telemetry_q is None or collector is None:
        return
    while True:
        try:
            snap = telemetry_q.get_nowait()
        except queue_mod.Empty:
            return
        line = collector.record(snap)
        if progress is not None:
            progress(line)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _worker_entry(
    spec, worker, epoch, ready_q, go_event, result_q, telemetry_q=None
) -> None:
    import asyncio

    try:
        result = asyncio.run(
            _worker_main(spec, worker, epoch, ready_q, go_event, telemetry_q)
        )
    except Exception:
        result_q.put({"worker": worker, "error": traceback.format_exc()})
    else:
        result_q.put(result)


async def _worker_main(
    spec: LiveSpec,
    worker: int,
    epoch: float,
    ready_q,
    go_event,
    telemetry_q=None,
) -> Dict[str, Any]:
    import asyncio

    from repro.astrolabe.certificates import PublisherCertificate
    from repro.astrolabe.deployment import ADMIN_PRINCIPAL
    from repro.news.deployment import build_newswire
    from repro.news.node import NewsWireNode
    from repro.runtime.asyncio_udp import AsyncioUdpRuntime
    from repro.sim.trace import TraceLog

    config = live_config(spec)
    interests = InterestModel(
        subjects=spec.subjects,
        subscriptions_per_node=spec.subscriptions_per_node,
        seed=spec.seed,
    )
    # The deterministic reference deployment: built identically in every
    # worker, never started — only its time-zero state is harvested.
    reference = build_newswire(
        spec.num_nodes,
        config,
        publisher_names=(spec.publisher_name,),
        publisher_rate=spec.publisher_rate,
        subscriptions_for=interests.subscriptions_for,
        seed=spec.seed,
        start=False,
    )
    ref_agents = reference.deployment.agents
    keychain = reference.deployment.keychain
    scheme = ref_agents[0].scheme  # type: ignore[attr-defined]

    runtime = AsyncioUdpRuntime(
        seed=spec.seed + 7919 * worker,
        address_book=address_book_for(spec, [a.node_id for a in ref_agents]),
        epoch=epoch,
    )
    sink = _DeliverySink()
    trace = TraceLog(runtime, kinds={"deliver"}, sinks=[sink])

    local: Dict[int, NewsWireNode] = {}
    for index in worker_indices(spec, worker):
        ref_agent = ref_agents[index]
        node = NewsWireNode(
            ref_agent.node_id, runtime, config, keychain, trace, scheme
        )
        for certificate in reference.deployment.certificates:
            node.install_aggregation(certificate)
        for subscription in interests.subscriptions_for(index):
            node.subscribe(subscription)
        for zone in node.zones:
            delta = ref_agent.zone_table(zone).delta_for({})
            if delta:
                node.zone_table(zone).apply_delta(delta)
        node.refresh()
        local[index] = node

    await runtime.start()

    published = flow_controlled = 0
    publications = make_trace(spec)
    publisher = local.get(0)
    if publisher is not None:
        certificate = PublisherCertificate.issue(
            spec.publisher_name,
            ADMIN_PRINCIPAL,
            keychain,
            max_rate=spec.publisher_rate,
        )
        publisher.grant_publisher(certificate)

    for node in local.values():
        node.start()

    ready_q.put(worker)
    while not go_event.is_set():
        await asyncio.sleep(0.02)
    t_zero = runtime.now

    counters = {"published": 0, "flow_controlled": 0}
    telemetry_timer = None
    if telemetry_q is not None:

        def ship_snapshot() -> None:
            snap = {
                "worker": worker,
                "t": round(runtime.now - t_zero, 3),
                "delivered": len(sink.pairs),
                "dup_dropped": trace.count("dup-dropped"),
                "published": counters["published"],
                "queue_depth": sum(
                    node.queues.backlog
                    for node in local.values()
                    if getattr(node, "queues", None) is not None
                ),
            }
            try:
                telemetry_q.put_nowait(snap)
            except queue_mod.Full:
                pass  # telemetry is best-effort; never stall the run

        telemetry_timer = runtime.call_every(
            spec.telemetry_interval, ship_snapshot
        )
    if publisher is not None:

        def publish_one(publication: Publication) -> None:
            try:
                publisher.publish_news(
                    subject=publication.subject,
                    headline=publication.headline,
                    body="w" * publication.body_words * 6,
                    categories=publication.categories,
                    urgency=publication.urgency,
                )
            except FlowControlError:
                counters["flow_controlled"] += 1
            else:
                counters["published"] += 1

        for publication in publications:
            runtime.call_at(
                t_zero + spec.warmup + publication.time, publish_one, publication
            )

    duration = publications[-1].time if publications else 0.0
    t_end = t_zero + spec.warmup + duration + spec.drain
    while runtime.now < t_end:
        await asyncio.sleep(min(0.25, max(0.01, t_end - runtime.now)))

    published = counters["published"]
    flow_controlled = counters["flow_controlled"]
    result = {
        "worker": worker,
        "delivered": list(sink.pairs),
        "dup_dropped": trace.count("dup-dropped"),
        "repair_delivered": trace.count("repair-delivered"),
        "trace_counts": trace.counts(),
        "published": published,
        "flow_controlled": flow_controlled,
        "sent_datagrams": sum(
            runtime.node_stats(node.node_id).sent_messages
            for node in local.values()
        ),
        "receive_errors": runtime.receive_errors,
        "dropped_oversize": runtime.dropped_oversize,
    }
    if telemetry_timer is not None:
        telemetry_timer.cancel()
    runtime.close()
    trace.close()
    return result


# ----------------------------------------------------------------------
# Parent orchestration
# ----------------------------------------------------------------------

@dataclass
class LiveReport:
    """Outcome of one :func:`run_live` deployment."""

    spec: LiveSpec
    expected: int
    delivered: int
    delivery_ratio: float
    duplicates_suppressed: int
    repair_delivered: int
    published: int
    flow_controlled: int
    sent_datagrams: int
    receive_errors: int
    wall_seconds: float
    worker_errors: List[str] = field(default_factory=list)
    #: Telemetry snapshots collected by the parent (0 when disabled).
    telemetry_snapshots: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.worker_errors
            and self.delivery_ratio >= self.spec.min_delivery
            and self.duplicates_suppressed > 0
        )

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["ok"] = self.ok
        return payload


def run_live(
    spec: LiveSpec,
    boot_timeout: float = 120.0,
    telemetry_path: Optional[Any] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> LiveReport:
    """Execute one live deployment and aggregate the verdict.

    ``telemetry_path`` / ``progress`` turn on live telemetry: workers
    ship periodic snapshots which the parent drains while waiting,
    appending JSONL lines to ``telemetry_path`` (when given) and
    passing each formatted progress line to ``progress`` (when given).
    """
    spec.validate()
    started = time.monotonic()
    epoch = time.time()
    ctx = mp.get_context("spawn")
    ready_q: Any = ctx.Queue()
    result_q: Any = ctx.Queue()
    go_event = ctx.Event()
    want_telemetry = telemetry_path is not None or progress is not None
    telemetry_q: Any = ctx.Queue() if want_telemetry else None
    collector = TelemetryCollector(telemetry_path) if want_telemetry else None
    processes = [
        ctx.Process(
            target=_worker_entry,
            args=(spec, worker, epoch, ready_q, go_event, result_q, telemetry_q),
            daemon=True,
        )
        for worker in range(spec.workers)
    ]
    for process in processes:
        process.start()

    errors: List[str] = []
    try:
        pending = set(range(spec.workers))
        deadline = time.monotonic() + boot_timeout
        while pending:
            try:
                pending.discard(ready_q.get(timeout=1.0))
            except queue_mod.Empty:
                if any(not p.is_alive() for p in processes):
                    errors.append("worker died during boot")
                    break
                if time.monotonic() > deadline:
                    errors.append("timed out waiting for workers to boot")
                    break
        go_event.set()

        results: List[Dict[str, Any]] = []
        if not errors:
            publications = make_trace(spec)
            run_budget = (
                spec.warmup
                + (publications[-1].time if publications else 0.0)
                + spec.drain
                + boot_timeout
            )
            deadline = time.monotonic() + run_budget
            while len(results) + len(errors) < spec.workers:
                _drain_telemetry(telemetry_q, collector, progress)
                try:
                    outcome = result_q.get(timeout=1.0)
                except queue_mod.Empty:
                    if time.monotonic() > deadline:
                        errors.append("timed out waiting for worker results")
                        break
                    continue
                if "error" in outcome:
                    errors.append(
                        f"worker {outcome['worker']}: {outcome['error']}"
                    )
                else:
                    results.append(outcome)
            _drain_telemetry(telemetry_q, collector, progress)
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        _drain_telemetry(telemetry_q, collector, progress)
        if collector is not None:
            collector.close()

    report = _aggregate(spec, results, errors, time.monotonic() - started)
    if collector is not None:
        report.telemetry_snapshots = collector.snapshots
    return report


def _aggregate(
    spec: LiveSpec,
    results: List[Dict[str, Any]],
    errors: List[str],
    wall_seconds: float,
) -> LiveReport:
    from repro.experiments.common import expected_deliveries

    interests = InterestModel(
        subjects=spec.subjects,
        subscriptions_per_node=spec.subscriptions_per_node,
        seed=spec.seed,
    )
    publications = make_trace(spec)
    expected = expected_deliveries(
        interests, spec.num_nodes, publications, spec.publisher_name
    )

    per_item: Dict[str, int] = {}
    for outcome in results:
        for _node, item in outcome["delivered"]:
            per_item[item] = per_item.get(item, 0) + 1
    total_expected = sum(expected.values())
    delivered = sum(
        min(per_item.get(item, 0), count) for item, count in expected.items()
    )
    flow_controlled = sum(o["flow_controlled"] for o in results)
    if flow_controlled:
        errors.append(
            f"{flow_controlled} publications hit flow control; "
            "serial-based expectations are unreliable for this run"
        )
    return LiveReport(
        spec=spec,
        expected=total_expected,
        delivered=delivered,
        delivery_ratio=(delivered / total_expected) if total_expected else 0.0,
        duplicates_suppressed=sum(o["dup_dropped"] for o in results),
        repair_delivered=sum(o["repair_delivered"] for o in results),
        published=sum(o["published"] for o in results),
        flow_controlled=flow_controlled,
        sent_datagrams=sum(o["sent_datagrams"] for o in results),
        receive_errors=sum(o["receive_errors"] for o in results),
        wall_seconds=wall_seconds,
        worker_errors=errors,
    )
