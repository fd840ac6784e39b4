"""Layer entry points and the run-time tracer that wraps them.

``ENTRY_POINTS`` is the one table of ``(module, class-or-None,
function)`` boundaries the traced run instruments, each mapped to the
per-layer metric that receives its *self* time.  Nothing under ``src/``
knows about it: :class:`Tracer` rebinds the class attribute (or, for a
module-level function, every module that imported it) when a traced
repetition starts, before anything is built.

The node classes form one inheritance chain (``NewsWireNode ->
PubSubNode -> MulticastNode -> AstrolabeAgent``), so spans nest; a
span's self time is its duration minus the part its child spans cover,
and time the event kernel spends outside every wrapped call is what
``sim.engine.self_s`` reports.  Per-call cost folds into
``(layer, parent layer)`` accumulators; full spans are kept only for
the entry points on an item's dissemination path, up to ``SPAN_CAP``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

OBJECT = frozenset({"object-e2-1k", "object-feed-300"})
LIVE = frozenset({"live-udp-50"})
COLUMNAR = frozenset({"columnar-e2-100k", "columnar-feed-20k"})
NODES = OBJECT | LIVE
EVERY = OBJECT | LIVE | COLUMNAR

#: Full spans kept per traced repetition.
SPAN_CAP = 20_000


class Entry(NamedTuple):
    module: str
    cls: Optional[str]
    function: str
    #: The per-layer metric credited with this entry point's self time.
    metric: str
    #: Workloads that must reach it: a wrapped function that is never
    #: called there fails the traced run.
    workloads: frozenset
    #: Keep full spans (it lies on an item's dissemination path).
    span: bool = False
    #: Also sum ``len(result)`` into this count metric.
    sized: Optional[str] = None

    @property
    def name(self) -> str:
        owner = f"{self.cls}." if self.cls else ""
        return f"{self.module}.{owner}{self.function}"


ENTRY_POINTS: Tuple[Entry, ...] = (
    # -- inputs and build ---------------------------------------------
    Entry("repro.workloads.populations", "InterestModel", "prepare",
          "workloads.prepare_s", EVERY),
    Entry("repro.workloads.populations", "InterestModel", "subscriptions_for",
          "workloads.subscriptions_for_self_s", EVERY),
    Entry("repro.core.bloom", None, "bit_positions", "core.bloom.self_s", EVERY),
    Entry("repro.scale.backend", "ColumnarNewsWire", "install_subscriptions",
          "scale.columns.install_self_s", COLUMNAR),
    Entry("repro.scale.columns", "MembershipColumns", "build_aggregates",
          "scale.columns.build_aggregates_self_s", COLUMNAR),
    # -- astrolabe / gossip -------------------------------------------
    Entry("repro.astrolabe.agent", "AstrolabeAgent", "on_message", "astrolabe.self_s", NODES),
    Entry("repro.astrolabe.agent", "AstrolabeAgent", "refresh", "astrolabe.self_s", NODES),
    Entry("repro.astrolabe.agent", "AstrolabeAgent", "evaluate_zone",
          "astrolabe.self_s", NODES),
    Entry("repro.astrolabe.aql", "AqlProgram", "evaluate", "astrolabe.self_s", NODES),
    Entry("repro.astrolabe.zone", "ZoneTable", "apply_delta", "astrolabe.self_s", NODES,
          sized="astrolabe.rows_applied"),
    Entry("repro.gossip.antientropy", "VersionedStore", "delta_for", "gossip.self_s",
          NODES, sized="gossip.delta_entries"),
    Entry("repro.gossip.antientropy", "VersionedStore", "digest", "gossip.self_s", NODES),
    # -- multicast / pubsub / news ------------------------------------
    Entry("repro.multicast.node", "MulticastNode", "send_to_zone", "multicast.self_s",
          NODES, span=True),
    Entry("repro.multicast.node", "MulticastNode", "on_message", "multicast.self_s",
          NODES, span=True),
    Entry("repro.multicast.queues", "ForwardingQueues", "enqueue",
          "multicast.queues.self_s", NODES, span=True),
    Entry("repro.pubsub.node", "PubSubNode", "publish", "pubsub.self_s", NODES, span=True),
    Entry("repro.pubsub.node", "PubSubNode", "forward_filter", "pubsub.self_s", NODES),
    Entry("repro.pubsub.node", "PubSubNode", "accept", "pubsub.self_s", NODES, span=True),
    Entry("repro.pubsub.node", "PubSubNode", "subscribe", "pubsub.self_s", NODES),
    Entry("repro.news.node", "NewsWireNode", "publish_news", "news.self_s", NODES,
          span=True),
    Entry("repro.news.node", "NewsWireNode", "on_deliver", "news.self_s", NODES, span=True),
    Entry("repro.news.node", "NewsWireNode", "on_message", "news.self_s", NODES),
    # -- substrate ----------------------------------------------------
    Entry("repro.sim.network", "Network", "send", "sim.network.self_s", OBJECT, span=True),
    Entry("repro.sim.engine", "Simulation", "call_at_batch", "sim.engine.self_s", COLUMNAR),
    Entry("repro.sim.trace", "TraceLog", "record", "obs.self_s", EVERY),
    Entry("repro.metrics.collectors", None, "collect_delivery_stats",
          "metrics.collect_s", EVERY),
    Entry("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "send",
          "runtime.udp.encode_self_s", LIVE, span=True),
    # -- columnar run phase -------------------------------------------
    Entry("repro.scale.batched", "BatchedGossip", "run_round",
          "scale.batched.round_self_s", COLUMNAR),
    Entry("repro.scale.backend", "ColumnarPublisher", "publish_news",
          "scale.backend.walk_self_s", COLUMNAR, span=True),
    Entry("repro.scale.backend", "ColumnarNewsWire", "subscribe",
          "scale.backend.subscribe_self_s", frozenset({"columnar-feed-20k"})),
    # -- event-handler roots ------------------------------------------
    # Private, but the only place the time of a timer- or
    # message-driven handler can be seen from outside: without them a
    # handler's cost would surface only as kernel time.
    Entry("repro.astrolabe.agent", "AstrolabeAgent", "_gossip_round", "astrolabe.self_s",
          NODES),
    Entry("repro.multicast.node", "MulticastNode", "_repair_round", "multicast.self_s",
          NODES),
    Entry("repro.multicast.queues", "ForwardingQueues", "_drain_one",
          "multicast.queues.self_s", NODES, span=True),
    Entry("repro.sim.network", "Network", "_deliver", "sim.network.self_s", OBJECT),
    Entry("repro.scale.backend", "ColumnarNewsWire", "_deliver",
          "scale.backend.deliver_self_s", COLUMNAR),
    Entry("repro.runtime.asyncio_udp", "AsyncioUdpRuntime", "_dispatch",
          "runtime.udp.decode_self_s", LIVE),
)

#: Entry points whose call count is itself a per-layer metric.
CALL_COUNT_METRICS = {
    "repro.workloads.populations.InterestModel.subscriptions_for":
        "workloads.subscriptions_for_calls",
    "repro.core.bloom.bit_positions": "core.bloom.bit_positions_calls",
    "repro.astrolabe.aql.AqlProgram.evaluate": "astrolabe.aggregate_recomputes",
}


def _item_of(args: tuple, kwargs: dict) -> Optional[str]:
    """The news item a call is about, if one of its arguments carries it."""
    key = kwargs.get("item_key")
    if key is not None:
        return str(key)
    for arg in args:
        envelope = getattr(arg, "envelope", arg)
        key = getattr(envelope, "item_key", None)
        if key is not None:
            return str(key)
    return None


class HeapMonitor:
    """Dispatch monitor recording the event heap's high-water mark."""

    def __init__(self) -> None:
        self.heap_max = 0

    def observe(self, callback, args, elapsed, sim_time, heap_len) -> None:
        if heap_len > self.heap_max:
            self.heap_max = heap_len


class Tracer:
    """Wraps the entry points and accumulates self time per layer."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        #: (metric, parent metric or None) -> self seconds
        self.self_s: Dict[Tuple[str, Optional[str]], float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sizes: Dict[str, int] = defaultdict(int)
        #: (entry name, start, end, parent span index or -1, item or None)
        self.spans: List[Optional[tuple]] = []
        self._expected: List[str] = []

    # -- installation --------------------------------------------------

    def install(self, workload: str) -> None:
        """Wrap every entry point; call before anything is built."""
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            owner = getattr(module, entry.cls) if entry.cls else module
            if entry.function not in vars(owner):
                raise RuntimeError(
                    f"layers.ENTRY_POINTS names {entry.name}, which "
                    f"{entry.module} no longer defines"
                )
            original = vars(owner)[entry.function]
            traced = self._wrap(original, entry)
            if entry.cls:
                setattr(owner, entry.function, traced)
            else:
                # Importers hold their own reference to a module-level
                # function: rebind each of them.
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if namespace is None:
                        continue
                    for attribute, value in list(namespace.items()):
                        if value is original:
                            setattr(other, attribute, traced)
            if workload in entry.workloads:
                self._expected.append(entry.name)

    def _wrap(self, function: Callable, entry: Entry) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        sizes = self.sizes
        spans = self.spans
        name, metric, keep_span, sized = entry.name, entry.metric, entry.span, entry.sized

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # [metric, seconds covered by child spans, span index, item]
            frame = [metric, 0.0, -1, None]
            if keep_span and len(spans) < SPAN_CAP:
                # Keep calls that carry an item, and the roots that
                # create one; the same entry points also move gossip.
                item = _item_of(args, kwargs)
                if item is not None or not stack:
                    frame[2], frame[3] = len(spans), item
                    spans.append(None)  # filled in when the call returns
            stack.append(frame)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
                if sized is not None:
                    sizes[sized] += len(result)
                return result
            finally:
                ended = perf_counter()
                stack.pop()
                elapsed = ended - started
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent_metric, parent_span = parent[0], parent[2]
                else:
                    parent_metric, parent_span = None, -1
                self_s[(metric, parent_metric)] += elapsed - frame[1]
                calls[name] += 1
                if frame[2] >= 0:
                    spans[frame[2]] = (name, started, ended, parent_span, frame[3])

        return traced

    # -- reading -------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Self seconds per metric so far (parents folded together)."""
        totals: Dict[str, float] = defaultdict(float)
        for (metric, _parent), seconds in self.self_s.items():
            totals[metric] += seconds
        return dict(totals)

    def never_called(self) -> List[str]:
        return [name for name in self._expected if not self.calls.get(name)]

    def count_metrics(self) -> Dict[str, float]:
        counts: Dict[str, float] = dict(self.sizes)
        for name, metric in CALL_COUNT_METRICS.items():
            counts[metric] = self.calls.get(name, 0)
        return counts

    def report(self) -> Dict[str, Any]:
        """The JSON-able trace: accumulators, call counts and spans."""
        return {
            "self_s": [
                {"layer": metric, "parent": parent, "seconds": seconds}
                for (metric, parent), seconds in sorted(
                    self.self_s.items(), key=lambda kv: -kv[1]
                )
            ],
            "calls": dict(sorted(self.calls.items())),
            "span_cap": SPAN_CAP,
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "item": s[4]}
                for s in self.spans
            ],
        }
