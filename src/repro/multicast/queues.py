"""Forwarding queues: per-child-zone output scheduling (paper §9).

"Each forwarding component maintains a log file and a set of
forwarding queues, one for each of the representatives at a child
zone.  The best strategy to fill queues is still under research.  We
are experimenting with weighted round-robin strategies, as well as
some more aggressive techniques."

This module implements that component with four pluggable drain
strategies (benchmarked in E9):

* ``fifo`` — global arrival order, one queue in effect;
* ``weighted_rr`` — deficit round robin across per-target queues,
  weighted by the subscriber population behind each target (bigger
  sub-zones get proportionally more service);
* ``urgency_first`` — strict priority by item urgency (the "more
  aggressive" end: breaking news preempts);
* ``shortest_queue`` — serve the shortest non-empty queue first
  (drains small flows quickly at the expense of heavy ones).

The drain is paced at ``max_send_rate`` messages/second, which is what
makes publisher/forwarder overload observable (E4).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.core.config import MulticastConfig
from repro.core.errors import ConfigurationError
from repro.core.identifiers import NodeId
from repro.obs.metrics import MetricsRegistry
from repro.sim.node import Process


@dataclass
class QueueStats:
    """Counters an experiment reads after a run."""

    enqueued: int = 0
    sent: int = 0
    dropped_on_crash: int = 0
    total_wait: float = 0.0       # sum over sent messages of queueing delay
    max_backlog: int = 0          # peak total queued messages

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.sent if self.sent else 0.0


@dataclass(order=True)
class _Pending:
    sort_key: tuple
    target: NodeId = field(compare=False)
    message: Any = field(compare=False)
    enqueued_at: float = field(compare=False)
    weight: float = field(compare=False)


class _Lane:
    """One target's queue with its weighted-round-robin credit and
    first-seen rank (the tie-break).  Credit and rank outlive the
    queue's emptying; the deque itself is held only while it has
    messages, so idle targets cost no deque."""

    __slots__ = ("pending", "credit", "rank")

    def __init__(self, rank: int):
        self.pending: Optional[Deque[_Pending]] = None
        self.credit = 0.0
        self.rank = rank


class ForwardingQueues:
    """Paced, strategy-scheduled output queues for one forwarding node."""

    def __init__(
        self,
        node: Process,
        config: MulticastConfig,
        send_fn: Optional[Callable[[NodeId, Any], None]] = None,
    ):
        self.node = node
        self.config = config
        self.stats = QueueStats()
        # Deployment-wide queue instruments; a bare Process (tests,
        # standalone use) has no trace, so fall back to a private
        # registry rather than branching on every enqueue/send.
        trace = getattr(node, "trace", None)
        metrics = trace.metrics if trace is not None else MetricsRegistry()
        self._trace = trace
        # Causal tracing: a "queue-sent" event per drained item-bearing
        # message lets the analysis layer split per-hop latency into
        # queueing wait vs network time.  The membership test happens
        # once here so runs without the kind enabled (benchmarks build
        # traces with kinds=set()) pay nothing on the drain hot path.
        self._record_sends = trace is not None and (
            trace.kinds is None or "queue-sent" in trace.kinds
        )
        self._m_enqueued = metrics.counter("queue.enqueued")
        self._m_sent = metrics.counter("queue.sent")
        self._m_dropped = metrics.counter("queue.dropped_on_crash")
        self._m_depth = metrics.gauge("queue.depth")
        self._send = send_fn if send_fn is not None else node.send
        self._strategy = config.queue_strategy
        self._seq = 0
        self._backlog = 0
        self._draining = False
        # fifo / urgency_first use one global heap; the per-target
        # strategies keep one lane per target seen since the last
        # ``clear`` (in first-seen order) and scan only the active
        # lanes, those with a backlog, on each send slot.
        self._heap: list[_Pending] = []
        self._lanes: Dict[NodeId, _Lane] = {}
        self._active: list[_Lane] = []

    # -- intake ------------------------------------------------------------

    def enqueue(
        self,
        target: NodeId,
        message: Any,
        weight: float = 1.0,
        urgency: int = 5,
    ) -> None:
        """Queue ``message`` for ``target``.

        ``weight`` drives weighted_rr service shares (callers pass the
        subscriber count behind the target's zone); ``urgency`` drives
        urgency_first priority using the NITF convention — *smaller* is
        more urgent (1 = flash, 8 = routine).
        """
        if weight <= 0:
            raise ConfigurationError("queue weight must be positive")
        self._seq += 1
        pending = _Pending(
            sort_key=(urgency, self._seq),
            target=target,
            message=message,
            enqueued_at=self.node.now,
            weight=weight,
        )
        if self._strategy in ("fifo", "urgency_first"):
            if self._strategy == "fifo":
                pending.sort_key = (self._seq,)
            heapq.heappush(self._heap, pending)
        else:
            lane = self._lanes.get(target)
            if lane is None:
                lane = self._lanes[target] = _Lane(len(self._lanes))
            if lane.pending is None:
                lane.pending = deque()
                self._active.append(lane)
            lane.pending.append(pending)
        self._backlog += 1
        self.stats.enqueued += 1
        self.stats.max_backlog = max(self.stats.max_backlog, self._backlog)
        self._m_enqueued.inc()
        self._m_depth.add(1)
        self._ensure_draining(first=True)

    # -- drain --------------------------------------------------------------

    def _ensure_draining(self, first: bool = False) -> None:
        if self._draining or self.node.crashed or self._backlog == 0:
            return
        self._draining = True
        delay = self.config.forwarding_delay if first else 1.0 / self.config.max_send_rate
        self.node.set_timer(delay, self._drain_one)

    def _drain_one(self) -> None:
        self._draining = False
        if self.node.crashed or self._backlog == 0:
            return
        pending = self._pick()
        if pending is not None:
            self._backlog -= 1
            self.stats.sent += 1
            wait = self.node.now - pending.enqueued_at
            self.stats.total_wait += wait
            self._m_sent.inc()
            self._m_depth.add(-1)
            if self._record_sends:
                envelope = getattr(pending.message, "envelope", None)
                if envelope is not None:
                    self._trace.record(
                        "queue-sent",
                        node=str(self.node.node_id),
                        to=str(pending.target),
                        item=str(envelope.item_key),
                        wait=wait,
                    )
            self._send(pending.target, pending.message)
        if self._backlog > 0:
            self._draining = True
            self.node.set_timer(1.0 / self.config.max_send_rate, self._drain_one)

    def _pick(self) -> Optional[_Pending]:
        if self._strategy in ("fifo", "urgency_first"):
            return heapq.heappop(self._heap) if self._heap else None
        if self._strategy == "shortest_queue":
            best: Optional[_Lane] = None
            best_len = best_rank = 0
            for lane in self._active:
                length = len(lane.pending)
                if best is None or length < best_len or (
                    length == best_len and lane.rank < best_rank
                ):
                    best, best_len, best_rank = lane, length, lane.rank
            return self._pop(best) if best is not None else None
        return self._pick_weighted_rr()

    def _pick_weighted_rr(self) -> Optional[_Pending]:
        """Credit-based weighted round robin.

        Every send slot credits each non-empty queue its weight (the
        subscriber population behind that child zone, as posted by its
        representatives); the queue with the most accumulated credit is
        served and reset.  A queue with twice the weight accumulates
        credit twice as fast, so it wins slots twice as often — the
        weighted shares of §9 — while ties go to the target seen first,
        for determinism.
        """
        best: Optional[_Lane] = None
        best_credit = float("-inf")
        best_rank = 0
        for lane in self._active:
            credit = lane.credit + lane.pending[0].weight
            lane.credit = credit
            if credit > best_credit or (
                credit == best_credit and lane.rank < best_rank
            ):
                best, best_credit, best_rank = lane, credit, lane.rank
        if best is None:
            return None
        best.credit = 0.0
        return self._pop(best)

    def _pop(self, lane: _Lane) -> _Pending:
        """Take the head of ``lane``'s queue, releasing the queue once empty."""
        queue = lane.pending
        pending = queue.popleft()
        if not queue:
            lane.pending = None
            self._active.remove(lane)
        return pending

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> int:
        """Drop all queued messages (called when the node crashes)."""
        dropped = self._backlog
        if self._trace is not None and dropped:
            # Loss attribution: every item-bearing message lost with
            # this queue is traced so a miss can be pinned on the
            # crashed forwarder rather than silently vanishing.
            node = str(self.node.node_id)
            pendings = list(self._heap)
            for lane in self._lanes.values():
                if lane.pending is not None:
                    pendings.extend(lane.pending)
            for pending in pendings:
                envelope = getattr(pending.message, "envelope", None)
                if envelope is not None:
                    self._trace.record(
                        "queue-dropped",
                        node=node,
                        to=str(pending.target),
                        item=str(envelope.item_key),
                        zone=str(getattr(pending.message, "zone", "")),
                    )
        self._heap.clear()
        self._lanes.clear()
        self._active.clear()
        self._backlog = 0
        self._draining = False
        self.stats.dropped_on_crash += dropped
        self._m_dropped.inc(dropped)
        self._m_depth.add(-dropped)
        return dropped

    @property
    def backlog(self) -> int:
        return self._backlog

    def restart(self) -> None:
        """Resume draining after a recovery."""
        self._draining = False
        self._ensure_draining(first=True)

    def __repr__(self) -> str:
        return (
            f"ForwardingQueues(strategy={self._strategy}, backlog={self._backlog}, "
            f"sent={self.stats.sent})"
        )
