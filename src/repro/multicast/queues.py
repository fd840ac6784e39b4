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
        # strategies use per-target deques plus DRR bookkeeping.  Only
        # non-empty queues are kept, so a send slot scans the targets
        # with a backlog, not every target ever served; credit and
        # first-seen rank (the tie-break) outlive a queue's emptying.
        self._heap: list[_Pending] = []
        self._queues: Dict[NodeId, Deque[_Pending]] = {}
        self._deficit: Dict[NodeId, float] = {}
        self._rank: Dict[NodeId, int] = {}

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
            queue = self._queues.get(target)
            if queue is None:
                queue = self._queues[target] = deque()
                if target not in self._rank:
                    self._rank[target] = len(self._rank)
                    self._deficit[target] = 0.0
            queue.append(pending)
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
            best: Optional[NodeId] = None
            best_len = best_rank = 0
            for target, queue in self._queues.items():
                rank = self._rank[target]
                if best is None or len(queue) < best_len or (
                    len(queue) == best_len and rank < best_rank
                ):
                    best, best_len, best_rank = target, len(queue), rank
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
        deficit = self._deficit
        ranks = self._rank
        best: Optional[NodeId] = None
        best_credit = float("-inf")
        best_rank = 0
        for target, queue in self._queues.items():
            credit = deficit[target] + queue[0].weight
            deficit[target] = credit
            if credit > best_credit or (
                credit == best_credit and ranks[target] < best_rank
            ):
                best, best_credit, best_rank = target, credit, ranks[target]
        if best is None:
            return None
        deficit[best] = 0.0
        return self._pop(best)

    def _pop(self, target: NodeId) -> _Pending:
        """Take the head of ``target``'s queue, dropping the queue once empty."""
        queue = self._queues[target]
        pending = queue.popleft()
        if not queue:
            del self._queues[target]
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
            for target in sorted(self._queues, key=self._rank.__getitem__):
                pendings.extend(self._queues[target])
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
        self._queues.clear()
        self._deficit.clear()
        self._rank.clear()
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
