"""AsyncioUdpRuntime: the runtime contract on real sockets and wall time.

Each registered node gets its own UDP datagram endpoint bound to the
address the shared *address book* assigns it; ``send`` pickles
``(src, message)`` and fires a datagram at the destination's address —
including destinations owned by *other processes*, which is how
``python -m repro.live`` spreads one deployment across workers.  Timers
ride the asyncio event loop (``loop.call_later``) wrapped in handles
that mirror the simulator's cancellation semantics, so protocol code
cannot tell which runtime it is on.

Time is wall-clock seconds since a fixed *epoch* (default: runtime
construction).  Multi-process deployments pass one shared epoch to
every worker so that Astrolabe's last-writer-wins timestamps and row
expiry cutoffs agree across processes; like the sim clock, time starts
near zero and never goes backwards.

Determinism is explicitly *not* promised here: the OS scheduler and
the network order events.  What is promised is the same *protocol
outcome* — the equivalence smoke test
(``tests/integration/test_sim_live_equivalence.py``) checks identical
delivered-item sets and duplicate-suppression counts across runtimes.
"""

from __future__ import annotations

import asyncio
import math
import pickle
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import NetworkError, SimulationError
from repro.core.identifiers import NodeId
from repro.sim.network import NetworkStats, NodeStats, estimate_size
from repro.sim.rng import RngRegistry

__all__ = ["AsyncioUdpRuntime", "LiveHandle", "LivePeriodic"]

#: Conservative payload bound for loopback UDP (the practical limit is
#: ~64 KiB minus headers; staying under it keeps sends atomic).
MAX_DATAGRAM = 60000


class LiveHandle:
    """One-shot timer handle with the simulator's consumed-as-cancelled flag."""

    __slots__ = ("cancelled", "_timer", "callback", "args")

    def __init__(self, callback: Callable[..., None], args: tuple):
        self.cancelled = False
        self.callback = callback
        self.args = args
        self._timer: Optional[asyncio.TimerHandle] = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        # Mark consumed *before* the callback, exactly as the sim engine
        # does, so holders can prune fired handles via ``cancelled``.
        self.cancelled = True
        self.callback(*self.args)

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._timer is not None:
                self._timer.cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"LiveHandle({name}, {state})"


class LivePeriodic:
    """Self-rescheduling series mirroring :class:`repro.sim.engine.PeriodicEvent`.

    Fires on a fixed cadence (``start + k * interval``) rather than
    re-anchoring on each wake-up, so slow callbacks do not drift the
    schedule; the series never fires past its ``until`` bound.
    """

    __slots__ = ("_runtime", "interval", "callback", "args", "until", "_next",
                 "_handle", "_stopped")

    def __init__(
        self,
        runtime: "AsyncioUdpRuntime",
        interval: float,
        callback: Callable[..., None],
        args: tuple,
        first_delay: Optional[float],
        until: Optional[float],
    ):
        self._runtime = runtime
        self.interval = interval
        self.callback = callback
        self.args = args
        self.until = until
        self._stopped = False
        self._handle: Optional[LiveHandle] = None
        delay = interval if first_delay is None else first_delay
        first_time = runtime.now + delay
        if until is not None and first_time > until:
            self._stopped = True
        else:
            self._next = first_time
            self._handle = runtime.call_after(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback(*self.args)
        if self._stopped:  # callback may have cancelled us
            return
        runtime = self._runtime
        self._next += self.interval
        if self.until is not None and self._next > self.until:
            self._stopped = True
            return
        delay = max(0.0, self._next - runtime.now)
        self._handle = runtime.call_after(delay, self._fire)

    def cancel(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._stopped


class _NodeEndpoint(asyncio.DatagramProtocol):
    """Datagram protocol for one node's socket; dispatches to its handler."""

    def __init__(self, runtime: "AsyncioUdpRuntime", node_id: NodeId):
        self.runtime = runtime
        self.node_id = node_id
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.runtime._dispatch(self.node_id, data)

    def error_received(self, exc) -> None:
        self.runtime.stats.dropped_unknown += 1


class AsyncioUdpRuntime:
    """Clock + transport + RNG over the asyncio loop and UDP sockets.

    ``address_book`` maps ``str(node_id)`` to ``(host, port)`` for the
    *whole* deployment; only the nodes registered locally get sockets.
    Register every local node first, then ``await runtime.start()``,
    then call ``node.start()`` on each.
    """

    kind = "live"

    def __init__(
        self,
        *,
        seed: int = 0,
        address_book: Optional[Dict[str, Tuple[str, int]]] = None,
        epoch: Optional[float] = None,
        max_datagram: int = MAX_DATAGRAM,
    ):
        self.seed = seed
        self.rngs = RngRegistry(seed)
        self.max_datagram = max_datagram
        self.address_book: Dict[str, Tuple[str, int]] = dict(address_book or {})
        self.stats = NetworkStats()
        #: Oversize payloads refused before hitting the socket.
        self.dropped_oversize = 0
        #: Receive-path errors (unpicklable frames, handler exceptions).
        self.receive_errors = 0
        self._epoch = time.time() if epoch is None else epoch
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._handlers: Dict[NodeId, Any] = {}
        self._endpoints: Dict[NodeId, _NodeEndpoint] = {}
        self._node_stats: Dict[NodeId, NodeStats] = {}
        self._started = False

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall seconds since the (possibly shared) epoch."""
        return time.time() - self._epoch

    def rng(self, name: str):
        return self.rngs.stream(name)

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            raise NetworkError(
                "AsyncioUdpRuntime is not started; await runtime.start() "
                "inside a running event loop before scheduling timers"
            )
        return loop

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> LiveHandle:
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        loop = self._require_loop()
        handle = LiveHandle(callback, args)
        handle._timer = loop.call_later(delay, handle._fire)
        return handle

    def call_at(self, time_: float, callback: Callable[..., None], *args: Any) -> LiveHandle:
        """Schedule at absolute runtime time (clamped to now if past).

        Unlike the sim clock, a past deadline is not an error here:
        wall clocks race, and "fire as soon as possible" is the only
        behaviour correct live code can rely on.
        """
        if not math.isfinite(time_):
            raise SimulationError(f"cannot schedule event at t={time_}")
        return self.call_after(max(0.0, time_ - self.now), callback, *args)

    def call_every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> LivePeriodic:
        if not math.isfinite(interval) or interval <= 0:
            raise SimulationError("interval must be positive and finite")
        self._require_loop()
        return LivePeriodic(self, interval, callback, args, first_delay, until)

    def run_for(self, duration: float) -> None:
        raise NetworkError(
            "the live runtime advances with the wall clock; "
            "use 'await asyncio.sleep(duration)' instead of run_for()"
        )

    # -- membership ------------------------------------------------------

    def register(self, handler) -> None:
        """Attach a local handler; its socket is bound by :meth:`start`."""
        if self._started:
            raise NetworkError(
                "register() after start() is not supported on the live "
                "runtime; construct all local nodes first"
            )
        key = str(handler.node_id)
        if key not in self.address_book:
            raise NetworkError(f"{key} has no entry in the address book")
        self._handlers[handler.node_id] = handler
        self._node_stats.setdefault(handler.node_id, NodeStats())

    def unregister(self, node_id: NodeId) -> None:
        self._handlers.pop(node_id, None)
        endpoint = self._endpoints.pop(node_id, None)
        if endpoint is not None and endpoint.transport is not None:
            endpoint.transport.close()

    def is_registered(self, node_id: NodeId) -> bool:
        return node_id in self._handlers

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """Locally registered nodes (not the whole deployment)."""
        return tuple(self._handlers)

    def node_stats(self, node_id: NodeId) -> NodeStats:
        stats = self._node_stats.get(node_id)
        if stats is None:
            stats = NodeStats()
            self._node_stats[node_id] = stats
        return stats

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind one UDP socket per registered handler (idempotent)."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        for node_id in list(self._handlers):
            host, port = self.address_book[str(node_id)]
            _, endpoint = await self._loop.create_datagram_endpoint(
                lambda nid=node_id: _NodeEndpoint(self, nid),
                local_addr=(host, port),
            )
            self._endpoints[node_id] = endpoint
        self._started = True

    def close(self) -> None:
        """Close every socket; pending timers are the owners' problem."""
        for endpoint in self._endpoints.values():
            if endpoint.transport is not None:
                endpoint.transport.close()
        self._endpoints.clear()
        self._started = False

    # -- transport -------------------------------------------------------

    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: Any,
        size: Optional[int] = None,
    ) -> bool:
        """Fire a datagram at ``dst``'s address-book entry.

        Same contract as the simulated network: True means accepted,
        not delivered; failures are counted, never raised.
        """
        nbytes = size if size is not None else estimate_size(message)
        sender_stats = self.node_stats(src)
        sender_stats.sent_messages += 1
        sender_stats.sent_bytes += nbytes

        addr = self.address_book.get(str(dst))
        if addr is None:
            self.stats.dropped_unknown += 1
            return False
        endpoint = self._endpoints.get(src)
        if endpoint is None or endpoint.transport is None:
            # Sender has no bound socket (crashed/unregistered locally).
            self.stats.dropped_unknown += 1
            return False
        try:
            payload = pickle.dumps((src, message), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.stats.dropped_unknown += 1
            return False
        if len(payload) > self.max_datagram:
            self.dropped_oversize += 1
            return False
        endpoint.transport.sendto(payload, addr)
        self.stats.total_bytes += nbytes
        return True

    def _dispatch(self, dst: NodeId, data: bytes) -> None:
        handler = self._handlers.get(dst)
        if handler is None or getattr(handler, "crashed", False):
            self.stats.dropped_crashed += 1
            return
        try:
            src, message = pickle.loads(data)
        except Exception:
            self.receive_errors += 1
            return
        stats = self.node_stats(dst)
        stats.received_messages += 1
        stats.received_bytes += len(data)
        self.stats.delivered += 1
        try:
            handler.receive(src, message)
        except Exception as exc:  # never let one bad message kill the loop
            self.receive_errors += 1
            print(
                f"[repro.runtime] handler error at {dst}: {exc!r}",
                file=sys.stderr,
            )

    def __repr__(self) -> str:
        return (
            f"AsyncioUdpRuntime(seed={self.seed}, nodes={len(self._handlers)}, "
            f"{'started' if self._started else 'stopped'})"
        )
