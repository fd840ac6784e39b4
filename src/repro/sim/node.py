"""Process abstraction: the base class every protocol node extends.

A :class:`Process` ties a node identity to a
:class:`~repro.runtime.interface.Runtime` (clock + transport + RNG) and
provides the small API protocol code is written against:

* ``self.send(dst, message)`` — fire-and-forget message;
* ``self.set_timer(delay, fn)`` / ``self.every(interval, fn)`` —
  timers that are automatically cancelled when the node crashes;
* ``self.now`` / ``self.rng(name)`` — the runtime's clock and
  deterministic named random streams;
* ``on_message`` / ``on_start`` / ``on_crash`` / ``on_recover`` hooks.

The same process runs unchanged on the discrete-event
:class:`~repro.runtime.sim.SimRuntime` or the live
:class:`~repro.runtime.asyncio_udp.AsyncioUdpRuntime` — nothing in
this class (or its subclasses) touches the simulator directly.

Crash semantics follow the fail-stop model the paper's epidemic
protocols assume: a crashed node neither receives nor sends, its
pending timers die with it, and on recovery it restarts its periodic
behaviour from ``on_recover``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.core.errors import NetworkError
from repro.core.identifiers import NodeId
from repro.runtime.interface import Handle, PeriodicHandle, Runtime


class Process:
    """A protocol node participating in the network."""

    def __init__(self, node_id: NodeId, runtime: Runtime):
        self.node_id = node_id
        self.runtime = runtime
        self.crashed = False
        self._timers: list[Handle] = []
        self._periodics: list[PeriodicHandle] = []
        runtime.register(self)

    # -- runtime access --------------------------------------------------

    @property
    def now(self) -> float:
        """Current runtime time (virtual or wall, see docs/RUNTIME.md)."""
        return self.runtime.now

    def rng(self, name: str) -> random.Random:
        """The runtime's named deterministic random stream."""
        return self.runtime.rng(name)

    @property
    def sim(self):
        """The underlying :class:`Simulation` (sim runtime only)."""
        return self.runtime.sim

    @property
    def network(self):
        """The transport: the wrapped :class:`Network` on the sim
        runtime, the runtime itself on live runtimes."""
        return getattr(self.runtime, "network", self.runtime)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin operation (idempotent entry point called by builders)."""
        self.on_start()

    def crash(self) -> None:
        """Fail-stop: drop timers, stop receiving, notify subclass."""
        if self.crashed:
            return
        self.crashed = True
        self._cancel_timers()
        self.on_crash()

    def recover(self) -> None:
        """Come back up with protocol state intact (crash-recovery)."""
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover()

    def _cancel_timers(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for periodic in self._periodics:
            periodic.cancel()
        self._periodics.clear()

    # -- messaging ---------------------------------------------------------

    def send(self, dst: NodeId, message: Any, size: Optional[int] = None) -> bool:
        """Send ``message`` to ``dst``; silently dropped if we are down."""
        if self.crashed:
            return False
        return self.runtime.send(self.node_id, dst, message, size=size)

    def receive(self, sender: NodeId, message: Any) -> None:
        if self.crashed:
            return
        self.on_message(sender, message)

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Handle:
        """One-shot timer, auto-cancelled if this node crashes first."""
        if self.crashed:
            raise NetworkError(f"{self.node_id} is crashed; cannot set timers")
        handle = self.runtime.call_after(delay, self._guarded, callback, args)
        self._timers.append(handle)
        if len(self._timers) > 64:  # drop fired/cancelled handles
            self._timers = [t for t in self._timers if not t.cancelled]
        return handle

    def every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        first_delay: Optional[float] = None,
    ) -> PeriodicHandle:
        """Periodic timer, auto-cancelled if this node crashes."""
        if self.crashed:
            raise NetworkError(f"{self.node_id} is crashed; cannot set timers")
        periodic = self.runtime.call_every(
            interval, self._guarded, callback, args, first_delay=first_delay
        )
        self._periodics.append(periodic)
        return periodic

    def _guarded(self, callback: Callable[..., None], args: tuple) -> None:
        if not self.crashed:
            callback(*args)

    # -- hooks (override in subclasses) -------------------------------------

    def on_start(self) -> None:
        """Called once when the node is started."""

    def on_message(self, sender: NodeId, message: Any) -> None:
        """Called for each delivered message while the node is up."""

    def on_crash(self) -> None:
        """Called when the node fail-stops."""

    def on_recover(self) -> None:
        """Called when the node restarts after a crash."""

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}({self.node_id}, {state})"
