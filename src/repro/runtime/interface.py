"""The runtime seam: what protocol code may assume about its host.

NewsWire's protocol layers (gossip, Astrolabe agents, multicast,
pub/sub, the wire service) are written against three small contracts
instead of the simulator directly:

* :class:`Clock` — ``now`` plus ``call_at`` / ``call_after`` /
  ``call_every`` returning cancelable handles;
* :class:`Transport` — ``send`` with an ``on_message`` callback per
  registered handler, and an address book (``node_ids``);
* :class:`Runtime` — clock + transport + deterministic named RNG
  streams.

Two implementations ship: :class:`repro.runtime.sim.SimRuntime` binds
the contracts to the discrete-event engine (byte-identical to calling
the engine directly — see docs/RUNTIME.md) and
:class:`repro.runtime.asyncio_udp.AsyncioUdpRuntime` binds them to the
asyncio event loop and real UDP sockets.  The same node object runs
unchanged on either.

Shared handle semantics (unit-tested against both implementations in
``tests/runtime/test_clock_semantics.py``):

* ``cancel()`` is idempotent and prevents the callback from firing;
* a fired one-shot handle reads as ``cancelled`` — "consumed" and
  "cancelled" are deliberately the same flag so holders can prune
  handle lists uniformly (see ``Process._timers``);
* periodic handles expose ``active`` and never fire again once
  ``cancel()`` returns; ``first_delay`` staggers the first firing and
  ``until`` bounds the series.

One asymmetry is part of the contract: the sim clock *rejects*
scheduling in the past (a determinism guard), while the live clock
clamps past deadlines to "as soon as possible" (wall clocks race;
raising would make correct code flaky).  Protocol code therefore must
never rely on past scheduling erroring.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.core.identifiers import NodeId

__all__ = [
    "Clock",
    "Handle",
    "MessageHandler",
    "PeriodicHandle",
    "Runtime",
    "Transport",
]


@runtime_checkable
class Handle(Protocol):
    """A cancelable one-shot scheduled callback.

    ``cancelled`` is True once the handle can never fire again —
    whether because ``cancel()`` was called or because it already
    fired (consumed-as-cancelled, matching
    :class:`repro.sim.engine.EventHandle`).
    """

    cancelled: bool

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        ...


@runtime_checkable
class PeriodicHandle(Protocol):
    """A cancelable periodic callback series."""

    def cancel(self) -> None:
        """Stop the series; no firing happens after this returns."""
        ...

    @property
    def active(self) -> bool:
        """True while the series will keep firing."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Time source and scheduler.

    Sim runtimes report virtual seconds since construction; live
    runtimes report wall seconds since a fixed epoch.  Both start at
    (approximately) zero, which protocol code relies on — e.g. row
    expiry treats a non-positive cutoff as "nothing can be stale yet".
    """

    @property
    def now(self) -> float:
        """Current time in seconds since the runtime's epoch."""
        ...

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        ...

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule ``callback(*args)`` after ``delay`` seconds (>= 0)."""
        ...

    def call_every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> PeriodicHandle:
        """Run ``callback(*args)`` every ``interval`` seconds."""
        ...


@runtime_checkable
class MessageHandler(Protocol):
    """What a transport delivers to: any object with ``receive``."""

    node_id: NodeId

    def receive(self, sender: NodeId, message: Any) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Unreliable datagram transport between registered handlers.

    ``send`` is fire-and-forget: True means "accepted for delivery",
    never "delivered".  Lost, misaddressed and blocked messages are
    counted, not raised — protocol code must tolerate silence, exactly
    as over UDP (and on the live runtime it literally is UDP).
    """

    def send(
        self, src: NodeId, dst: NodeId, message: Any, size: Optional[int] = None
    ) -> bool: ...

    def register(self, handler: MessageHandler) -> None:
        """Attach ``handler``; its ``receive`` is the on_message callback."""
        ...

    def unregister(self, node_id: NodeId) -> None: ...

    def is_registered(self, node_id: NodeId) -> bool: ...

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """The locally known address book (local handlers only on live)."""
        ...


@runtime_checkable
class Runtime(Clock, Transport, Protocol):
    """Everything a protocol node needs from its host environment."""

    #: "sim" or "live" — for diagnostics and runtime-specific tests.
    kind: str
    #: Master seed of the deterministic RNG registry.
    seed: int

    def rng(self, name: str) -> random.Random:
        """The named deterministic random stream."""
        ...

