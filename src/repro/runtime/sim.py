"""SimRuntime: the runtime contract bound to the discrete-event engine.

A *thin* adapter by design: every hot entry point (``call_at``,
``call_after``, ``call_every``, ``rng``, ``send``, ``register``) is the
engine's or network's own bound method, installed as an instance
attribute at construction.  Protocol code calling
``runtime.call_after(...)`` therefore executes byte-for-byte the same
code path as the historical ``sim.call_after(...)`` — same sequence
numbers, same RNG draw order, same heap contents — which is what keeps
the golden fixed-seed fingerprints identical across the refactor
(``tests/integration/test_golden_fingerprints.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.identifiers import NodeId
from repro.sim.engine import Simulation
from repro.sim.network import Network, NodeStats

__all__ = ["SimRuntime"]


class SimRuntime:
    """Clock + transport + RNG over a :class:`Simulation` and :class:`Network`.

    Constructed by the deployment builders (and the baselines) over a
    simulation and network they own: ``SimRuntime(sim, network)``.
    """

    kind = "sim"

    def __init__(self, sim: Simulation, network: Network):
        self.sim = sim
        self.network = network
        self.seed = sim.seed
        # Bound-method delegation: identical call paths to the bare engine.
        self.call_at = sim.call_at
        self.call_after = sim.call_after
        self.call_every = sim.call_every
        self.rng = sim.rng
        self.send = network.send
        self.register = network.register
        self.unregister = network.unregister
        self.is_registered = network.is_registered

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim._now

    def run(self, max_events: Optional[int] = None) -> None:
        self.sim.run(max_events)

    def run_until(self, time: float) -> None:
        self.sim.run_until(time)

    def run_for(self, duration: float) -> None:
        self.sim.run_for(duration)

    # -- transport -------------------------------------------------------

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return self.network.node_ids

    def node_stats(self, node_id: NodeId) -> NodeStats:
        return self.network.node_stats(node_id)

    def __repr__(self) -> str:
        return f"SimRuntime(seed={self.seed}, now={self.now:.3f})"
