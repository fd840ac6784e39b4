"""Deployment builder: spin up a complete Astrolabe population.

The paper treats automatic zone placement as solved infrastructure
("the automatic configuration of application instances into zones ...
has been addressed in the context of our overall Astrolabe research
effort, but is outside of the scope of this paper", §8).  Accordingly
the builder assigns agents to a balanced zone tree and pre-seeds each
agent's replicated tables with a consistent time-zero snapshot; joins
*after* time zero go through the real :meth:`AstrolabeAgent.join_via`
protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Type

from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.core.identifiers import NodeId, ZonePath
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink
from repro.runtime.interface import Runtime
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.network import LatencyModel, Network
from repro.sim.trace import TraceLog
from repro.astrolabe.agent import AstrolabeAgent, aggregate
from repro.astrolabe.certificates import AggregationCertificate, KeyChain
from repro.astrolabe.representatives import issue_core_certificate
from repro.astrolabe.zone import ZoneTable

#: The infrastructure operator that signs the standard certificates.
ADMIN_PRINCIPAL = "admin"


def balanced_layout(num_nodes: int, branching: int) -> tuple[int, int]:
    """``(levels, width)`` of the balanced zone tree the builder assigns.

    ``levels`` is the number of base-``width`` digits needed to number
    all leaves.  Shared with the columnar backend (``repro.scale``),
    whose arithmetic zone addressing must match :func:`balanced_paths`
    digit for digit — node ``index`` lives in leaf zone
    ``index // width``, whose ancestor at depth ``d`` is
    ``index // width**(levels - d)``.
    """
    if num_nodes <= 0:
        raise ConfigurationError("num_nodes must be positive")
    if branching < 2:
        raise ConfigurationError("branching must be >= 2")
    levels = 1
    while branching ** levels < num_nodes:
        levels += 1
    width = max(1, math.ceil(num_nodes ** (1.0 / levels)))
    return levels, width


def balanced_paths(num_nodes: int, branching: int) -> list[ZonePath]:
    """Leaf paths of a balanced zone tree with ≤ ``branching`` rows per zone.

    The first ``levels - 1`` digits name internal zones (``z<digit>``)
    and the final digit positions the leaf (``n<index>``) inside its
    leaf zone.
    """
    levels, width = balanced_layout(num_nodes, branching)
    paths: list[ZonePath] = []
    for index in range(num_nodes):
        digits: list[int] = []
        remaining = index
        for _ in range(levels):
            digits.append(remaining % width)
            remaining //= width
        digits.reverse()
        labels = tuple(f"z{digit}" for digit in digits[:-1]) + (f"n{index}",)
        paths.append(ZonePath(labels))
    return paths


@dataclass
class AstrolabeDeployment:
    """A running population plus the shared infrastructure handles."""

    runtime: Runtime
    config: NewsWireConfig
    keychain: KeyChain
    trace: TraceLog
    agents: list[AstrolabeAgent]
    #: Crash/recovery scheduling — sim runtime only (None on live).
    failures: Optional[FailureInjector]
    certificates: list[AggregationCertificate] = field(default_factory=list)
    #: Constructor used for the population; late joiners reuse it so
    #: pub/sub and news deployments add nodes of the right type.
    agent_factory: Callable[..., AstrolabeAgent] = AstrolabeAgent

    @property
    def sim(self) -> Simulation:
        """The underlying :class:`Simulation` (sim runtime only)."""
        return self.runtime.sim

    @property
    def network(self):
        """The transport: the wrapped :class:`Network` on the sim
        runtime, the runtime itself on live runtimes."""
        return getattr(self.runtime, "network", self.runtime)

    @property
    def num_nodes(self) -> int:
        return len(self.agents)

    @property
    def metrics(self) -> MetricsRegistry:
        """The deployment-wide metrics registry (owned by the trace)."""
        return self.trace.metrics

    def agent_by_id(self, node_id: NodeId) -> AstrolabeAgent:
        for agent in self.agents:
            if agent.node_id == node_id:
                return agent
        raise KeyError(str(node_id))

    def run_rounds(self, rounds: float) -> None:
        """Advance virtual time by ``rounds`` gossip intervals (sim only)."""
        self.runtime.run_for(rounds * self.config.gossip.interval)

    def alive_agents(self) -> list[AstrolabeAgent]:
        return [agent for agent in self.agents if not agent.crashed]

    def install_everywhere(self, certificate: AggregationCertificate) -> None:
        """Install mobile code at every agent (bypassing epidemic spread)."""
        self.certificates.append(certificate)
        for agent in self.agents:
            agent.install_aggregation(certificate)

    def add_agent(
        self,
        node_id: NodeId,
        introducer: Optional[NodeId] = None,
        agent_class: Optional[Callable[..., AstrolabeAgent]] = None,
    ) -> AstrolabeAgent:
        """Create and start a late joiner (uses the join protocol)."""
        factory = agent_class if agent_class is not None else self.agent_factory
        agent = factory(
            node_id, self.runtime, self.config, self.keychain, self.trace
        )
        for certificate in self.certificates:
            agent.install_aggregation(certificate)
        self.agents.append(agent)
        agent.start()
        if introducer is not None:
            agent.join_via(introducer)
        return agent


def build_astrolabe(
    num_nodes: int,
    config: Optional[NewsWireConfig] = None,
    *,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    loss_rate: float = 0.0,
    bandwidth: Optional[float] = None,
    ingress_bandwidth: Optional[float] = None,
    trace_kinds: Optional[set[str]] = None,
    sinks: Optional[Sequence[TraceSink]] = None,
    metrics: Optional[MetricsRegistry] = None,
    agent_class: Type[AstrolabeAgent] = AstrolabeAgent,
    extra_certificates: Sequence[AggregationCertificate] = (),
    configure_agent: Optional[Callable[[AstrolabeAgent, int], None]] = None,
    keychain: Optional[KeyChain] = None,
    preseed: bool = True,
    start: bool = True,
    runtime: Optional[Runtime] = None,
) -> AstrolabeDeployment:
    """Build a complete Astrolabe population on a fresh simulation.

    ``configure_agent(agent, index)`` runs before pre-seeding so
    per-node attributes (subscriptions, loads) are part of the
    time-zero snapshot.  With ``preseed=False`` agents start with only
    their own rows and must discover each other by gossip — used by the
    bootstrap/convergence tests.

    ``sinks`` selects the observability sinks the shared trace fans out
    to (default: one in-memory sink); ``metrics`` supplies a shared
    :class:`MetricsRegistry` (default: a fresh one).  Neither affects
    protocol behaviour — fixed-seed runs stay byte-identical whatever
    sinks are attached.

    ``runtime`` selects the execution substrate: the default (``None``
    or ``"sim"``) builds a fresh simulation + network wrapped in a
    :class:`SimRuntime`; passing a :class:`Runtime` instance (e.g. an
    :class:`~repro.runtime.asyncio_udp.AsyncioUdpRuntime`) builds the
    same population on it instead.  Network shaping parameters and the
    failure injector only exist on the sim path; live deployments must
    also pass ``start=False`` and start nodes once the runtime's event
    loop is up (see docs/RUNTIME.md).
    """
    config = (config or NewsWireConfig()).validate()
    failures: Optional[FailureInjector] = None
    if runtime is None or runtime == "sim":
        sim = Simulation(seed=seed)
        trace = TraceLog(
            sim,
            kinds=trace_kinds if trace_kinds is not None else set(),
            sinks=sinks,
            metrics=metrics,
        )
        network = Network(
            sim,
            latency=latency,
            loss_rate=loss_rate,
            bandwidth=bandwidth,
            ingress_bandwidth=ingress_bandwidth,
            trace=trace,
        )
        runtime = SimRuntime(sim, network)
        failures = FailureInjector(sim, network)
    elif isinstance(runtime, str):
        raise ConfigurationError(
            f"unknown runtime {runtime!r}: expected 'sim' or a Runtime instance"
        )
    else:
        if (latency is not None or loss_rate or bandwidth is not None
                or ingress_bandwidth is not None):
            raise ConfigurationError(
                "latency/loss/bandwidth shaping applies to the sim runtime "
                "only; a live runtime inherits the real network's behaviour"
            )
        if start:
            raise ConfigurationError(
                "pass start=False when building on an external runtime and "
                "start nodes once its event loop is running"
            )
        trace = TraceLog(
            runtime,
            kinds=trace_kinds if trace_kinds is not None else set(),
            sinks=sinks,
            metrics=metrics,
        )
    if keychain is None:
        keychain = KeyChain()
    if ADMIN_PRINCIPAL not in keychain:
        keychain.register(ADMIN_PRINCIPAL)

    core = issue_core_certificate(
        keychain,
        issuer=ADMIN_PRINCIPAL,
        representatives=config.multicast.representatives,
    )
    certificates = [core, *extra_certificates]

    paths = balanced_paths(num_nodes, config.branching_factor)
    agents: list[AstrolabeAgent] = []
    for index, path in enumerate(paths):
        agent = agent_class(path, runtime, config, keychain, trace)
        for certificate in certificates:
            agent.install_aggregation(certificate)
        if configure_agent is not None:
            configure_agent(agent, index)
        agents.append(agent)

    if preseed:
        _preseed(agents, config)

    if start:
        for agent in agents:
            agent.start()

    return AstrolabeDeployment(
        runtime=runtime,
        config=config,
        keychain=keychain,
        trace=trace,
        agents=agents,
        failures=failures,
        certificates=certificates,
        agent_factory=agent_class,
    )


def _preseed(agents: Sequence[AstrolabeAgent], config: NewsWireConfig) -> None:
    """Give every agent a consistent time-zero view of its path tables."""
    # 1. God tables with every leaf row, and one member of every zone.
    god: Dict[ZonePath, ZoneTable] = {}
    members: Dict[ZonePath, AstrolabeAgent] = {}
    for agent in agents:
        agent.refresh()
        parent = agent.parent_zone
        table = god.get(parent)
        if table is None:
            table = ZoneTable(parent, config.branching_factor)
            god[parent] = table
        row = agent.own_row()
        assert row is not None
        table.put_row(agent.node_id.name, row)
        for zone in agent.zones:
            members.setdefault(zone, agent)

    # 2. Aggregate bottom-up, one level at a time: aggregating depth-d
    # zones creates their depth-(d-1) parents, which the next pass
    # processes, until only the root remains.  Each zone is aggregated
    # under the certificates its members hold (the newest of each
    # name), through the memo the agents' own rounds then hit.
    depth = max(zone.depth for zone in god)
    while depth > 0:
        for zone in sorted(zone for zone in god if zone.depth == depth):
            certificates = tuple(
                cert
                for cert in members[zone].aggregation_certificates()
                if cert.scope.contains(zone)
            )
            _, shared = aggregate(zone, god[zone].row_mappings(), certificates)
            if shared is None:
                continue
            parent = zone.parent()
            parent_table = god.get(parent)
            if parent_table is None:
                parent_table = ZoneTable(parent, config.branching_factor)
                god[parent] = parent_table
            parent_table.put_row(zone.name, shared.restamped((0.0, "agg:init"), "agg:init"))
        depth -= 1

    # 3. Hand each agent the tables on its root path.
    deltas = {zone: table.delta_for({}) for zone, table in god.items()}
    for agent in agents:
        for zone in agent.zones:
            delta = deltas.get(zone)
            if delta:
                agent.zone_table(zone).apply_delta(delta)
        agent.refresh()
