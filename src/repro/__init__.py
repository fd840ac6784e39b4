"""NewsWire: collaborative peer-to-peer news delivery on Astrolabe.

Reproduction of Vogels, Re, van Renesse & Birman, "A Collaborative
Infrastructure for Scalable and Robust News Delivery" (ICDCS 2002).

Quick start::

    from repro import NewsWireConfig, Subscription, build_newswire

    system = build_newswire(
        num_nodes=200,
        config=NewsWireConfig(branching_factor=16),
        publisher_names=("newswire",),
        subscriptions_for=lambda i: (Subscription("newswire/tech"),),
        seed=42,
    )
    system.run_for(4.0)
    system.publisher("newswire").publish_news("newswire/tech", "Hello")
    system.run_for(30.0)

Package map
-----------

* :mod:`repro.runtime` — the execution seam: one protocol codebase on
  the simulator (:class:`SimRuntime`) or live asyncio UDP sockets
  (:class:`AsyncioUdpRuntime`); see ``docs/RUNTIME.md``.
* :mod:`repro.sim` — deterministic discrete-event simulation substrate.
* :mod:`repro.gossip` — anti-entropy, rumor buffers.
* :mod:`repro.astrolabe` — hierarchical gossip-based aggregation
  (zones, MIB rows, AQL mobile code, certificates, management console).
* :mod:`repro.multicast` — zone-recursive application-level multicast.
* :mod:`repro.pubsub` — Bloom-filter selective-forwarding pub/sub.
* :mod:`repro.news` — the NewsWire application layer.
* :mod:`repro.baselines` — pull / RSS / delta / push / CDN comparators.
* :mod:`repro.workloads` — traces, interest models, scenarios.
* :mod:`repro.metrics` — collectors, summaries, timelines, tables.
* :mod:`repro.experiments` — drivers reproducing every paper claim.
"""

from repro.core import NewsWireConfig
from repro.news import NewsItem, NewsWireSystem, build_newswire
from repro.pubsub import Subscription
from repro.runtime import Runtime, SimRuntime

__version__ = "1.0.0"

__all__ = [
    "AsyncioUdpRuntime",
    "NewsItem",
    "NewsWireConfig",
    "NewsWireSystem",
    "Runtime",
    "SimRuntime",
    "Subscription",
    "SystemSpec",
    "build_newswire",
    "build_system",
]


def __getattr__(name: str):
    # Lazy, mirroring repro.runtime: importing repro must not pull in
    # asyncio machinery for simulation-only workloads, nor the
    # experiment harness for code that only builds a system.
    if name == "AsyncioUdpRuntime":
        from repro.runtime.asyncio_udp import AsyncioUdpRuntime

        return AsyncioUdpRuntime
    if name in ("SystemSpec", "build_system"):
        from repro.experiments import common

        return getattr(common, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
