"""Streaming observability: sinks, causal trees, metrics, flight recorder, manifests.

The subsystem's pieces (see ``docs/OBSERVABILITY.md``):

* **Sinks** (:mod:`repro.obs.sinks`) — where trace events go.  The
  :class:`~repro.sim.trace.TraceLog` is a fan-out dispatcher over a
  list of :class:`TraceSink` implementations; the default
  :class:`MemorySink` reproduces the historical append-everything
  behaviour, :class:`StreamingSink` folds events into bounded-memory
  aggregates, :class:`JsonlFileSink` writes offline artifacts, and
  :class:`CausalSink` (:mod:`repro.obs.causal`) rebuilds per-item
  dissemination trees: critical paths, hop counts, loss attribution.
* **Metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  the protocol layers register once and bump inline (gossip rounds,
  anti-entropy delta bytes, Bloom tests and hits, queue depths).
* **Flight recorder** — dispatch monitors on the event kernel: the
  :class:`KernelProfiler` (:mod:`repro.obs.profile`) and the
  :class:`TimeSeriesRecorder` (:mod:`repro.obs.timeseries`).
* **Manifests** (:mod:`repro.obs.manifest`) — the per-run provenance
  artifact (seed, config, git revision, wall time, metric snapshot).

Sinks and monitors reach systems a runner builds out of the caller's
reach through one construction hook,
:func:`repro.sim.engine.instrumented`.
"""

from repro.obs.causal import (
    CausalSink,
    CriticalPath,
    ItemTree,
    PathSegment,
    Span,
    format_causal_report,
)
from repro.obs.manifest import RunManifest, git_revision, manifest_schema_errors
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    HistogramData,
    MetricsRegistry,
)
from repro.obs.profile import KernelProfiler, format_profile_report
from repro.obs.sinks import (
    JsonlFileSink,
    MemorySink,
    StreamingSink,
    TraceEvent,
    TraceSink,
    normalize_field,
)
from repro.obs.timeseries import RingBufferSeries, TimeSeriesBundle, TimeSeriesRecorder

__all__ = [
    "CausalSink",
    "Counter",
    "CriticalPath",
    "DEFAULT_BUCKETS",
    "Gauge",
    "HistogramData",
    "ItemTree",
    "JsonlFileSink",
    "KernelProfiler",
    "MemorySink",
    "MetricsRegistry",
    "PathSegment",
    "RingBufferSeries",
    "RunManifest",
    "Span",
    "StreamingSink",
    "TimeSeriesBundle",
    "TimeSeriesRecorder",
    "TraceEvent",
    "TraceSink",
    "format_causal_report",
    "format_profile_report",
    "git_revision",
    "manifest_schema_errors",
    "normalize_field",
]
