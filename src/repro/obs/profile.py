"""Event-kernel profiler: where does dispatch wall-time go?

A :class:`KernelProfiler` is a *dispatch monitor* (see
:func:`repro.sim.engine.instrumented`): the kernel times every
event callback with ``perf_counter`` and hands the profiler
``(callback, elapsed, sim_time, heap_len)``.  The profiler attributes
that cost two ways:

* **per category** — gossip / pubsub / multicast / queues / network /
  scale / other, resolved from the handler's defining module, so a quick glance
  answers "is E4 overload spending its time in queue drains or in
  gossip rounds?";
* **per handler** — qualified name, for the top-N hot-handler table.

It also tracks heap depth high-water marks and dispatch events/sec
over the observed wall-clock span.

Transparency is the contract: the profiler reads wall time and the
arguments the kernel hands it — never the RNG, never the event queue —
so fixed-seed goldens are byte-identical with profiling on or off
(``tests/integration/test_instrumentation_transparency.py``).  Every
observed second lands in exactly one category, so the per-category
table always sums to 100% of measured dispatch wall-time.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "KernelProfiler",
    "format_profile_payload",
    "format_profile_report",
]

#: Handler-module prefix → category, most specific prefix first.
#: Anything unmatched lands in "other" — cost is never dropped.
CATEGORY_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.multicast.queues", "queues"),
    ("repro.multicast", "multicast"),
    ("repro.gossip", "gossip"),
    ("repro.astrolabe", "gossip"),
    ("repro.pubsub", "pubsub"),
    ("repro.news", "pubsub"),
    ("repro.sim.network", "network"),
    ("repro.runtime", "network"),
    ("repro.scale", "scale"),
)

CATEGORIES: Tuple[str, ...] = (
    "gossip",
    "pubsub",
    "multicast",
    "queues",
    "network",
    "scale",
    "other",
)


def _unwrap(callback: Any, args: tuple = ()) -> Any:
    """Peel scheduling wrappers off a callback to find the real handler.

    The kernel mostly dispatches bound methods directly, but three
    wrappers would otherwise swallow whole categories into timer
    plumbing:

    * ``PeriodicEvent._fire`` — the periodic timer re-arms itself and
      invokes ``self.callback(*self.args)``; the interesting handler
      is that inner callback.
    * ``Process._guarded`` — the crash guard every node timer routes
      through; the real handler rides in the event arguments as
      ``(callback, args)``.
    * ``functools.partial`` — argument-binding shims; the cost belongs
      to ``.func``.
    """
    for _ in range(8):  # defensive bound; wrappers never nest deeply
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        owner = getattr(callback, "__self__", None)
        if owner is None:
            break
        name = getattr(callback, "__name__", "")
        if name == "_fire" and hasattr(owner, "callback"):
            callback = owner.callback
            args = getattr(owner, "args", ())
            continue
        if name == "_guarded" and len(args) == 2 and callable(args[0]):
            callback, args = args[0], tuple(args[1])
            continue
        break
    return callback


def _resolve_handler(handler: Any) -> Tuple[str, str]:
    module = getattr(handler, "__module__", "") or ""
    qualname = getattr(handler, "__qualname__", None) or repr(handler)
    category = "other"
    for prefix, name in CATEGORY_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            category = name
            break
    return category, f"{module}.{qualname}"


def categorize(callback: Any, args: tuple = ()) -> Tuple[str, str]:
    """Resolve a dispatched callback to (category, qualified name)."""
    return _resolve_handler(_unwrap(callback, args))


class KernelProfiler:
    """Aggregates dispatch cost per category and per handler.

    Plain-data state only, so instances pickle cleanly across the
    parallel sweep executor's worker boundary and fold with
    :meth:`merge` in canonical cell order.
    """

    def __init__(self):
        self.events = 0
        self.total_s = 0.0
        #: category → [event count, wall seconds]
        self.by_category: Dict[str, List[float]] = {}
        #: handler qualname → [event count, wall seconds, max seconds, category]
        self.by_handler: Dict[str, List[Any]] = {}
        self.heap_max = 0
        #: wall-clock span covering observed dispatches (perf_counter).
        self._span_start: Optional[float] = None
        self._span_end: Optional[float] = None
        #: cache: unwrapped handler function → (category, qualname).
        #: Keyed on the underlying function object (held as the key, so
        #: its identity can't be recycled), because the bound-method
        #: objects the kernel dispatches are ephemeral.
        self._resolve_cache: Dict[Any, Tuple[str, str]] = {}

    # -- monitor protocol ------------------------------------------------

    def observe(
        self,
        callback: Any,
        args: tuple,
        elapsed: float,
        now: float,
        heap_len: int,
    ) -> None:
        from time import perf_counter

        target = _unwrap(callback, args)
        key = getattr(target, "__func__", target)
        try:
            resolved = self._resolve_cache.get(key)
        except TypeError:  # unhashable callable
            key = None
            resolved = None
        if resolved is None:
            resolved = _resolve_handler(target)
            # Bounded: handlers are module/class-level functions; a run
            # has hundreds of distinct ones, not millions.  Guard anyway.
            if key is not None and len(self._resolve_cache) < 65536:
                self._resolve_cache[key] = resolved
        category, handler = resolved

        self.events += 1
        self.total_s += elapsed
        cat = self.by_category.get(category)
        if cat is None:
            self.by_category[category] = [1, elapsed]
        else:
            cat[0] += 1
            cat[1] += elapsed
        entry = self.by_handler.get(handler)
        if entry is None:
            self.by_handler[handler] = [1, elapsed, elapsed, category]
        else:
            entry[0] += 1
            entry[1] += elapsed
            if elapsed > entry[2]:
                entry[2] = elapsed
        if heap_len > self.heap_max:
            self.heap_max = heap_len
        end = perf_counter()
        if self._span_start is None:
            self._span_start = end - elapsed
        self._span_end = end

    # -- derived ---------------------------------------------------------

    @property
    def span_s(self) -> float:
        """Wall-clock seconds between first and last observed dispatch."""
        if self._span_start is None or self._span_end is None:
            return 0.0
        return self._span_end - self._span_start

    @property
    def events_per_sec(self) -> float:
        span = self.span_s
        return self.events / span if span > 0 else 0.0

    def category_seconds(self) -> Dict[str, float]:
        return {name: stats[1] for name, stats in self.by_category.items()}

    # -- fold / export ---------------------------------------------------

    def merge(self, other: "KernelProfiler") -> None:
        """Fold another profiler in (parallel per-cell aggregation)."""
        self.events += other.events
        self.total_s += other.total_s
        for name, (count, seconds) in other.by_category.items():
            mine = self.by_category.get(name)
            if mine is None:
                self.by_category[name] = [count, seconds]
            else:
                mine[0] += count
                mine[1] += seconds
        for name, (count, seconds, peak, category) in other.by_handler.items():
            mine = self.by_handler.get(name)
            if mine is None:
                self.by_handler[name] = [count, seconds, peak, category]
            else:
                mine[0] += count
                mine[1] += seconds
                if peak > mine[2]:
                    mine[2] = peak
        if other.heap_max > self.heap_max:
            self.heap_max = other.heap_max
        # Spans from different processes share no origin; fold the
        # durations instead so events/sec stays meaningful.
        if other._span_start is not None and other._span_end is not None:
            extra = other._span_end - other._span_start
            if self._span_start is None:
                self._span_start, self._span_end = 0.0, extra
            else:
                self._span_end += extra

    def summary(self, top: int = 10) -> Dict[str, Any]:
        """JSON-able payload for manifests and ``--profile`` artifacts."""
        categories = {}
        for name in CATEGORIES:
            stats = self.by_category.get(name)
            if stats is None:
                continue
            categories[name] = {
                "events": stats[0],
                "seconds": stats[1],
                "share": stats[1] / self.total_s if self.total_s > 0 else 0.0,
            }
        hot = sorted(
            self.by_handler.items(), key=lambda item: item[1][1], reverse=True
        )[:top]
        return {
            "events": self.events,
            "dispatch_seconds": self.total_s,
            "events_per_sec": self.events_per_sec,
            "heap_max": self.heap_max,
            "categories": categories,
            "hot_handlers": [
                {
                    "handler": name,
                    "category": entry[3],
                    "events": entry[0],
                    "seconds": entry[1],
                    "max_seconds": entry[2],
                }
                for name, entry in hot
            ],
        }

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_resolve_cache"] = {}  # id()s are meaningless cross-process
        return state

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(events={self.events}, "
            f"total_s={self.total_s:.4f}, heap_max={self.heap_max})"
        )


def format_profile_report(profiler: KernelProfiler, top: int = 10) -> str:
    """Render the per-category table and the top-N hot-handler table."""
    return format_profile_payload(profiler.summary(top=top))


def format_profile_payload(payload: Dict[str, Any]) -> str:
    """Render a :meth:`KernelProfiler.summary` payload (live or from a
    ``<name>-profile.json`` artifact)."""
    # Deferred: repro.metrics.__init__ imports repro.sim.trace, which
    # imports this package — a module-level import would be circular.
    from repro.metrics.report import format_table

    lines = [
        "event-kernel profile: "
        f"{payload['events']:,} events, "
        f"{payload['dispatch_seconds'] * 1e3:,.1f} ms dispatch, "
        f"{payload['events_per_sec']:,.0f} events/s, "
        f"heap max {payload['heap_max']:,}"
    ]
    cat_rows = [
        (
            name,
            stats["events"],
            stats["seconds"] * 1e3,
            f"{stats['share'] * 100:.1f}%",
        )
        for name, stats in payload["categories"].items()
    ]
    lines.append("")
    lines.append(
        format_table(
            ["category", "events", "ms", "share"],
            cat_rows,
            title="dispatch wall-time by category",
        )
    )
    hot_rows = [
        (
            entry["handler"],
            entry["category"],
            entry["events"],
            entry["seconds"] * 1e3,
            entry["max_seconds"] * 1e3,
        )
        for entry in payload["hot_handlers"]
    ]
    lines.append("")
    lines.append(
        format_table(
            ["handler", "category", "events", "ms", "max ms"],
            hot_rows,
            title=f"top {len(hot_rows)} hot handlers",
        )
    )
    return "\n".join(lines)
