"""Discrete-event simulation kernel.

A :class:`Simulation` owns a virtual clock and a priority queue of
events.  Protocol code schedules callbacks with :meth:`Simulation.call_at`
/ :meth:`call_after` and reads time from :attr:`Simulation.now`; the
driver advances time with :meth:`run` / :meth:`run_until`.

Determinism guarantees:

* events at equal times fire in scheduling order (a monotone sequence
  number breaks ties), and
* all randomness flows through the named streams of
  :class:`repro.sim.rng.RngRegistry` owned by the simulation.

Together these make every experiment a pure function of its seed.

:meth:`Simulation.call_at_batch` rows do not cost a heap entry each: a
callback's pending rows wait in one *lane* with only its head row in
the heap, and fire in the same ``(time, seq)`` order.  A batch stays in
columns — its sorted times and sort permutation as arrays, the
caller's columns as given — and row tuples are built only for the rows
a dispatch hands over (``docs/SIMULATOR.md``, "Bulk lanes").

Cancellation is lazy (a cancelled handle stays in the heap until its
time comes) but bounded: the simulation counts dead handles and
compacts the heap when they outnumber live ones, so churn-heavy runs —
repair timers set and cancelled every round — keep the heap linear in
*live* events.  Compaction filters and re-heapifies under the same
total order ``(time, seq)``, so the firing sequence is untouched (see
``docs/SIMULATOR.md``).
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.errors import SimulationError
from repro.sim.rng import RngRegistry

#: Compact only when at least this many dead handles accumulated, so
#: small simulations never pay the (cheap) rebuild.
_COMPACT_MIN_DEAD = 64

# Module-level bindings for the scheduling fast path: these run once
# per simulated event, where even a LOAD_ATTR shows up in profiles.
_heappush = heapq.heappush
_isfinite = math.isfinite
_INF = math.inf

#: Most rows one lane dispatch hands its callback.  A handler holds what
#: it builds per row until it returns, so an uncapped run (67k rows at
#: 100k nodes) shows as peak RSS; at 256 the per-dispatch cost is
#: already under 1 % of the rows' own.
_LANE_RUN_CAP = 256

#: The ``sim`` factories, ``trace`` factories and registry of the
#: innermost :func:`instrumented` block, read where a
#: :class:`Simulation` or a :class:`~repro.sim.trace.TraceLog` is built.
_INSTRUMENTS: tuple = ((), (), None)


@contextmanager
def instrumented(
    *, sim: Iterable[Callable] = (), trace: Iterable[Callable] = (), metrics=None
) -> Iterator[None]:
    """Attach observers to every simulation and trace built in this block.

    Each ``sim`` factory is called as ``factory(simulation)`` when a
    :class:`Simulation` is constructed and may return a *dispatch
    monitor* — an object with ``observe(callback, args, elapsed_s,
    sim_time, heap_len)`` — or None.  Each ``trace`` factory is called
    as ``factory(trace)`` when a :class:`~repro.sim.trace.TraceLog` is
    constructed and may return a sink, appended *behind* the trace's own
    sinks so collectors keep their primary, or None.  Factories, not
    instances, because one block may see several systems whose item keys
    repeat (a sweep, an experiment's baselines); a factory that wants
    one shared observer just returns it every time.  ``metrics`` becomes
    the registry of every trace built without an explicit one.  Blocks
    nest (an inner block adds its factories behind the outer ones), and
    the previous state is restored even when the body raises.

    This is how the cell executor instruments a run whose runner builds
    its own systems, without threading a parameter through every
    ``run_eN`` signature; a caller that builds the system itself passes
    ``sinks=`` / ``metrics=`` to the builder instead.  Observers watch
    from *outside* the event stream: monitors are handed wall-clock
    cost, clock readings and a read-only view of the dispatched
    callback, sinks a copy of each record, and neither schedules events,
    draws randomness or mutates what it sees — so an instrumented
    fixed-seed run stays byte-identical to a bare one
    (``tests/integration/test_instrumentation_transparency.py``,
    ``tests/obs/test_sink_transparency.py``).
    """
    global _INSTRUMENTS
    previous = _INSTRUMENTS
    sims, traces, registry = previous
    _INSTRUMENTS = (
        sims + tuple(sim),
        traces + tuple(trace),
        registry if metrics is None else metrics,
    )
    try:
        yield
    finally:
        _INSTRUMENTS = previous


class EventHandle:
    """A cancellable reference to a scheduled event.

    The heap itself stores ``(time, seq, handle)`` tuples so that sift
    comparisons run entirely in C (tuple-vs-tuple on float then int;
    ``seq`` is unique, so the handle is never compared) — a Python
    ``__lt__`` here would be the single hottest call in churn-heavy
    simulations.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional["Simulation"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # Inlined Simulation._note_cancelled — churny protocols
                # cancel tens of thousands of timers per run.
                sim._dead = dead = sim._dead + 1
                if dead >= _COMPACT_MIN_DEAD and dead * 2 >= len(sim._heap):
                    sim._compact()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"EventHandle(t={self.time:.3f}, {name}, {state})"


class Simulation:
    """The event loop: virtual clock + event heap + named RNG streams."""

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._dead = 0  # cancelled handles still sitting in the heap
        self._events_processed = 0
        #: Bulk lanes by callback, their pending rows beyond the heap
        #: entries they hold, and where the current run call stops.
        self._lanes: dict = {}
        self._lane_extra = 0
        self._bound = -_INF
        self.rngs = RngRegistry(seed)
        self.seed = seed
        #: Dispatch monitors (profiler, time-series sampler) — pure
        #: observers of the event loop; see :func:`instrumented`.
        self._monitors: tuple = ()
        for factory in _INSTRUMENTS[0]:
            monitor = factory(self)
            if monitor is not None:
                self._monitors = self._monitors + (monitor,)

    # -- monitors --------------------------------------------------------

    def add_monitor(self, monitor) -> None:
        """Attach a dispatch monitor (takes effect on the next run call).

        A monitor's ``observe(callback, args, elapsed_s, sim_time,
        heap_len)`` is invoked after every dispatched event with the
        callback object, its argument tuple (read-only — needed to see
        through wrappers like ``Process._guarded``), its wall-clock
        cost in seconds, the virtual time it fired at and the current
        heap length.  Monitors are observers only: they must not
        schedule events, draw randomness or mutate what they are handed
        — attaching one keeps fixed-seed runs byte-identical.
        """
        self._monitors = self._monitors + (monitor,)

    @property
    def monitors(self) -> tuple:
        return self._monitors

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (uncancelled, unfired) events, lane rows included — O(1)."""
        return len(self._heap) - self._dead + self._lane_extra

    def rng(self, name: str) -> random.Random:
        """The named deterministic random stream."""
        return self.rngs.stream(name)

    # -- scheduling ------------------------------------------------------

    def _schedule(
        self, time: float, callback: Callable[..., None], args: tuple
    ) -> EventHandle:
        """Validated-input fast path shared by all scheduling entry points."""
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, handle))
        return handle

    def _compact(self) -> None:
        """Drop cancelled handles and re-heapify.

        In-place (slice assignment) so concurrent references to the
        heap list — e.g. a ``run_until`` frame further down the stack —
        keep seeing the one true heap.  The heap invariant is rebuilt
        under the same total order ``(time, seq)``, so the sequence of
        future pops is exactly what lazy deletion would have produced.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        ``time`` must be finite: an event at ``+inf`` would fire last,
        wedge the clock at infinity and break every relative-time
        computation afterwards, so it is rejected up front (as are NaN
        and past times).
        """
        if not _isfinite(time) or time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} (now={self._now})"
            )
        return self._schedule(time, callback, args)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds (finite, >= 0)."""
        if not _isfinite(delay) or delay < 0:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        # _schedule inlined: this is the most-called entry point in the
        # whole simulator (every timer, timeout and message delivery).
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, handle))
        return handle

    def call_at_batch(
        self, callback: Callable[[list], None], times: Sequence[float], *columns: Sequence
    ) -> int:
        """Schedule one row per entry of ``times`` for ``callback``.

        The bulk entry point for the columnar scale backend, whose
        dissemination step computes thousands of delivery times at once.
        Row *i* is ``(times[i], columns[0][i], columns[1][i], ...)``; the
        lane keeps ``columns`` as given (arrays stay arrays) and builds a
        row's tuple only when it fires, so the caller must not mutate
        them afterwards.  Rows fire in the total order :meth:`call_at`
        would give them (row *i* takes sequence number ``base + i``), but
        ``callback`` gets a **list** of consecutive due rows (see
        :class:`_Lane`) with :attr:`now` at the last one's time, so it
        reads each row's own.  All rows are validated like
        :meth:`call_at` before any is scheduled: a bad one raises and
        leaves the simulation untouched.  Fire-only — no handles, no
        cancellation.  Returns the number scheduled.
        """
        count = len(times)
        if not count:
            return 0
        now = self._now
        if not all(map(_isfinite, times)) or min(times) < now:
            bad = next(t for t in times if not _isfinite(t) or t < now)
            raise SimulationError(f"cannot schedule event at t={bad} (now={now})")
        if any(len(column) != count for column in columns):
            raise SimulationError(f"every column needs {count} entries, one per time")
        lane = self._lanes.get(callback)
        if lane is None:
            lane = self._lanes[callback] = _Lane(self, callback)
        seq = self._seq
        self._seq = seq + count
        lane.add(_Run(times, seq, columns))
        return count

    def call_every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> "PeriodicEvent":
        """Run ``callback(*args)`` every ``interval`` seconds.

        ``first_delay`` staggers the first firing (defaults to one full
        interval); ``until`` stops the series at that time.  Returns a
        handle whose :meth:`PeriodicEvent.cancel` stops future firings.
        """
        if not math.isfinite(interval) or interval <= 0:
            raise SimulationError("interval must be positive and finite")
        return PeriodicEvent(self, interval, callback, args, first_delay, until)

    # -- running ---------------------------------------------------------

    def step(self) -> bool:
        """Process the single next event.  Returns False when idle."""
        self._bound = -_INF  # a lane fires its head row only
        heap = self._heap
        monitors = self._monitors
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._now = event.time
            self._events_processed += 1
            # Mark consumed so holders (e.g. Process timer lists) can
            # prune fired handles the same way as cancelled ones.
            event.cancelled = True
            if monitors:
                started = perf_counter()
                event.callback(*event.args)
                elapsed = perf_counter() - started
                for monitor in monitors:
                    monitor.observe(
                        event.callback, event.args, elapsed, event.time, len(heap)
                    )
            else:
                event.callback(*event.args)
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` fire)."""
        remaining = math.inf if max_events is None else max_events
        while remaining > 0 and self.step():
            remaining -= 1

    def run_until(self, time: float) -> None:
        """Run all events with timestamps <= ``time``; clock ends at ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot run backwards to t={time}")
        self._bound = time
        # Inline pop (single heap operation per event, no re-peek via
        # step()) — this loop is the hottest few lines in the repo.
        # Monitors are hoisted once per call: attaching one mid-run
        # takes effect on the next run call, and the bare loop pays
        # only a single falsy test per event when none are attached.
        heap = self._heap
        pop = heapq.heappop
        monitors = self._monitors
        while heap:
            when, _, head = heap[0]
            if head.cancelled:
                pop(heap)
                self._dead -= 1
                continue
            if when > time:
                break
            pop(heap)
            self._now = when
            self._events_processed += 1
            head.cancelled = True  # consumed marker, as in step()
            if monitors:
                started = perf_counter()
                head.callback(*head.args)
                elapsed = perf_counter() - started
                for monitor in monitors:
                    monitor.observe(
                        head.callback, head.args, elapsed, when, len(heap)
                    )
            else:
                head.callback(*head.args)
        self._now = max(self._now, time)

    def run_for(self, duration: float) -> None:
        """Advance the clock by ``duration`` seconds of virtual time."""
        self.run_until(self._now + duration)

    def __repr__(self) -> str:
        return (
            f"Simulation(now={self._now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )


class _Run:
    """One batch's pending rows in fire order, its columns as given.

    ``times`` holds the batch's times sorted and ``order`` the sort
    permutation (``order[k]`` is the batch index of the *k*-th row to
    fire), both flat arrays; the sort is stable, so equal times keep
    batch order, which is seq order, and a row's seq is ``base +
    order[k]``.  ``pos`` is the next row to fire.
    """

    __slots__ = ("times", "order", "base", "columns", "pos")

    def __init__(self, times: Sequence[float], base: int, columns: tuple):
        # Sort by a list's own floats, not by a key that boxes one per
        # row mid-sort: the same order, but less of the sort's scratch
        # memory stays stranded (columnar-e2-100k's peak RSS reads about
        # 1 MiB lower and steadier).
        keys = list(times)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.times = array("d", map(keys.__getitem__, order))
        self.order = array("I", order)
        self.base = base
        self.columns = columns
        self.pos = 0

    def head(self) -> tuple:
        """``(time, seq)`` of the next row to fire."""
        pos = self.pos
        return self.times[pos], self.base + self.order[pos]

    def take(self, stop: tuple, room: int, due: int, out: list) -> None:
        """Append the rows keyed before ``stop`` (at most ``room``, and
        the first ``due`` whatever ``stop``) to ``out`` as tuples."""
        times, order, pos = self.times, self.order, self.pos
        hi = min(pos + room, len(times))
        time, seq = stop
        end = bisect_left(times, time, pos + due, hi)
        if end < hi and times[end] == time:  # ties with `stop` go by seq
            end = bisect_left(order, seq - self.base, end, bisect_right(times, time, end, hi))
        picked = order[pos:end]
        out += zip(times[pos:end], *[map(column.__getitem__, picked) for column in self.columns])
        self.pos = end


class _Lane:
    """One callback's pending bulk rows behind (almost always) one heap entry.

    Each :meth:`Simulation.call_at_batch` call adds one :class:`_Run`;
    the lane's head is the earliest ``(time, seq)`` among the runs'
    heads, compared in C as the heap does.  The head row is *armed*: an
    ordinary :class:`EventHandle` keyed by its ``(time, seq)`` and bound
    to :meth:`_fire` sits in the heap.  A batch that brings an earlier
    head arms it too and leaves the overtaken entry alone (a cancelled
    twin would tie with its row's next arming, and heap keys are
    unique); it bounds runs like any heap event, so it is there when its
    row heads the lane again.  ``_armed`` stacks the armed rows' seqs,
    the head's last.  ``callback`` is public, as on
    :class:`PeriodicEvent`, for dispatch monitors to see through
    ``_fire`` to the real handler.
    """

    __slots__ = ("_sim", "callback", "_runs", "_armed")

    def __init__(self, sim: Simulation, callback: Callable[[list], None]):
        self._sim = sim
        self.callback = callback
        self._runs: list[_Run] = []
        self._armed: list[int] = []

    def add(self, run: _Run) -> None:
        """Take a validated batch in."""
        self._runs.append(run)
        self._sim._lane_extra += len(run.times)
        self._arm()

    def _arm(self) -> None:
        """Give the head row its heap entry, unless it holds one."""
        time, seq = min([run.head() for run in self._runs])
        armed = self._armed
        if armed and armed[-1] == seq:
            return
        armed.append(seq)
        sim = self._sim
        _heappush(sim._heap, (time, seq, EventHandle(time, seq, self._fire, (), sim)))
        sim._lane_extra -= 1

    def _fire(self) -> None:
        """Hand ``callback`` the head row and every row due before anything else."""
        self._armed.pop()  # the entry that just fired was the head row's
        sim = self._sim
        heap = sim._heap
        while heap and heap[0][2].cancelled:  # the next *live* heap event
            heapq.heappop(heap)
            sim._dead -= 1
        limit = (sim._bound, _INF)
        if heap and heap[0] < limit:
            limit = heap[0][:2]
        runs = self._runs
        rows: list = []
        due = 1  # the head row is due even past `limit` (step() fires one)
        while len(rows) < _LANE_RUN_CAP:
            # Merge across runs: take from the run holding the earliest
            # row up to the next row of any other run, then switch.
            heads = [run.head() for run in runs]
            first = min(heads)
            if first >= limit and not due:
                break
            run = runs[heads.index(first)]
            stop = limit
            for head in heads:
                if first < head < stop:
                    stop = head
            run.take(stop, _LANE_RUN_CAP - len(rows), due, rows)
            due = 0
            if run.pos == len(run.times):
                runs.remove(run)
                if not runs:
                    break
        sim._now = rows[-1][0]
        sim._events_processed += len(rows) - 1  # the kernel counted the head row
        sim._lane_extra += 1 - len(rows)
        try:
            self.callback(rows)
        finally:
            if self._runs:
                self._arm()
            else:
                del sim._lanes[self.callback]


class PeriodicEvent:
    """A self-rescheduling event series created by ``call_every``.

    The series never schedules past its ``until`` bound: once the next
    firing would land beyond it, the series stops immediately — there
    is no phantom wake-up, and :attr:`active` flips at the virtual time
    of the last real firing.
    """

    __slots__ = ("_sim", "interval", "callback", "args", "until", "_handle", "_stopped")

    def __init__(
        self,
        sim: Simulation,
        interval: float,
        callback: Callable[..., None],
        args: tuple,
        first_delay: Optional[float],
        until: Optional[float],
    ):
        self._sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.until = until
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        delay = interval if first_delay is None else first_delay
        if until is not None and sim.now + delay > until:
            self._stopped = True  # would already start past the deadline
        else:
            self._handle = sim.call_after(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback(*self.args)
        if self._stopped:  # callback may have cancelled us
            return
        sim = self._sim
        next_time = sim._now + self.interval
        if self.until is not None and next_time > self.until:
            self._stopped = True
            return
        self._handle = sim._schedule(next_time, self._fire, ())

    def cancel(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._stopped
