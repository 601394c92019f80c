"""Structured event tracer with a thread-local activation context.

Tracing is **off by default**: instrumented call-sites fetch the active
tracer with :func:`current_tracer` and bail on ``None``, so un-traced hot
paths pay a single attribute lookup.  Activate with::

    from repro.observe import tracing

    with tracing() as t:
        per_block_qr(batch)          # engine events land in t
    write_chrome_trace(t, "qr.json")  # open in chrome://tracing / Perfetto

Events are ring-buffer backed (:class:`collections.deque` with
``maxlen``): a runaway kernel cannot grow memory without bound -- old
events are dropped and counted in :attr:`Tracer.dropped`.

Timestamps are *simulated* time.  The engine stamps its events with the
block's cycle clock; events from outside the engine (pipeline stages,
microbenchmarks, dispatch decisions) draw from the tracer's own monotonic
tick so a single trace stays ordered.  The Chrome exporter emits the
numbers verbatim -- one trace "microsecond" is one cycle or one tick.

A :class:`TraceTape` is what one run did to its tracer, recorded by
:func:`record_tape` and replayed onto any later tracer with the effect
the run itself would have had there.  The device kernels record a
launch's tape once per shape and replay it on every traced launch.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple, TypeVar

from .counters import CounterRegistry, CounterTape, RecordingRegistry

__all__ = [
    "ClockOrigin",
    "Event",
    "Span",
    "TraceTape",
    "Tracer",
    "current_tracer",
    "record_tape",
    "set_tracer",
    "tracing",
    "span",
    "instant",
    "add_counter",
    "DEFAULT_CAPACITY",
]

#: Default ring-buffer capacity (events).  A 56x56 per-block QR emits a
#: few thousand events; the default holds dozens of launches.
DEFAULT_CAPACITY = 65536


@dataclasses.dataclass(frozen=True)
class ClockOrigin:
    """One process's clock anchor, captured when its tracer is built.

    ``perf`` is a :func:`time.perf_counter` reading and ``wall`` the
    matching :func:`time.time` instant.  Two origins from the same
    machine share the monotonic epoch, so the *true* offset between the
    processes' profile clocks is simply ``perf_a - perf_b`` -- the
    handshake :meth:`Tracer.ingest` uses to align worker timelines
    instead of re-stamping them.  ``wall`` rides along as a
    human-readable anchor for exported traces.
    """

    perf: float
    wall: float
    pid: int

    @classmethod
    def capture(cls) -> "ClockOrigin":
        return cls(perf=time.perf_counter(), wall=time.time(), pid=os.getpid())

    def offset_from(self, other: "ClockOrigin") -> float:
        """Seconds this origin's profile clock leads ``other``'s."""
        return self.perf - other.perf


class Event(NamedTuple):
    """One recorded trace event (Chrome ``trace_event`` phases).

    ``ph`` is ``"X"`` (complete: has a duration), ``"i"`` (instant), or
    ``"C"`` (counter sample).  A named tuple rather than a frozen
    dataclass: traced launches build thousands of these, and a frozen
    dataclass costs several times as much to construct.
    """

    name: str
    category: str
    ph: str
    ts: float
    dur: float = 0.0
    args: Optional[Dict[str, Any]] = None


class Span:
    """Handle for an open span; closed by :meth:`end` or the context."""

    __slots__ = ("tracer", "name", "category", "start", "args", "_open")

    def __init__(self, tracer: "Tracer", name: str, category: str, start: float,
                 args: Optional[dict]) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.start = start
        self.args = args
        self._open = True

    def end(self, ts: Optional[float] = None) -> None:
        if not self._open:
            return
        self._open = False
        end_ts = self.tracer._stamp(ts)
        self.tracer._emit(
            Event(
                name=self.name,
                category=self.category,
                ph="X",
                ts=self.start,
                dur=max(0.0, end_ts - self.start),
                args=self.args,
            )
        )
        stack = self.tracer._span_stack
        if stack and stack[-1] is self:
            stack.pop()


class Tracer:
    """Ring-buffer event recorder plus a session counter registry."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.events: deque[Event] = deque(maxlen=self.capacity)
        self.counters = CounterRegistry()
        self.dropped = 0
        #: This buffer's own overflow (``dropped`` also counts what
        #: ingested sources dropped); see :attr:`appended`.
        self._evicted = 0
        self._ts = 0.0
        self._span_stack: list[Span] = []
        #: Clock anchor for real-time (profile) events; see
        #: :class:`ClockOrigin` and :meth:`now`.
        self.origin = ClockOrigin.capture()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds elapsed on this tracer's real-time (profile) clock.

        Runtime-level profile spans stamp themselves with this clock --
        real seconds since the tracer was built -- while engine events
        keep their simulated cycle clock.  The two coexist in one trace;
        profile consumers filter by category.
        """
        return time.perf_counter() - self.origin.perf

    def _stamp(self, ts: Optional[float], dur: float = 0.0) -> float:
        """Resolve a timestamp, keeping the internal clock monotonic."""
        if ts is None:
            self._ts += 1.0
            return self._ts
        if ts + dur > self._ts:
            self._ts = ts + dur
        return float(ts)

    def _emit(self, event: Event) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
            self._evicted += 1
        self.events.append(event)

    def _overflow(self, count: int) -> None:
        """Count the events ``count`` more appends push out of the buffer."""
        overflow = len(self.events) + count - self.capacity
        if overflow > 0:
            self.dropped += overflow
            self._evicted += overflow

    @property
    def appended(self) -> int:
        """Events recorded since construction or :meth:`clear`, evicted or not."""
        return len(self.events) + self._evicted

    def since(self, mark: int) -> list:
        """The buffered events recorded after :attr:`appended` read ``mark``.

        Reads only those events, newest first from the buffer's end, so
        its cost is the window's size, not the buffer's.
        """
        count = min(len(self.events), self.appended - mark)
        if count <= 0:
            return []
        window = list(itertools.islice(reversed(self.events), count))
        window.reverse()
        return window

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------
    def complete(
        self,
        name: str,
        category: str,
        ts: Optional[float] = None,
        dur: float = 0.0,
        **args: Any,
    ) -> None:
        """Record a finished interval (Chrome ``"X"`` event).

        ``ts`` defaults to the tracer's own tick clock; the engine passes
        its cycle clock instead.
        """
        if ts is None:
            ts = self._stamp(None)
        self._stamp(ts, dur)
        self._emit(
            Event(name=name, category=category, ph="X", ts=float(ts),
                  dur=float(dur), args=args or None)
        )

    def instant(
        self, name: str, category: str = "mark", ts: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Record a point-in-time event (Chrome ``"i"`` event)."""
        stamped = self._stamp(ts)
        self._emit(
            Event(name=name, category=category, ph="i", ts=stamped,
                  args=args or None)
        )

    def counter(
        self, name: str, value: float, ts: Optional[float] = None
    ) -> None:
        """Record a counter sample and accumulate it in the registry."""
        stamped = self._stamp(ts)
        self.counters.add(name, value)
        self._emit(
            Event(name=name, category="counter", ph="C", ts=stamped,
                  args={"value": value})
        )

    @contextmanager
    def span(
        self, name: str, category: str = "span", ts: Optional[float] = None,
        **args: Any,
    ) -> Iterator[Span]:
        """Open a nested span; also scopes the counter registry's stage."""
        handle = Span(self, name, category, self._stamp(ts), args or None)
        self._span_stack.append(handle)
        try:
            with self.counters.stage(name):
                yield handle
        finally:
            handle.end()

    def ingest(
        self,
        events,
        dropped: int = 0,
        clock: Optional[ClockOrigin] = None,
        **tags: Any,
    ) -> int:
        """Replay foreign :class:`Event` records into this tracer.

        Used by the sharded runtime to fold each worker's trace back into
        the launch tracer.  Without ``clock``, every event is re-stamped
        onto this tracer's tick clock (shifted so the replay starts
        "now" and stays monotonic) -- relative timing *between* the two
        processes is lost.  With ``clock`` -- the worker tracer's
        :class:`ClockOrigin`, shipped back with the chunk outcome -- the
        events are instead shifted by the **measured** offset between the
        two origins (``clock.offset_from(self.origin)``), so a worker
        span that ran 3 ms into the worker's timeline lands 3 ms after
        that worker's origin on *this* timeline: durations, gaps, and
        cross-process ordering all survive.

        Events are tagged with ``tags`` (e.g. ``shard=3``) so merged
        timelines remain attributable.  ``dropped`` carries the source
        ring buffer's overflow count into :attr:`dropped`, so a worker
        that overflowed does not fold into a launch trace that looks
        complete; the runtime reports the launch's total once, as the
        ``runtime.trace_dropped`` event.  Events are replayed in the
        order given, in one pass: one append of the lot, the clock
        advanced once, and the overflow counted as one emit per event
        would count it; returns the number ingested.
        """
        self.dropped += int(dropped)
        base = clock.offset_from(self.origin) if clock is not None else self._ts
        end = self._ts
        fresh = []
        for ev in events:
            if ev.args:
                args = {**ev.args, **tags}
            else:
                args = dict(tags) if tags else None
            ts = base + ev.ts
            if ts + ev.dur > end:
                end = ts + ev.dur
            fresh.append(Event(ev.name, ev.category, ev.ph, ts, ev.dur, args))
        self._overflow(len(fresh))
        self.events.extend(fresh)
        self._ts = end
        return len(fresh)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._span_stack)

    @property
    def current_span(self) -> Optional[Span]:
        return self._span_stack[-1] if self._span_stack else None

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._evicted = 0
        self._ts = 0.0
        self._span_stack.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({len(self.events)}/{self.capacity} events, "
            f"{self.dropped} dropped, {len(self.counters)} counters)"
        )


# ----------------------------------------------------------------------
# Trace tapes
# ----------------------------------------------------------------------
class _Recorder(Tracer):
    """A tracer that records its calls for a :class:`TraceTape`.

    It records :meth:`complete` and :meth:`instant` calls and, through a
    :class:`~repro.observe.counters.RecordingRegistry`, counter adds;
    every other recording entry point raises, so new instrumentation
    cannot silently fall off a tape.
    """

    def __init__(self) -> None:
        super().__init__()
        self.counters = RecordingRegistry()
        #: ``(ph, name, category, ts, dur, args)`` per call, in call order.
        self.calls: list = []

    def complete(self, name, category, ts=None, dur=0.0, **args) -> None:
        self.calls.append(("X", name, category, ts, dur, args or None))

    def instant(self, name, category="mark", ts=None, **args) -> None:
        self.calls.append(("i", name, category, ts, 0.0, args or None))

    def counter(self, name, value, ts=None) -> None:
        raise TypeError("a trace tape does not record counter()")

    def span(self, name, category="span", ts=None, **args):
        raise TypeError("a trace tape does not record span()")

    def ingest(self, events, dropped=0, clock=None, **tags) -> int:
        raise TypeError("a trace tape does not record ingest()")


class TraceTape:
    """The calls one run made on its tracer, replayable onto any tracer.

    Built by :func:`record_tape`.  :meth:`replay` leaves a tracer in the
    state the recorded calls would have left it in:

    * an event stamped with its own timestamp (the engine's cycle
      clock) is the recorded :class:`Event`, appended in order; the
      tracer's clock advances to the latest end;
    * an event stamped on the tracer's tick clock is rebuilt in its
      place in the order, on the live tick clock;
    * ring-buffer overflow counts into :attr:`Tracer.dropped` as one
      emit per event would;
    * counter adds replay through a
      :class:`~repro.observe.counters.CounterTape`.
    """

    __slots__ = ("segments", "size", "counters")

    def __init__(self, calls: list, counters: CounterTape) -> None:
        #: ``(events, end, tick)`` per run of self-stamped events: the
        #: events, their largest ``ts + dur`` (the first of equals), and
        #: the tick-stamped call that ends the run, or ``None``.
        self.segments: list = []
        events: list = []
        end = float("-inf")
        for ph, name, category, ts, dur, args in calls:
            if ts is None:
                tick = (ph, name, category, dur, args)
                self.segments.append((tuple(events), end, tick))
                events, end = [], float("-inf")
                continue
            events.append(Event(name, category, ph, float(ts), float(dur), args))
            if ts + dur > end:
                end = ts + dur
        if events:
            self.segments.append((tuple(events), end, None))
        self.size = len(calls)
        self.counters = counters

    def replay(self, tracer: Tracer) -> None:
        """Apply the recorded calls to ``tracer``."""
        events = tracer.events
        tracer._overflow(self.size)
        clock = tracer._ts
        for run, end, tick in self.segments:
            if run:
                events.extend(run)
                if end > clock:
                    clock = end
            if tick is not None:
                ph, name, category, dur, args = tick
                clock += 1.0
                events.append(Event(name, category, ph, clock, float(dur), args))
                stop = clock + dur
                if stop > clock:
                    clock = stop
        tracer._ts = clock
        self.counters.replay(tracer.counters)


_T = TypeVar("_T")


def record_tape(run: Callable[[], _T]) -> Tuple[_T, TraceTape]:
    """Call ``run`` under a recording tracer; return its result and tape.

    The :class:`TraceTape` holds ``run``'s calls on the tracer.  The
    recording tracer stands in for the active one during the call, so
    nothing else observes what it records.
    """
    recorder = _Recorder()
    with tracing(recorder):
        result = run()
    return result, TraceTape(recorder.calls, CounterTape(recorder.counters.adds))


# ----------------------------------------------------------------------
# Thread-local activation
# ----------------------------------------------------------------------
_tls = threading.local()


def current_tracer() -> Optional[Tracer]:
    """The tracer active on this thread, or ``None`` (the common case)."""
    return getattr(_tls, "tracer", None)


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as this thread's active tracer; returns the old."""
    previous = current_tracer()
    _tls.tracer = tracer
    return previous


def _forget_tracer() -> None:
    """A forked child starts untraced: its parent's tracer is not its own.

    A kept pool worker is forked once and serves later launches, traced
    or not; each traced chunk opens its own tracer.
    """
    _tls.tracer = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tracer)


@contextmanager
def tracing(
    tracer: Optional[Tracer] = None, capacity: int = DEFAULT_CAPACITY
) -> Iterator[Tracer]:
    """Activate a tracer for the body (creating one if not supplied)."""
    active = tracer if tracer is not None else Tracer(capacity)
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# No-op-when-disabled conveniences for instrumented call-sites
# ----------------------------------------------------------------------
_NULL_SPAN = nullcontext()


def span(name: str, category: str = "span", **args: Any):
    """A span on the active tracer, or a shared no-op context manager."""
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **args)


def instant(name: str, category: str = "mark", **args: Any) -> None:
    """An instant event on the active tracer; no-op when disabled."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.instant(name, category, **args)


def add_counter(name: str, value: float = 1.0) -> None:
    """Accumulate into the active tracer's registry; no-op when disabled."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.counters.add(name, value)
