"""Tracer core: span nesting, activation, ring buffer, no-op helpers."""

import dataclasses
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe import (
    Tracer,
    add_counter,
    current_tracer,
    instant,
    set_tracer,
    span,
    tracing,
)
from repro.observe.tracer import Event


class TestActivation:
    def test_no_tracer_by_default(self):
        assert current_tracer() is None

    def test_tracing_installs_and_removes(self):
        with tracing() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert current_tracer() is None

    def test_tracing_accepts_existing_tracer(self):
        mine = Tracer(capacity=32)
        with tracing(mine) as tracer:
            assert tracer is mine

    def test_set_tracer_returns_previous(self):
        t1 = Tracer()
        prev = set_tracer(t1)
        try:
            assert prev is None
            assert current_tracer() is t1
        finally:
            set_tracer(prev)
        assert current_tracer() is None

    def test_activation_is_thread_local(self):
        seen = {}

        def worker():
            seen["inner"] = current_tracer()

        with tracing():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["inner"] is None


class TestSpans:
    def test_span_nesting_depth_and_parent(self):
        tracer = Tracer()
        assert tracer.depth == 0
        with tracer.span("outer", "test"):
            assert tracer.depth == 1
            outer = tracer.current_span
            with tracer.span("inner", "test"):
                assert tracer.depth == 2
                assert tracer.current_span is not outer
            assert tracer.depth == 1
            assert tracer.current_span is outer
        assert tracer.depth == 0
        assert tracer.current_span is None

    def test_span_emits_complete_event_on_exit(self):
        tracer = Tracer()
        with tracer.span("work", "test", detail=7):
            pass
        events = list(tracer.events)
        assert len(events) == 1
        ev = events[0]
        assert ev.name == "work"
        assert ev.ph == "X"
        assert ev.args["detail"] == 7

    def test_nested_span_events_close_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer", "test"):
            with tracer.span("inner", "test"):
                pass
        names = [e.name for e in tracer.events]
        assert names == ["inner", "outer"]

    def test_span_scopes_counter_stage(self):
        tracer = Tracer()
        with tracer.span("stage_a", "test"):
            tracer.counters.add("hits", 2)
        tracer.counters.add("hits", 1)
        assert tracer.counters.value("hits") == 3
        assert tracer.counters.stages()["stage_a"]["hits"] == 2


class TestDisabledTracer:
    """With no tracer installed the module helpers must be inert."""

    def test_helpers_add_no_events(self):
        probe = Tracer()
        with span("ignored", "test"):
            instant("ignored", "test")
            add_counter("ignored.counter", 5)
        assert current_tracer() is None
        assert len(probe.events) == 0

    def test_engine_runs_clean_without_tracer(self):
        import numpy as np

        from repro.kernels.batched import random_batch
        from repro.kernels.device import per_block_lu

        result = per_block_lu(random_batch(2, 8, 8, dtype=np.float32, seed=0))
        # Per-launch counters still accumulate (always-on registry) ...
        assert result.launch.counters.value("sync.count") > 0
        # ... but nothing leaked into a global tracer.
        assert current_tracer() is None


class TestRingBuffer:
    def test_capacity_caps_memory(self):
        tracer = Tracer(capacity=8)
        for i in range(100):
            tracer.instant(f"e{i}", "test")
        assert len(tracer.events) == 8
        assert tracer.dropped == 92
        # Oldest events are the ones evicted.
        assert [e.name for e in tracer.events] == [f"e{i}" for i in range(92, 100)]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear_resets_events_and_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", "test")
        tracer.clear()
        assert len(tracer.events) == 0
        assert tracer.dropped == 0


class TestIngest:
    """Folding worker events back into a launch tracer."""

    def _worker_trace(self):
        src = Tracer()
        with src.span("chunk", "runtime"):
            src.instant("kernel.start", "kernel", depth=1)
        src.instant("chunk.done", "runtime")
        return src

    def test_tags_land_on_every_event(self):
        src = self._worker_trace()
        dst = Tracer()
        count = dst.ingest(src.events, shard=3, worker=123)
        assert count == len(src.events) == len(dst.events)
        for ev in dst.events:
            assert ev.args["shard"] == 3
            assert ev.args["worker"] == 123
        # Original args survive next to the stamps.
        kernel = next(e for e in dst.events if e.name == "kernel.start")
        assert kernel.args["depth"] == 1

    def test_order_preserved_and_restamped_after_existing_events(self):
        src = self._worker_trace()
        dst = Tracer()
        dst.instant("before", "runtime")
        base = list(dst.events)[-1].ts
        dst.ingest(src.events, shard=0)
        names = [e.name for e in dst.events]
        assert names == ["before"] + [e.name for e in src.events]
        ingested = list(dst.events)[1:]
        # Shifted onto this tracer's clock: nothing lands before "before",
        # and the worker's internal timing survives as a constant offset.
        assert all(ev.ts >= base for ev in ingested)
        shifts = {
            ev.ts - src_ev.ts for ev, src_ev in zip(ingested, src.events)
        }
        assert len(shifts) == 1

    def test_clock_stays_monotonic_after_ingest(self):
        dst = Tracer()
        dst.ingest(self._worker_trace().events, shard=0)
        last = list(dst.events)[-1].ts
        dst.instant("after", "runtime")
        assert list(dst.events)[-1].ts > last

    def test_dropped_kwarg_accumulates(self):
        dst = Tracer()
        assert dst.ingest([], dropped=5) == 0
        dst.ingest(self._worker_trace().events, dropped=2, shard=1)
        assert dst.dropped == 7

    def test_no_tags_leaves_args_untouched(self):
        src = Tracer()
        src.instant("bare", "test")
        dst = Tracer()
        dst.ingest(src.events)
        (ev,) = dst.events
        assert ev.args is None or "shard" not in ev.args


def _ingest_per_event(tracer, events, dropped=0, clock=None, **tags):
    """Ingest as one stamp and one emit per event: what the bulk
    :meth:`Tracer.ingest` must leave behind."""
    tracer.dropped += int(dropped)
    base = clock.offset_from(tracer.origin) if clock is not None else tracer._ts
    for ev in events:
        args = dict(ev.args) if ev.args else {}
        if tags:
            args.update(tags)
        ts = base + ev.ts
        tracer._stamp(ts, ev.dur)
        tracer._emit(Event(ev.name, ev.category, ev.ph, ts, ev.dur, args or None))
    return len(events)


_times = st.floats(min_value=-1e3, max_value=1e6, allow_nan=False)
_events = st.lists(
    st.builds(
        Event,
        name=st.sampled_from(["attempt", "sync", "charge"]),
        category=st.sampled_from(["profile", "engine"]),
        ph=st.sampled_from(["X", "i", "C"]),
        ts=_times,
        dur=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        args=st.one_of(
            st.none(),
            st.just({}),
            st.dictionaries(st.sampled_from(["depth", "shard"]), st.integers()),
        ),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=10),
    prefill=st.integers(min_value=0, max_value=12),
    batches=st.lists(
        st.tuples(
            _events,
            st.integers(min_value=0, max_value=3),
            st.one_of(st.none(), _times),
            st.dictionaries(st.sampled_from(["shard", "worker"]), st.integers()),
        ),
        max_size=3,
    ),
)
def test_bulk_ingest_equals_per_event_ingest(capacity, prefill, batches):
    bulk, reference = Tracer(capacity), Tracer(capacity)
    reference.origin = bulk.origin
    for tracer in (bulk, reference):
        for k in range(prefill):
            tracer.instant(f"local{k}", "runtime")
    for events, dropped, lead, tags in batches:
        clock = None
        if lead is not None:  # a worker origin ``lead`` seconds ahead
            clock = dataclasses.replace(bulk.origin, perf=bulk.origin.perf + lead)
        count = bulk.ingest(events, dropped=dropped, clock=clock, **tags)
        assert count == _ingest_per_event(
            reference, events, dropped=dropped, clock=clock, **tags
        )
        assert list(bulk.events) == list(reference.events)
        assert bulk._ts == reference._ts
        assert bulk.dropped == reference.dropped
        assert bulk.appended == reference.appended


class TestLaunchWindow:
    def test_since_reads_the_events_after_the_mark(self):
        tracer = Tracer(capacity=4)
        tracer.instant("old", "test")
        mark = tracer.appended
        assert tracer.since(mark) == []
        for name in "abcdef":
            tracer.instant(name, "test")
        # Six appended, four still buffered: the window is the buffer.
        assert [e.name for e in tracer.since(mark)] == list("cdef")
        mark = tracer.appended
        tracer.ingest(list(tracer.events)[:2])
        assert [e.name for e in tracer.since(mark)] == list("cd")


class TestTimestamps:
    def test_tick_clock_is_monotonic(self):
        tracer = Tracer()
        tracer.instant("a", "test")
        tracer.instant("b", "test")
        a, b = tracer.events
        assert b.ts > a.ts

    def test_explicit_ts_advances_clock(self):
        tracer = Tracer()
        tracer.complete("charge", "engine", ts=1000.0, dur=50.0)
        tracer.instant("after", "test")
        charge, after = tracer.events
        assert charge.ts == 1000.0 and charge.dur == 50.0
        assert after.ts >= 1050.0


class TestClockAlignedIngest:
    """The clock-origin handshake: worker timelines align, not re-stamp."""

    def test_origin_offset_is_perf_difference(self):
        a = Tracer()
        b = Tracer()
        assert b.origin.offset_from(a.origin) == pytest.approx(
            b.origin.perf - a.origin.perf
        )

    def test_now_advances_in_real_seconds(self):
        tracer = Tracer()
        first = tracer.now()
        second = tracer.now()
        assert 0.0 <= first <= second

    def test_durations_survive_clock_aligned_ingest(self):
        launch = Tracer()
        worker = Tracer()
        worker.complete("attempt", "profile", ts=0.010, dur=0.005, span_id="s")
        launch.ingest(worker.events, clock=worker.origin)
        (ev,) = launch.events
        assert ev.dur == pytest.approx(0.005)

    def test_relative_timing_survives_clock_aligned_ingest(self):
        launch = Tracer()
        worker = Tracer()
        worker.complete("a", "profile", ts=0.001, dur=0.002)
        worker.complete("b", "profile", ts=0.007, dur=0.001)
        launch.ingest(worker.events, clock=worker.origin, shard=3)
        a, b = launch.events
        offset = worker.origin.offset_from(launch.origin)
        assert a.ts == pytest.approx(0.001 + offset)
        assert b.ts - a.ts == pytest.approx(0.006)
        assert a.args["shard"] == 3

    def test_two_workers_keep_cross_process_order(self):
        launch = Tracer()
        early = Tracer()
        late = Tracer()
        early.complete("x", "profile", ts=0.001, dur=0.001)
        late.complete("y", "profile", ts=0.001, dur=0.001)
        # Ingest in the opposite order they "ran"; alignment must land
        # each span at its true instant regardless of fold order.
        launch.ingest(late.events, clock=late.origin)
        launch.ingest(early.events, clock=early.origin)
        y, x = launch.events
        assert (x.ts <= y.ts) == (
            early.origin.perf + 0.001 <= late.origin.perf + 0.001
        )

    def test_clock_none_keeps_restamp_behavior(self):
        launch = Tracer()
        launch.instant("before", "runtime")
        worker = Tracer()
        worker.complete("a", "profile", ts=0.001, dur=0.002)
        launch.ingest(worker.events, clock=None)
        before, a = launch.events
        assert a.ts >= before.ts
