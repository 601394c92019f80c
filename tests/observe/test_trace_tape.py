"""Trace tapes: a traced device launch replays its recorded tape, and the
tracer ends exactly where stepping the cost program would leave it.

The reference is the same launch under ``block_engine_factory(BlockEngine)``,
which bypasses the memo and steps straight into the live tracer.
"""

import dataclasses
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import BlockEngine
from repro.kernels.device import KERNELS, base
from repro.kernels.device.base import block_engine_factory, launch
from repro.observe import CounterRegistry, Tracer, instant, record_tape, tracing
from repro.observe.counters import RecordingRegistry

PER_BLOCK = [info for info in KERNELS if info.family == "per_block"]
DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
#: empty; prior events and non-integer totals on engine counter names; an
#: open user stage; an open stage named like an engine phase; a ring
#: buffer smaller than the launch; two launches into one tracer.
STATES = ["empty", "prior", "user", "phase", "small", "twice"]
#: The memo before the traced launch: empty, filled by an untraced
#: (folded) launch, or holding a tape recorded under another tracer.
MEMOS = ["cold", "folded", "taped"]


def _launch_view(launch_result):
    view = {}
    for field in dataclasses.fields(launch_result):
        value = getattr(launch_result, field.name)
        if isinstance(value, CounterRegistry):
            value = (list(value._stats), value.snapshot(), value.stages())
        view[field.name] = repr(value)
    return view


def _view(tracer, launches):
    counters = tracer.counters
    return {
        "events": [repr(event) for event in tracer.events],
        "ts": repr(tracer._ts),
        "dropped": tracer.dropped,
        "snapshot": counters.snapshot(),
        "order": list(counters._stats),
        "stage_order": list(counters._by_stage),
        "stages": {
            stage: [
                (name, repr(stat.total), stat.count, repr(stat.maximum))
                for name, stat in stats.items()
            ]
            for stage, stats in counters._by_stage.items()
        },
        "launches": [_launch_view(result) for result in launches],
    }


def _traced(state, call, capacity):
    """``call``'s launches into a tracer prepared as ``state``."""
    tracer = Tracer(capacity)
    if state in ("prior", "small"):
        tracer.instant("before")
        tracer.complete("earlier", "engine", ts=12.5, dur=3.25)
        for name, value in (
            ("sync.count", 0.1),
            ("flops.groups", 1 / 3),
            ("global.bytes", 0.7),
            ("overhead.events", 2.5),
        ):
            tracer.counters.add(name, value)
    with tracing(tracer), ExitStack() as stack:
        if state in ("user", "phase"):
            stack.enter_context(tracer.span("user" if state == "user" else "load"))
            tracer.counters.add("sync.count", 0.25)
        launches = [call() for _ in range(2 if state == "twice" else 1)]
    return _view(tracer, launches)


def _replayed_equals_stepped(call, state, memo_state, fraction):
    """Compare the memoized traced launch with the stepped reference."""

    def stepped():
        with block_engine_factory(BlockEngine):
            return call()

    capacity = 1 << 16
    if state == "small":
        size = len(_traced("empty", stepped, capacity)["events"])
        capacity = max(1, int(size * fraction))
    reference = _traced(state, stepped, capacity)
    with mock.patch.object(base, "_LAUNCHES", {}) as memo:
        if memo_state == "folded":
            call()
        elif memo_state == "taped":
            with tracing():
                call()
        replayed = _traced(state, call, capacity)
        assert len(memo) == 1 and next(iter(memo.values())).tape is not None
    for part in reference:
        assert replayed[part] == reference[part], part


@pytest.mark.parametrize("info", PER_BLOCK, ids=lambda info: info.name)
@given(
    n=st.integers(1, 24),
    dtype=st.sampled_from(DTYPES),
    fast_math=st.booleans(),
    state=st.sampled_from(STATES),
    memo_state=st.sampled_from(MEMOS),
    fraction=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=12, deadline=None)
def test_kernel_launch_replays_as_it_steps(
    info, n, dtype, fast_math, state, memo_state, fraction
):
    a, b = info.sample(n, n, 1)
    a = a.astype(dtype)
    b = None if b is None else b.astype(dtype)

    def call():
        return info.call(a, b, fast_math=fast_math).launch

    _replayed_equals_stepped(call, state, memo_state, fraction)


def _scripted(kernel, script):
    """A cost program that charges ``script``, in and out of phases."""
    engine, phases = kernel.engine, []
    for kind, *args in script:
        if kind == "flops":
            engine.charge_flops(args[0] / 8)
        elif kind == "shared":
            words, degree, writes = args
            engine.charge_shared(words, degree=degree, writes=writes)
        elif kind == "div":
            engine.charge_div(*args)
        elif kind == "sqrt":
            engine.charge_sqrt(*args)
        elif kind == "sync":
            engine.sync()
        elif kind == "global":
            engine.charge_global(*args)
        elif kind == "measure":
            engine.charge_measurement()
        elif kind == "enter":
            phases.append(engine.phase(*args))
            phases[-1].__enter__()
        elif phases:
            phases.pop().__exit__(None, None, None)
    while phases:
        phases.pop().__exit__(None, None, None)


_CHARGE = st.one_of(
    st.tuples(st.just("flops"), st.integers(0, 400)),
    st.tuples(st.just("shared"), st.integers(0, 64), st.integers(1, 4), st.booleans()),
    st.tuples(st.just("div"), st.integers(0, 3)),
    st.tuples(st.just("sqrt"), st.integers(0, 3)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("global"), st.integers(0, 1 << 16)),
    st.tuples(st.just("measure")),
    st.tuples(st.just("enter"), st.sampled_from(["load", "user", "panel0:op"])),
    st.tuples(st.just("exit")),
)


@given(
    script=st.lists(_CHARGE, max_size=40).map(tuple),
    dtype=st.sampled_from(DTYPES),
    state=st.sampled_from(STATES),
    memo_state=st.sampled_from(MEMOS),
    fraction=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=80, deadline=None)
def test_scripted_launch_replays_as_it_steps(
    script, dtype, state, memo_state, fraction
):
    """Charges outside any phase credit the tracer's open stage; a stage
    named like a phase takes both runs of adds in charge order."""
    output = np.zeros((1, 4, 4), dtype=dtype)

    def call():
        return launch(
            _scripted, 4, 4, dtype, output, flops_per_problem=1.0, script=script
        ).launch

    _replayed_equals_stepped(call, state, memo_state, fraction)


class TestRecorder:
    def test_tape_records_a_run_and_leaves_the_active_tracer_alone(self):
        with tracing() as live:
            result, tape = record_tape(lambda: instant("inside") or 7)
        assert result == 7
        assert not live.events
        fresh = Tracer()
        tape.replay(fresh)
        assert [event.name for event in fresh.events] == ["inside"]

    @pytest.mark.parametrize(
        "entry",
        [
            lambda tracer: tracer.span("s"),
            lambda tracer: tracer.counter("c", 1.0),
            lambda tracer: tracer.ingest([]),
            lambda tracer: tracer.counters.observe("c", [1.0]),
            lambda tracer: tracer.counters.add_aggregate("c", 1.0),
            lambda tracer: tracer.counters.merge(CounterRegistry()),
        ],
        ids=["span", "counter", "ingest", "observe", "add_aggregate", "merge"],
    )
    def test_unrecorded_entry_points_raise(self, entry):
        from repro.observe import current_tracer

        with pytest.raises(TypeError, match="record"):
            record_tape(lambda: entry(current_tracer()))

    def test_recording_registry_keeps_each_add_with_its_stage(self):
        registry = RecordingRegistry()
        registry.add("a", 2)
        with registry.stage("s"):
            registry.add("b")
        assert registry.adds == [(None, "a", 2), ("s", "b", 1.0)]
        assert len(registry) == 0
