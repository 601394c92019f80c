"""One call per host fact: each sink alone records exactly its share."""

import pytest

from repro.observe import log as obslog
from repro.observe import metrics as metrics_mod
from repro.observe import current_tracer, tracing
from repro.observe.events import EVENTS, SPANNED, emit
from repro.observe.log import StructuredLogger, read_log


def sample_fields(event):
    """Fields covering every row of ``event``, plus one the table ignores."""
    fields = {"note": "free-form"}
    for row in EVENTS[event]:
        fields.update({label: f"{label}-value" for label in row.labels})
        if row.value is not None:
            fields[row.value] = 3
    return fields


@pytest.fixture
def sinks(tmp_path):
    """Every sink off, pointed at fresh targets; restored afterwards."""
    registry = metrics_mod.MetricsRegistry()
    sink = tmp_path / "events.jsonl"
    previous_registry = metrics_mod.set_default_registry(registry)
    previous_metrics = metrics_mod.set_metrics_enabled(False)
    previous_log = obslog.set_log_enabled(False)
    previous_logger = obslog.set_default_logger(StructuredLogger(sink))
    yield registry, sink
    obslog.set_default_logger(previous_logger)
    obslog.set_log_enabled(previous_log)
    metrics_mod.set_metrics_enabled(previous_metrics)
    metrics_mod.set_default_registry(previous_registry)


EVENT_NAMES = sorted(EVENTS)


def test_all_sinks_off_record_nothing(sinks):
    registry, sink = sinks
    for event in EVENT_NAMES:
        emit(event, **sample_fields(event))
    assert registry.families() == []
    assert not sink.exists()


@pytest.mark.parametrize("event", EVENT_NAMES)
def test_trace_sink_alone(sinks, event):
    registry, sink = sinks
    fields = sample_fields(event)
    with tracing() as tracer:
        emit(event, span_id="batch:0", **fields)
    if event in SPANNED:
        assert list(tracer.events) == []
    else:
        (instant,) = tracer.events
        assert (instant.name, instant.ph) == (event, "i")
        assert instant.category == event.split(".")[0]
        assert instant.args == fields
    assert registry.families() == []
    assert not sink.exists()


@pytest.mark.parametrize("event", EVENT_NAMES)
def test_log_sink_alone(sinks, event):
    registry, sink = sinks
    fields = sample_fields(event)
    obslog.set_log_enabled(True)
    emit(
        event,
        level="warning",
        span_id="batch:0/chunk:1",
        parent_id="batch:0",
        **fields,
    )
    (record,) = read_log(sink)
    assert record["event"] == event
    assert record["level"] == "warning"
    assert (record["span_id"], record["parent_id"]) == ("batch:0/chunk:1", "batch:0")
    assert record["fields"] == fields
    assert registry.families() == []


@pytest.mark.parametrize("event", EVENT_NAMES)
def test_metrics_sink_alone(sinks, event):
    registry, sink = sinks
    fields = sample_fields(event)
    metrics_mod.set_metrics_enabled(True)
    assert current_tracer() is None
    emit(event, **fields)
    rows = EVENTS[event]
    assert registry.families() == sorted({row.family for row in rows})
    for row in rows:
        labels = {label: fields[label] for label in row.labels}
        expected = 1 if row.value is None else fields[row.value]
        assert registry.kind(row.family) == row.kind
        assert registry.value(row.family, **labels) == expected
    assert not sink.exists()


def test_undeclared_event_raises(sinks):
    with pytest.raises(ValueError, match="undeclared telemetry event"):
        emit("runtime.unheard_of", chunks=1)

