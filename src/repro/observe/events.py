"""One call per host fact: :func:`emit` and the event table.

A host fact -- a launch, a retry, a quarantined problem, a dispatch or
calibration decision -- is recorded by one :func:`emit` call, which sends
it to every enabled sink: an instant on the active tracer (category: the
event's prefix), a record in the JSONL log, and the event's rows of
:data:`EVENTS` in the metrics registry.  Field names follow the metric
labels, so a row names the fields it reads.  Device-level events (the
SIMT engine, memory system, kernels, STAP, the sanitizer) have no twin in
another sink and stay on the tracer alone.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

from . import log as _log
from . import metrics as _metrics
from .tracer import current_tracer

__all__ = ["EVENTS", "MetricRow", "SPANNED", "emit"]


class MetricRow(NamedTuple):
    """One metric update an event makes.

    A ``counter`` increases by the ``value`` field (by one when ``value``
    is ``None``); a ``gauge`` is set to it.  ``labels`` names the fields
    copied into the series labels.
    """

    kind: str
    family: str
    value: Optional[str]
    labels: Tuple[str, ...]
    help: str


# Dispatch and calibration families had no help text when their counters
# were written directly, and the exposition is pinned byte for byte.
_DISPATCH = (
    MetricRow("counter", "repro_dispatch_rankings_total", None, ("op", "outcome"), ""),
    MetricRow("counter", "repro_dispatch_winner_total", None, ("op", "approach"), ""),
)

#: Every host fact and its metric rows: (kind, family, value field,
#: label fields, help).  :func:`emit` rejects an event missing here.
EVENTS: Dict[str, Tuple[MetricRow, ...]] = {
    "runtime.plan": (),
    "runtime.launch": (
        MetricRow("counter", "repro_runtime_launches_total", None, ("mode",),
                  "Batch launches by execution mode."),
        MetricRow("gauge", "repro_runtime_workers", "workers", (),
                  "Pool size of the most recent launch."),
        MetricRow("gauge", "repro_runtime_wall_seconds", "wall_s", (),
                  "Wall time of the most recent launch."),
    ),
    "runtime.serial_fallback": (
        MetricRow("counter", "repro_runtime_serial_fallback_total", None, (),
                  "Launches degraded from the pool to in-process."),
    ),
    "runtime.quarantine": (
        MetricRow("counter", "repro_problem_failures_total", "problems",
                  ("op", "reason"),
                  "Problems quarantined for numerical breakdown."),
    ),
    "runtime.trace_dropped": (
        MetricRow("counter", "repro_trace_dropped_total", "dropped", (),
                  "Trace events lost to source ring-buffer overflow."),
    ),
    "checkpoint.record": (),
    "worker.attempt": (),
    "resilience.retry": (
        MetricRow("counter", "repro_chunk_retries_total", None, ("op", "reason"),
                  "Chunk attempts retried, by op and reason."),
    ),
    "resilience.timeout": (
        MetricRow("counter", "repro_chunk_timeouts_total", None, ("op",),
                  "Chunk attempts cancelled at their deadline."),
    ),
    "resilience.inline": (
        MetricRow("counter", "repro_chunk_inline_total", None, ("op",),
                  "Chunks rescued inline after their retries."),
    ),
    "resilience.rebuild": (
        MetricRow("counter", "repro_pool_rebuilds_total", None, ("reason",),
                  "Worker pools torn down and rebuilt."),
    ),
    "resilience.resume": (
        MetricRow("counter", "repro_resume_chunks_skipped_total", "skipped", (),
                  "Chunks restored from a checkpoint journal."),
    ),
    "observe.attribution_error": (
        MetricRow("counter", "repro_attribution_errors_total", None, ("error",),
                  "Launches whose model attribution failed."),
    ),
    "dispatch.winner": _DISPATCH,
    "dispatch.cache_hit": _DISPATCH,
    "calibrate.sweep": (
        MetricRow("counter", "repro_calibrations_total", None, ("device",), ""),
    ),
    "calibrate.cache_hit": (),
    "experiment.cell": (),
    "experiment.sweep": (),
    "alert.firing": (),
    "alert.resolved": (),
}

#: Facts whose trace twin is a profile span rather than an instant: the
#: ``attempt`` span already records every worker attempt.
SPANNED = frozenset({"worker.attempt"})


def emit(
    event: str,
    level: str = "info",
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    **fields: Any,
) -> None:
    """Record one host fact on every enabled sink.

    ``span_id``/``parent_id`` stamp the log record (defaulting from
    :func:`~repro.observe.log.span_context`); the trace instant and the
    log record carry ``fields`` as given.  With every sink off this
    costs a table lookup and three flag checks.
    """
    rows = EVENTS.get(event)
    if rows is None:
        raise ValueError(f"undeclared telemetry event {event!r}; add it to EVENTS")
    tracer = current_tracer()
    if tracer is not None and event not in SPANNED:
        tracer.instant(event, event.partition(".")[0], **fields)
    if _log.log_enabled():
        _log.default_logger().log(
            event, level=level, span_id=span_id, parent_id=parent_id, **fields
        )
    if rows and _metrics.metrics_enabled():
        registry = _metrics.default_registry()
        for row in rows:
            labels = {name: fields[name] for name in row.labels}
            value = 1 if row.value is None else fields[row.value]
            if row.kind == "counter":
                registry.inc(row.family, value, help=row.help, **labels)
            else:
                registry.set(row.family, value, help=row.help, **labels)
