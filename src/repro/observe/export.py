"""Exporters: Chrome ``trace_event`` JSON and flat metrics dumps.

Two consumers, two formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` -- the tracer's ring
  buffer as a Chrome ``trace_event`` document.  Open it at
  ``chrome://tracing`` or https://ui.perfetto.dev to scrub through a
  launch's phases and charges on a timeline.  Timestamps are simulated
  cycles/ticks rendered as trace microseconds.
* :func:`metrics_record` / :func:`write_metrics` -- a flat JSON record
  per run, appended to a JSON-array file.  The ``benchmarks/`` harness
  uses this (``--json PATH``) to accumulate a ``BENCH_*.json`` perf
  trajectory across commits.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Optional

from .tracer import Tracer

__all__ = [
    "atomic_write_text",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_record",
    "write_metrics",
    "read_metrics",
]


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write ``text`` to ``path`` via write-temp-then-rename.

    The payload is flushed and fsynced to a sibling temporary file which
    is then :func:`os.replace`-d over the destination, so a reader (or a
    killed CI job) only ever sees the old complete file or the new
    complete file -- never a truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def _jsonable(value: Any) -> Any:
    """Coerce NumPy scalars/arrays into JSON-safe values.

    Non-finite floats become ``None``: ``json.dumps`` would happily emit
    ``NaN``/``Infinity``/``-Infinity``, which strict JSON parsers (and
    the golden-file tests) reject.
    """
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
#: Profile spans are recorded in seconds; Chrome traces tick in
#: microseconds.  Exporters multiply by this, parsers divide.
PROFILE_TS_SCALE = 1e6


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> dict:
    """The tracer's events as a Chrome ``trace_event`` JSON object.

    Profile-category spans land on a thread lane per worker pid (their
    ``worker`` arg), so a sharded launch renders as one swimlane per
    process; everything else stays on lane 0.  Chunk journeys get flow
    arrows (``ph`` ``s``/``t``/``f``) linking submit -> worker attempt ->
    completion; see :func:`repro.observe.profile.flow_events`.
    """
    from .profile import PROFILE_CATEGORY, flow_events

    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    lanes: set[int] = set()
    for ev in tracer.events:
        profiled = ev.category == PROFILE_CATEGORY
        tid = 0
        if profiled and ev.args:
            try:
                tid = int(ev.args.get("worker", 0))
            except (TypeError, ValueError):
                tid = 0
        lanes.add(tid)
        # Profile spans are stamped in real seconds; Chrome's unit is the
        # microsecond, so scaling by 1e6 renders them at true duration.
        # Engine events keep their cycles-as-microseconds convention.
        scale = PROFILE_TS_SCALE if profiled else 1.0
        entry: dict = {
            "name": ev.name,
            "cat": ev.category,
            "ph": ev.ph,
            "ts": float(ev.ts) * scale,
            "pid": 0,
            "tid": tid,
        }
        if ev.ph == "X":
            entry["dur"] = float(ev.dur) * scale
        if ev.ph == "i":
            entry["s"] = "t"  # instant scope: thread
        if ev.args:
            entry["args"] = _jsonable(ev.args)
        events.append(entry)
    for tid in sorted(lanes):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": "launch" if tid == 0 else f"worker {tid}"},
            }
        )
    for arrow in flow_events(tracer.events):
        arrow["ts"] = arrow["ts"] * PROFILE_TS_SCALE
        events.append(arrow)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated cycles (1 trace us = 1 cycle/tick)",
            "dropped_events": tracer.dropped,
            "counters": _jsonable(tracer.counters.as_dict()),
        },
    }


def write_chrome_trace(
    tracer: Tracer, path: Path | str, process_name: str = "repro"
) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    return atomic_write_text(
        path, json.dumps(chrome_trace(tracer, process_name)) + "\n"
    )


# ----------------------------------------------------------------------
# Flat metrics records
# ----------------------------------------------------------------------
def metrics_record(
    name: str,
    metrics: dict,
    tracer: Optional[Tracer] = None,
    **meta: Any,
) -> dict:
    """One flat, JSON-safe metrics record.

    ``metrics`` is the payload proper (series, scalars, nested dicts all
    fine); ``meta`` adds identifying fields (git rev, size, batch...).
    Passing the active tracer folds its counter totals in.
    """
    record: dict = {"name": str(name)}
    record.update(_jsonable(meta))
    record["metrics"] = _jsonable(metrics)
    if tracer is not None:
        record["counters"] = _jsonable(tracer.counters.as_dict())
        record["dropped_events"] = tracer.dropped
    return record


def read_metrics(path: Path | str) -> list[dict]:
    """All records accumulated at ``path`` (empty list if absent)."""
    path = Path(path)
    if not path.exists():
        return []
    loaded = json.loads(path.read_text())
    if not isinstance(loaded, list):
        raise ValueError(f"{path} does not hold a JSON array of records")
    return loaded


def write_metrics(path: Path | str, record: dict) -> Path:
    """Append ``record`` to the JSON-array file at ``path``.

    The read-append-rewrite is atomic (write-temp-then-rename with an
    fsync): a CI job killed mid-append leaves the previous complete file
    behind, never a truncated JSON document.
    """
    path = Path(path)
    records = read_metrics(path)
    records.append(_jsonable(record))
    return atomic_write_text(
        path, json.dumps(records, indent=2, sort_keys=True) + "\n"
    )
