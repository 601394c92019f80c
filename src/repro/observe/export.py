"""The file layer: record files, atomic documents, spec files, exporters.

One module owns how the system's files are written and read back:

* :func:`append_record` / :func:`read_records` -- JSONL record files
  (the run history, the structured event log, the sweep journal).  An
  append is one ``write(2)`` on an ``O_APPEND`` descriptor, so
  concurrent writers interleave whole lines; the reader skips blank and
  torn lines, so every whole record reads back.
* :func:`atomic_write_text` -- whole documents (text or bytes) via
  write-temp-fsync-rename, so a reader sees the old file or the new
  one, never a truncated one.
* :func:`load_document` / :func:`require_keys` -- ``.toml``/``.json``
  spec documents, failing in the caller's error class.
* :func:`jsonable` -- the one clamp of a value to strict JSON.

Two exporters write through it:

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
from typing import Any, Mapping, Optional

from .tracer import Tracer

__all__ = [
    "append_record",
    "atomic_write_text",
    "chrome_trace",
    "jsonable",
    "load_document",
    "metrics_record",
    "read_metrics",
    "read_records",
    "require_keys",
    "write_chrome_trace",
    "write_metrics",
]


def atomic_write_text(path: Path | str, text: str | bytes) -> Path:
    """Write ``text`` to ``path`` via write-temp-then-rename.

    The payload (``str`` or ``bytes``) is flushed and fsynced to a
    sibling temporary file which is then :func:`os.replace`-d over the
    destination, so a reader (or a killed CI job) only ever sees the old
    complete file or the new complete file -- never a truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if isinstance(text, bytes) else "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def append_record(path: Path, doc: dict, *, durable: bool) -> int:
    """Append ``doc`` to ``path`` as one JSONL line; returns the new size.

    The line goes out in one ``os.write`` on an ``O_APPEND`` descriptor,
    so concurrent writers interleave whole lines.  ``durable`` fsyncs it
    before returning (the run history and the sweep journal must survive
    a crash; the event log need not).  The parent directory is made only
    when the open finds it missing.
    """
    line = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        if os.write(fd, line) != len(line):  # a full disk cuts a write short
            raise OSError(f"short write of a record to {path}")
        if durable:
            os.fsync(fd)
        return os.fstat(fd).st_size
    finally:
        os.close(fd)


def read_records(path: Path | str) -> list[dict]:
    """Every whole JSON-object line of ``path``, oldest first.

    Blank lines, lines torn by a writer killed mid-record and lines that
    are not JSON objects are skipped, so the records after a bad line
    still read back; a missing file reads as empty.  Callers apply their
    own schema or fingerprint filter.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return []
    records = []
    for line in text.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            records.append(doc)
    return records


def load_document(path: Path, error: type[Exception]) -> Any:
    """The parsed ``.toml`` or ``.json`` spec document at ``path``.

    An unreadable file, a parse error or another suffix raises
    ``error``, the caller's spec-error class.  TOML needs Python 3.11+
    (stdlib ``tomllib``); JSON specs work everywhere and carry the
    identical structure.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise error(f"cannot read spec {path}: {exc}") from exc
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python 3.10
            raise error(
                f"{path}: TOML specs need Python 3.11+ (stdlib tomllib); "
                "use the JSON form on older interpreters"
            ) from exc
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise error(f"{path}: invalid TOML: {exc}") from exc
    if path.suffix == ".json":
        try:
            return json.loads(text)
        except ValueError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc
    raise error(f"{path}: spec must be .toml or .json")


def require_keys(
    mapping: Mapping, allowed: set, where: str, error: type[Exception]
) -> None:
    """Raise ``error`` naming any key of ``mapping`` outside ``allowed``."""
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise error(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def jsonable(value: Any) -> Any:
    """Clamp ``value`` to what strict JSON holds.

    Dicts get string keys, tuples become lists, NumPy scalars and
    arrays become Python values, and any other object becomes its
    ``str``.  Non-finite floats become ``None``: ``json.dumps`` would
    happily emit ``NaN``/``Infinity``/``-Infinity``, which strict JSON
    parsers (and the golden-file tests) reject.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    import numpy as np

    if isinstance(value, (np.generic, np.ndarray)):
        return jsonable(value.tolist())
    return str(value)


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
            entry["args"] = jsonable(ev.args)
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
            "counters": jsonable(tracer.counters.as_dict()),
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
    record.update(jsonable(meta))
    record["metrics"] = jsonable(metrics)
    if tracer is not None:
        record["counters"] = jsonable(tracer.counters.as_dict())
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
    records.append(jsonable(record))
    return atomic_write_text(
        path, json.dumps(records, indent=2, sort_keys=True) + "\n"
    )
