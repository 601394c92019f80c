"""Zero-dependency structured logging with trace-span correlation.

Every record is one JSONL line with a stable schema::

    {"schema": 1, "ts": ..., "pid": ..., "level": "info",
     "event": "runtime.launch", "span_id": "batch:0", "parent_id": null,
     "fields": {"chunks": 4, "mode": "process", ...}}

Logging is **off by default** and gated the same way as the metrics and
trace layers: instrumented call-sites go through
:func:`repro.observe.events.emit`, which costs a single flag check here
when disabled.  The ``REPRO_LOG`` environment variable turns it on (see
:func:`env_switch`): ``1``/``true``/``yes``/``on`` write to
``<cache dir>/events.jsonl``, and any other non-empty value that is not
an off word is taken as the sink path.  Each chunk of a sharded launch
carries the launch's sink to its worker, so the workers append to the
same sink; lines are single ``os.write`` calls on an ``O_APPEND``
descriptor, so concurrent writers interleave whole records and a killed
process never leaves a torn line (the same contract as
:class:`~repro.observe.history.RunHistory`, through the same
:func:`~repro.observe.export.append_record`, minus the fsync: the log
is telemetry, not a record a resume depends on).

The correlation story: the PR 6 profiler stamps every batch launch with
deterministic span ids (``batch:N``, ``batch:N/chunk:i``, ...).  The
runtime pushes the active scope onto a thread-local **span-context
stack** (:func:`span_context`), and every record logged underneath
defaults its ``span_id``/``parent_id`` from the stack top -- so an alert,
a log line, and a flamegraph span all join on the same id.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

from contextlib import contextmanager

from .export import append_record, jsonable, read_records

__all__ = [
    "LOG_SCHEMA",
    "LEVELS",
    "StructuredLogger",
    "current_span",
    "default_log_path",
    "default_logger",
    "env_switch",
    "log_enabled",
    "read_log",
    "set_default_logger",
    "set_log_enabled",
    "span_context",
]

#: Bump when the record layout changes; readers skip mismatched lines.
LOG_SCHEMA = 1

#: Severity ladder, least to most urgent.
LEVELS = ("debug", "info", "warning", "error")

_FALSEY = {"0", "false", "no", "off"}
_TRUTHY = {"1", "true", "yes", "on"}


def env_switch(name: str, default: bool) -> bool:
    """The on/off value of environment variable ``name``.

    The one parser behind ``REPRO_LOG``, ``REPRO_METRICS``,
    ``REPRO_PROFILE`` and ``REPRO_SANITIZE``: surrounding whitespace and
    case are ignored, ``1``/``true``/``yes``/``on`` mean on and
    ``0``/``false``/``no``/``off`` mean off.  An unset, empty or
    unrecognized value keeps ``default``.
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in _TRUTHY:
        return True
    if raw in _FALSEY:
        return False
    return default


def default_log_path() -> Path:
    """``events.jsonl`` under the persistent cache root."""
    from ..runtime.cache import cache_dir

    return cache_dir() / "events.jsonl"


def _env_enabled() -> bool:
    """Whether ``REPRO_LOG`` asks for logging: an on word or a path."""
    path = os.environ.get("REPRO_LOG", "").strip()
    return env_switch("REPRO_LOG", default=bool(path))


def _env_sink() -> Optional[Path]:
    """The sink ``REPRO_LOG`` asks for, or ``None`` when disabled."""
    if not _env_enabled():
        return None
    raw = os.environ["REPRO_LOG"].strip()
    return default_log_path() if raw.lower() in _TRUTHY else Path(raw)


class StructuredLogger:
    """Append-only JSONL sink of schema-stamped structured records."""

    def __init__(self, path: Optional[Path | str] = None) -> None:
        self.path = Path(path) if path else default_log_path()
        self._lock = threading.Lock()

    def log(
        self,
        event: str,
        level: str = "info",
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Append one record; span ids default from :func:`span_context`.

        Sink failures (read-only disk, deleted directory) are swallowed:
        logging is telemetry and must never fail the instrumented path.
        """
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; one of {LEVELS}")
        if span_id is None:
            span_id, ctx_parent = current_span()
            if parent_id is None:
                parent_id = ctx_parent
        record = {
            "schema": LOG_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "level": level,
            "event": str(event),
            "span_id": span_id,
            "parent_id": parent_id,
            "fields": jsonable(fields),
        }
        try:
            with self._lock:
                append_record(self.path, record, durable=False)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StructuredLogger({self.path})"


def read_log(path: Path | str) -> List[dict]:
    """All valid records at ``path``, oldest first.

    Torn, corrupt, or schema-mismatched lines are skipped, mirroring
    :meth:`RunHistory.load`: a sink shared by concurrent writers must
    read back cleanly even after a mid-line kill.
    """
    return [doc for doc in read_records(path) if doc.get("schema") == LOG_SCHEMA]


# ----------------------------------------------------------------------
# Thread-local span-context stack
# ----------------------------------------------------------------------
_tls = threading.local()


def current_span() -> Tuple[Optional[str], Optional[str]]:
    """``(span_id, parent_id)`` of the innermost active context."""
    stack = getattr(_tls, "spans", None)
    if not stack:
        return None, None
    return stack[-1]


@contextmanager
def span_context(
    span_id: str, parent_id: Optional[str] = None
) -> Iterator[None]:
    """Stamp records logged in the body with ``span_id``.

    Contexts nest: an inner context's ``parent_id`` defaults to the
    enclosing context's span, mirroring the profiler's span tree.
    """
    stack = getattr(_tls, "spans", None)
    if stack is None:
        stack = _tls.spans = []
    if parent_id is None and stack:
        parent_id = stack[-1][0]
    stack.append((span_id, parent_id))
    try:
        yield
    finally:
        stack.pop()


# ----------------------------------------------------------------------
# Process-wide gate + default sink (REPRO_LOG)
# ----------------------------------------------------------------------
# Only the flag is read at import: the sink path resolves through
# ``runtime.cache``, which imports this module, so it waits for a write.
_enabled: bool = _env_enabled()
_default: Optional[StructuredLogger] = None


def log_enabled() -> bool:
    """Whether :func:`~repro.observe.events.emit` logs anything right now."""
    return _enabled


def set_log_enabled(flag: bool) -> bool:
    """Flip the gate (overriding ``REPRO_LOG``); returns the previous."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def default_logger() -> StructuredLogger:
    """The process-wide sink, created on first use from ``REPRO_LOG``."""
    global _default
    if _default is None:
        _default = StructuredLogger(_env_sink() or default_log_path())
    return _default


def set_default_logger(
    logger: Optional[StructuredLogger],
) -> Optional[StructuredLogger]:
    """Swap the process-wide sink; returns the previous one."""
    global _default
    previous = _default
    _default = logger
    return previous

