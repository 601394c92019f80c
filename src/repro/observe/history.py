"""Run-history store (JSONL) and the gauge view that alert rules read.

Every sharded launch appends one line to ``~/.cache/repro/history.jsonl``
(same root as the calibration/dispatch caches, ``REPRO_CACHE_DIR`` to
override): the :meth:`~repro.runtime.merge.BatchReport.summary` payload,
the per-group regime classification, and the per-term attribution
residuals.  Appends are version-stamped single ``write(2)`` calls with an
fsync, so concurrent runs interleave whole lines and a killed process
never leaves a torn record; readers skip lines that fail to parse or
carry a different schema stamp.

:func:`record_gauges` flattens a record into dotted gauge names and
:func:`gauge_direction` says which way each one is better.  The
:mod:`repro.observe.alerts` ``delta`` rules judge drift over these
gauges (the latest run against the median of its trailing window), and
the matrix gate of :mod:`repro.experiments.gate` uses the same
directions.  The simulated engine is deterministic, so sustained
movement in these gauges means the code changed, the calibration
changed, or the model stopped explaining the measurement.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .export import append_record, atomic_write_text, jsonable, read_records

__all__ = [
    "DEFAULT_MAX_BYTES",
    "HISTORY_SCHEMA",
    "RunHistory",
    "default_history_path",
    "gauge_direction",
    "record_gauges",
    "run_record",
]

#: Bump when the record layout changes; mismatched lines are skipped.
HISTORY_SCHEMA = 1

#: Size cap that triggers automatic compaction after an append.  16 MiB
#: of ~1 KiB records is years of launches; the cap exists so a pinned
#: cache directory on a long-lived host cannot grow without bound.
DEFAULT_MAX_BYTES = 16 << 20

#: Substrings marking a gauge as lower-is-better; everything else is
#: higher-is-better (throughput-like).  Drift rules and the matrix gate
#: both classify through :func:`gauge_direction`.
_LOWER_IS_BETTER = (
    "wall",
    "wait",
    "residual",
    "err",
    "miss",
    "stale",
    "dropped",
    "fallback",
    "nonfinite",
    "failure",
    "retr",
    "timeout",
    "corrupt",
    # Profiler gauges: queued share, straggler spread, and every phase of
    # the latency decomposition ("phases." prefix) shrink when healthy.
    "queue",
    "straggler",
    "phases.",
    # Simulated cycle counts (the attribution totals and each regime's
    # measured cycles): the same work in fewer cycles is faster.
    "cycles",
    "measured_total",
    "eq_total",
)


def default_history_path() -> Path:
    """``history.jsonl`` under the persistent cache root."""
    from ..runtime.cache import cache_dir

    return cache_dir() / "history.jsonl"


class RunHistory:
    """Append-only JSONL store of per-launch telemetry records.

    ``max_records`` is the retention target compaction trims to;
    ``max_bytes`` is the size cap that *triggers* an automatic
    :meth:`compact` after an append (checked with one ``fstat`` on the
    already-open descriptor, so the common append stays one write + one
    fsync).  With ``max_records`` unset, rotation keeps the newest half
    of the valid records.  ``max_bytes=None`` disables rotation.
    """

    def __init__(
        self,
        path: Optional[Path | str] = None,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
    ) -> None:
        self.path = Path(path) if path else default_history_path()
        self.max_records = max_records
        self.max_bytes = max_bytes

    def append(self, record: dict) -> Path:
        """Stamp and append ``record`` as one JSONL line; returns the path.

        The line is one fsynced ``write(2)`` on an ``O_APPEND``
        descriptor (:func:`~repro.observe.export.append_record`), so
        parallel writers cannot interleave partial lines.
        """
        doc = {"schema": HISTORY_SCHEMA, "ts": time.time()}
        doc.update(jsonable(record))
        size = append_record(self.path, doc, durable=True)
        if self.max_bytes is not None and size > self.max_bytes:
            keep = self.max_records
            if keep is None:
                keep = max(1, len(self.load()) // 2)
            self.compact(keep)
        return self.path

    def compact(self, max_records: Optional[int] = None) -> int:
        """Rewrite the store keeping the newest ``max_records`` records.

        Kept records are written back as they were appended (schema stamp
        and all), so a compacted store loads identically to one that was
        never larger; torn/corrupt/foreign lines are dropped along the
        way.  The rewrite is atomic (tmp file + fsync + ``os.replace``)
        and counted in ``repro_history_compactions_total``.  Returns the
        number of lines dropped; the store is untouched when nothing
        would be.

        Rotation is a single-writer affair: a line appended by a
        concurrent process between the read and the replace would be
        lost, the standard logrotate caveat.
        """
        if max_records is None:
            max_records = self.max_records
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be non-negative")
        try:
            text = self.path.read_text()
        except OSError:
            return 0
        kept = self.load()
        if max_records is not None:
            kept = kept[-max_records:] if max_records else []
        dropped = sum(1 for line in text.splitlines() if line.strip()) - len(kept)
        if dropped <= 0:
            return 0
        from . import metrics as _metrics

        body = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in kept)
        atomic_write_text(self.path, body)
        _metrics.counter_inc(
            "repro_history_compactions_total",
            help="Run-history rewrites that dropped old/corrupt lines.",
        )
        return dropped

    def load(self, limit: Optional[int] = None) -> List[dict]:
        """All valid records, oldest first (last ``limit`` when given).

        Torn, corrupt, or schema-mismatched lines are skipped rather
        than raised: a history file must survive version upgrades and
        interrupted writers.
        """
        records = [
            doc
            for doc in read_records(self.path)
            if doc.get("schema") == HISTORY_SCHEMA
        ]
        if limit is not None:
            records = records[-limit:]
        return records

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunHistory({self.path})"


def run_record(
    summary: dict,
    regimes: Optional[Sequence] = None,
    attribution: Optional[Sequence[dict]] = None,
    **meta,
) -> dict:
    """Build one history record from a launch's artifacts.

    ``summary`` is :meth:`BatchReport.summary`; ``regimes`` is a sequence
    of :class:`~repro.observe.regime.RegimeClassification`; ``attribution``
    holds per-group residual summaries.  ``meta`` adds identity fields
    (device name, git rev...).
    """
    record: dict = dict(meta)
    record["summary"] = summary
    if regimes:
        record["regimes"] = [
            r.to_dict() if hasattr(r, "to_dict") else dict(r) for r in regimes
        ]
    if attribution:
        record["attribution"] = list(attribution)
    return record


def record_gauges(record: dict) -> Dict[str, float]:
    """Flatten a record's finite numeric leaves into dotted gauge names.

    List items keyed by an identifying field (``op``, ``regime``,
    ``term``, ``label``) use it instead of their position, so gauges stay
    comparable across runs whose group order differs.  ``ts`` and
    ``schema`` are bookkeeping, not gauges.
    """
    gauges: Dict[str, float] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            if math.isfinite(value):
                gauges[prefix] = float(value)
            return
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
            return
        if isinstance(value, list):
            for index, item in enumerate(value):
                key = str(index)
                if isinstance(item, dict):
                    for id_field in ("op", "regime", "term", "label"):
                        if isinstance(item.get(id_field), str):
                            key = item[id_field]
                            break
                walk(f"{prefix}.{key}" if prefix else key, item)

    walk("", record)
    gauges.pop("ts", None)
    gauges.pop("schema", None)
    return gauges


def gauge_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` -- which way is *better* for ``name``."""
    lowered = name.lower()
    if any(token in lowered for token in _LOWER_IS_BETTER):
        return "lower"
    return "higher"
