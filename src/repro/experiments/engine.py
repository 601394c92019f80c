"""Sweep execution: journaled cell runs, canonical artifacts, history.

:func:`run_spec` is the engine's single entry point.  It expands the
spec into its deterministic cell plan, executes every cell through the
measurement backends, and leaves three artifacts behind:

``matrix.json``
    The canonical per-cell gauge matrix.  Only deterministic fields go
    in (the simulated engine is reproducible), the document is dumped
    with sorted keys, and a resumed sweep reproduces it byte-for-byte --
    so the file diffs cleanly across machines, reruns, and kills.

``run.json``
    The non-deterministic sidecar: wall-clock per cell, totals, resume
    bookkeeping, and per-cell budget overruns.

``cells.jsonl``
    The in-flight journal.  Every finished cell is appended (one fsynced
    line) before the next starts; a sweep killed mid-flight resumes by
    replaying the journal -- completed cells are never re-executed --
    provided the plan fingerprint still matches.  The journal is removed
    once the matrix is written.

One aggregate sweep record lands in the
:class:`~repro.observe.history.RunHistory` store (when a history
destination is given), labeled per cell so a ``delta`` alert rule
(the default SLO spec's ``drift``) compares each sweep's gauges with
the prior sweeps'.  Per-cell runtime launches deliberately do not log
their own records: successive sweeps stay directly comparable.

Testing hook: ``REPRO_EXPERIMENTS_KILL_AFTER=<n>`` SIGKILLs the process
after ``n`` cells have been journaled -- the resume tests use it to
prove bitwise-identical recovery without racing a timer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from pathlib import Path
from typing import Callable, List, Optional

from ..observe.export import append_record, atomic_write_text, read_records
from ..observe.history import RunHistory
from ..observe.events import emit
from .gate import MATRIX_SCHEMA
from .runner import CellRecord, SweepContext, run_cell
from .spec import Cell, ExperimentSpec, expand_cells, plan_fingerprint

__all__ = ["SweepResult", "journal_path", "run_spec"]

_KILL_ENV = "REPRO_EXPERIMENTS_KILL_AFTER"


@dataclasses.dataclass
class SweepResult:
    """Everything one :func:`run_spec` call produced."""

    spec: ExperimentSpec
    cells: List[Cell]
    records: List[CellRecord]
    #: Product combinations dropped by the fault-plan/approach rule.
    pruned: int
    #: Content hash of the expanded plan (journal/resume key).
    fingerprint: str
    #: The canonical matrix document (what ``matrix.json`` holds).
    matrix: dict
    matrix_path: Optional[Path]
    run_path: Optional[Path]
    wall_s: float
    #: Cells restored from the journal instead of re-executed.
    resumed: int
    #: Cell ids whose min wall exceeded their policy budget.
    budget_overruns: List[str]

    @property
    def counts(self) -> dict:
        by_status: dict = {}
        for record in self.records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        return by_status

    @property
    def ok(self) -> bool:
        return self.counts.get("failed", 0) == 0


def journal_path(out_dir: Path) -> Path:
    return Path(out_dir) / "cells.jsonl"


def _read_journal(path: Path, fingerprint: str) -> dict:
    """id -> journaled line for the matching plan; torn lines tolerated.

    A fingerprint mismatch (edited spec, different seed) discards the
    whole journal -- stale cells must never leak into a fresh plan.
    """
    restored: dict = {}
    for doc in read_records(path):
        if doc.get("fingerprint") != fingerprint:
            return {}
        record = doc.get("record")
        if isinstance(record, dict) and "id" in record:
            restored[record["id"]] = doc
    return restored


def _restored_record(cell: Cell, doc: dict) -> CellRecord:
    stored = doc["record"]
    return CellRecord(
        cell=cell,
        status=stored.get("status", "failed"),
        gauges=dict(stored.get("gauges", {})),
        note=stored.get("note", ""),
        wall_s=float(doc.get("wall_s", 0.0)),
    )


def _matrix_doc(
    spec: ExperimentSpec, fingerprint: str, pruned: int, records: List[CellRecord]
) -> dict:
    return {
        "schema": MATRIX_SCHEMA,
        "kind": "experiment-matrix",
        "experiment": spec.name,
        "title": spec.title,
        "seed": spec.seed,
        "fingerprint": fingerprint,
        "axes": {axis: list(values) for axis, values in spec.axes.items()},
        "pruned": pruned,
        "cells": [record.to_dict() for record in records],
    }


def _history_record(
    spec: ExperimentSpec,
    fingerprint: str,
    records: List[CellRecord],
    wall_s: float,
    workers: Optional[int],
) -> dict:
    """Sweep record shaped so the report dashboard and drift gauges work.

    ``cells`` entries carry a ``label`` (the cell id) so
    :func:`~repro.observe.history.record_gauges` flattens them into
    stable dotted names; ``summary.groups`` aggregates per op the way
    :meth:`~repro.runtime.merge.BatchReport.summary` does, so the
    "Recent runs" table renders sweeps alongside runtime launches.
    """
    ok = [r for r in records if r.status == "ok"]
    per_op: dict = {}
    for record in ok:
        entry = per_op.setdefault(
            record.cell.op, {"problems": 0, "chunks": 0, "gflops": []}
        )
        entry["problems"] += record.cell.policy.batch
        entry["chunks"] += int(record.gauges.get("chunks", 1))
        if "measured_gflops" in record.gauges:
            entry["gflops"].append(record.gauges["measured_gflops"])
    groups = [
        {
            "op": op,
            "problems": entry["problems"],
            "chunks": entry["chunks"],
            "gflops": (
                sum(entry["gflops"]) / len(entry["gflops"]) if entry["gflops"] else 0.0
            ),
        }
        for op, entry in sorted(per_op.items())
    ]
    return {
        "kind": "sweep",
        "experiment": spec.name,
        "fingerprint": fingerprint,
        "summary": {
            "problems": sum(g["problems"] for g in groups),
            "chunks": sum(g["chunks"] for g in groups),
            "workers": workers or 0,
            "mode": "sweep",
            "wall_s": wall_s,
            "failures": sum(1 for r in records if r.status == "failed"),
            "groups": groups,
        },
        "cells": [{"label": r.cell.id, **r.gauges} for r in ok],
    }


def run_spec(
    spec: ExperimentSpec,
    out_dir: Path | str,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[Path | str] = None,
    history: Optional[RunHistory | Path | str] = None,
    resume: bool = True,
    echo: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute ``spec``, writing artifacts under ``out_dir``.

    Parameters
    ----------
    workers:
        Pool size for runtime cells (``None`` = auto).
    cache_dir:
        Directory of the :class:`~repro.runtime.CalibrationCache` behind
        the sweep's one calibration per device, which every cell reuses.
        ``None`` runs cache-less (still deterministic; calibrates once
        per device).
    history:
        Run-history destination (path or :class:`RunHistory`) for the
        one aggregate sweep record.  Per-cell runtime launches do not
        log their own records -- sweep entries stay comparable under
        the :mod:`repro.observe.alerts` drift rules.  ``None``
        disables history entirely.
    resume:
        Replay a matching ``cells.jsonl`` journal instead of
        re-executing finished cells.  ``False`` discards any journal.
    echo:
        Per-cell progress callback (the CLI passes ``print``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    say = echo or (lambda _line: None)

    cells, pruned = expand_cells(spec)
    fingerprint = plan_fingerprint(spec, cells)
    journal = journal_path(out_dir)

    restored = _read_journal(journal, fingerprint) if resume else {}
    if not resume and journal.exists():
        journal.unlink()
    if restored:
        say(f"resuming: {len(restored)}/{len(cells)} cells from {journal}")

    history_store: Optional[RunHistory] = None
    if isinstance(history, RunHistory):
        history_store = history
    elif history is not None:
        history_store = RunHistory(history)

    ctx = SweepContext(
        seed=spec.seed,
        workers=workers,
        cache_dir=Path(cache_dir) if cache_dir is not None else None,
    )

    kill_after = int(os.environ.get(_KILL_ENV, "0") or "0")
    executed = 0
    start = time.perf_counter()
    records: List[CellRecord] = []
    budget_overruns: List[str] = []
    try:
        for i, cell in enumerate(cells):
            if cell.id in restored:
                records.append(_restored_record(cell, restored[cell.id]))
                continue
            record = run_cell(cell, ctx)
            records.append(record)
            append_record(
                journal,
                {
                    "fingerprint": fingerprint,
                    "record": record.to_dict(),
                    "wall_s": record.wall_s,
                },
                durable=True,
            )
            executed += 1
            emit(
                "experiment.cell",
                level="warning" if record.status == "failed" else "info",
                experiment=spec.name,
                cell=cell.id,
                status=record.status,
                wall_s=record.wall_s,
            )
            status = record.status if record.status != "ok" else f"{record.wall_s:.3f}s"
            say(f"[{i + 1}/{len(cells)}] {cell.id}: {status}")
            if kill_after and executed >= kill_after:
                os.kill(os.getpid(), signal.SIGKILL)
            if (
                record.status == "ok"
                and cell.policy.budget_s > 0
                and record.wall_s > cell.policy.budget_s
            ):
                budget_overruns.append(cell.id)
                say(
                    f"  budget overrun: {record.wall_s:.3f}s > "
                    f"{cell.policy.budget_s:.3f}s"
                )
    finally:
        ctx.close()
    wall_s = time.perf_counter() - start

    matrix = _matrix_doc(spec, fingerprint, pruned, records)
    matrix_path = out_dir / "matrix.json"
    atomic_write_text(matrix_path, json.dumps(matrix, sort_keys=True, indent=2) + "\n")

    run_doc = {
        "schema": MATRIX_SCHEMA,
        "kind": "experiment-run",
        "experiment": spec.name,
        "fingerprint": fingerprint,
        "wall_s": wall_s,
        "executed": executed,
        "resumed": len(cells) - executed,
        "budget_overruns": budget_overruns,
        "status_counts": {
            status: sum(1 for r in records if r.status == status)
            for status in ("ok", "unsupported", "failed")
        },
        "cell_walls": {r.cell.id: r.wall_s for r in records},
    }
    run_path = out_dir / "run.json"
    atomic_write_text(run_path, json.dumps(run_doc, sort_keys=True, indent=2) + "\n")

    if journal.exists():
        journal.unlink()

    if history_store is not None:
        history_store.append(
            _history_record(spec, fingerprint, records, wall_s, workers)
        )
    emit(
        "experiment.sweep",
        experiment=spec.name,
        fingerprint=fingerprint,
        cells=len(cells),
        executed=executed,
        resumed=len(cells) - executed,
        failed=sum(1 for r in records if r.status == "failed"),
        wall_s=wall_s,
    )

    return SweepResult(
        spec=spec,
        cells=cells,
        records=records,
        pruned=pruned,
        fingerprint=fingerprint,
        matrix=matrix,
        matrix_path=matrix_path,
        run_path=run_path,
        wall_s=wall_s,
        resumed=len(cells) - executed,
        budget_overruns=budget_overruns,
    )
