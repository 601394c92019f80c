"""Export experiment data for external plotting (CSV / JSON).

The plain-text reports are for terminals; a downstream user replotting
the figures wants machine-readable series.  These writers take any
:class:`~repro.reporting.experiments.ExperimentResult` and dump its
``data`` payload -- series experiments become tidy CSV (one row per x
value, one column per series), everything becomes JSON.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

from ..observe.export import jsonable
from .experiments import ExperimentResult

__all__ = ["to_json", "to_csv", "export_experiment"]


def to_json(result: ExperimentResult, path: Path | str) -> Path:
    """Write the experiment's full data payload as JSON."""
    path = Path(path)
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "data": jsonable(result.data),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _series_columns(data: dict) -> tuple[str, Sequence, dict] | None:
    """Detect a (x-key, x-values, {series: values}) layout in ``data``."""
    for x_key in ("n", "log2_stride", "threads"):
        x = data.get(x_key)
        if not isinstance(x, (list, tuple)):
            continue
        series = {
            k: v
            for k, v in data.items()
            if k != x_key and isinstance(v, (list, tuple)) and len(v) == len(x)
        }
        if series:
            return x_key, x, series
    return None


def to_csv(result: ExperimentResult, path: Path | str) -> Path:
    """Write a series experiment as tidy CSV.

    Raises ``ValueError`` for experiments whose data is not a flat series
    (use :func:`to_json` for those).
    """
    layout = _series_columns(result.data)
    if layout is None:
        raise ValueError(
            f"experiment {result.experiment_id!r} has no flat series; "
            "export it as JSON instead"
        )
    x_key, x, series = layout
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_key, *series.keys()])
        for i, xv in enumerate(x):
            writer.writerow([xv, *(s[i] for s in series.values())])
    return path


def export_experiment(
    result: ExperimentResult, directory: Path | str
) -> list[Path]:
    """Write JSON (always) and CSV (when the data is a series)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = [to_json(result, directory / f"{result.experiment_id}.json")]
    try:
        written.append(to_csv(result, directory / f"{result.experiment_id}.csv"))
    except ValueError:
        pass
    return written
