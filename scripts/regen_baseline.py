#!/usr/bin/env python
"""Regenerate the checked-in CI baseline matrix artifacts.

The baseline format *is* the engine's ``matrix.json`` artifact: this
script runs a spec through ``repro.experiments`` and copies the
resulting matrix to ``benchmarks/baselines/<name>.json``.  The
simulated engine is deterministic, so a baseline generated on any
machine is valid everywhere.

Usage::

    python scripts/regen_baseline.py                 # all default baselines
    python scripts/regen_baseline.py SPEC [--out P]  # one spec

With no arguments it refreshes ``ci_baseline.json`` (from
``benchmarks/specs/ci_regression.toml``), ``ci_smoke.json`` (from
``benchmarks/specs/ci_smoke.toml``) and ``paper_artefacts.json`` (the
``data`` payload of every paper artefact, as ``python -m repro export``
writes it, keyed by experiment id).  See CONTRIBUTING.md for when a
refresh is appropriate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import load_spec, run_spec  # noqa: E402
from repro.reporting import list_experiments, run_experiment  # noqa: E402
from repro.reporting.export import _jsonable  # noqa: E402

SPECS_DIR = REPO / "benchmarks" / "specs"
BASELINES_DIR = REPO / "benchmarks" / "baselines"

#: spec -> baseline written when the script runs with no arguments.
DEFAULTS = {
    SPECS_DIR / "ci_regression.toml": BASELINES_DIR / "ci_baseline.json",
    SPECS_DIR / "ci_smoke.toml": BASELINES_DIR / "ci_smoke.json",
}

#: Golden ``data`` of all 16 paper artefacts (checked by
#: ``tests/reporting/test_experiments.py``).
ARTEFACTS = BASELINES_DIR / "paper_artefacts.json"


def regen(spec_path: Path, out: Path, workers: int | None) -> None:
    spec = load_spec(spec_path)
    with tempfile.TemporaryDirectory() as tmp:
        result = run_spec(spec, tmp, workers=workers, resume=False)
        failed = [r.cell.id for r in result.records if r.status == "failed"]
        if failed:
            raise SystemExit(
                f"refusing to baseline a failing sweep; failed cells: {failed}"
            )
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(result.matrix_path, out)
    counts = result.counts
    print(
        f"{out.relative_to(REPO) if out.is_relative_to(REPO) else out}: "
        f"{len(result.cells)} cells ({counts.get('ok', 0)} ok, "
        f"{counts.get('unsupported', 0)} unsupported) from {spec_path.name}"
    )


def regen_artefacts() -> None:
    data = {eid: _jsonable(run_experiment(eid).data) for eid in list_experiments()}
    ARTEFACTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{ARTEFACTS.relative_to(REPO)}: {len(data)} artefacts")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "spec",
        type=Path,
        nargs="?",
        default=None,
        help="spec to run (default: regenerate every default baseline)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="baseline path (default: benchmarks/baselines/<spec name>.json)",
    )
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    if args.spec is None:
        if args.out is not None:
            parser.error("--out requires an explicit spec")
        for spec_path, out in DEFAULTS.items():
            regen(spec_path, out, args.workers)
        regen_artefacts()
        return 0

    out = args.out
    if out is None:
        out = BASELINES_DIR / (load_spec(args.spec).name + ".json")
    regen(args.spec, out, args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
