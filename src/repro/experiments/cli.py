"""``python -m repro.experiments`` -- plan, run, and diff sweeps.

Subcommands::

    plan SPEC               expand the cell plan without executing
    run  SPEC [--strict]    execute; gate against the baseline artifact
    diff CURRENT BASELINE   compare two matrix artifacts

``run --dry-run`` is an alias for ``plan``.  ``--strict`` resolves the
baseline from ``--baseline`` or the spec's ``[gates] baseline`` entry
and fails (exit 1) on any direction-aware regression, any exact-match
structural change, or any cell whose execution failed.  ``run
--cache-dir DIR`` also writes the sweep's metrics registry to
``DIR/metrics.prom``, the file ``python -m repro.observe.alerts`` reads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..observe.metrics import default_registry, write_prometheus
from ..reporting.tables import format_table
from .engine import run_spec
from .gate import diff_artifacts, load_artifact
from .spec import ExperimentSpec, SpecError, expand_cells, load_spec, plan_fingerprint

__all__ = ["main"]


def _plan_text(spec: ExperimentSpec) -> str:
    cells, pruned = expand_cells(spec)
    fingerprint = plan_fingerprint(spec, cells)
    rows = [
        [
            cell.device,
            cell.op,
            cell.size,
            cell.precision,
            cell.approach,
            cell.fault_plan,
            cell.policy.batch,
            cell.policy.repeats,
        ]
        for cell in cells
    ]
    title = f"{spec.name}: {len(cells)} cells"
    if pruned:
        title += f" ({pruned} pruned: fault plans need the runtime approach)"
    table = format_table(
        ["device", "op", "n", "precision", "approach", "faults", "batch", "reps"],
        rows,
        title=title,
    )
    return f"{table}\nplan fingerprint: {fingerprint}\n"


def _summary_text(result) -> str:
    counts = result.counts
    parts = [f"{counts.get('ok', 0)} ok"]
    if counts.get("unsupported"):
        parts.append(f"{counts['unsupported']} unsupported")
    if counts.get("failed"):
        parts.append(f"{counts['failed']} FAILED")
    line = (
        f"{result.spec.name}: {len(result.cells)} cells ({', '.join(parts)}) "
        f"in {result.wall_s:.2f}s"
    )
    if result.resumed:
        line += f", {result.resumed} resumed from journal"
    if result.budget_overruns:
        line += f", {len(result.budget_overruns)} over budget"
    return line


def _gate(result, baseline_path: Optional[Path], tolerance: float) -> int:
    if baseline_path is None:
        print(
            "error: --strict needs a baseline (pass --baseline or set "
            "[gates] baseline in the spec)",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_artifact(baseline_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_artifacts(result.matrix, baseline, tolerance)
    for line in report.lines():
        print(line)
    checked = len(report.deltas)
    if not report.ok:
        print(f"{len(report.failures)} of {checked} gauges regressed")
        return 1
    print(f"all {checked} gauges within {tolerance:.0%} of {baseline_path}")
    return 0


def _cmd_plan(args) -> int:
    spec = load_spec(args.spec)
    print(_plan_text(spec), end="")
    return 0


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    if args.dry_run:
        print(_plan_text(spec), end="")
        return 0
    out_dir = args.out or Path("artifacts") / "experiments" / spec.name
    result = run_spec(
        spec,
        out_dir,
        workers=args.workers,
        cache_dir=args.cache_dir,
        history=args.history,
        resume=not args.no_resume,
        echo=print if args.verbose else None,
    )
    print(_summary_text(result))
    print(f"matrix: {result.matrix_path}")
    if args.cache_dir is not None:
        # The sweep's metrics go beside its caches, for the alerts gate;
        # without a cache dir the sweep leaves nothing outside --out.
        write_prometheus(default_registry(), args.cache_dir / "metrics.prom")
    exit_code = 0
    if args.strict:
        tolerance = args.tolerance if args.tolerance is not None else spec.tolerance
        exit_code = _gate(result, args.baseline or spec.baseline, tolerance)
    if not result.ok:
        for record in result.records:
            if record.status == "failed":
                print(f"FAILED {record.cell.id}: {record.note}", file=sys.stderr)
        exit_code = exit_code or 1
    return exit_code


def _cmd_diff(args) -> int:
    try:
        current = load_artifact(args.current)
        baseline = load_artifact(args.baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_artifacts(current, baseline, args.tolerance)
    rows = []
    for delta in report.deltas:
        if delta.ok and not args.verbose:
            continue
        rows.append(
            [
                delta.gauge,
                delta.value if delta.value is not None else "-",
                delta.ref,
                f"{delta.deviation:+.1%}",
                delta.direction,
                "ok" if delta.ok else "FAIL",
            ]
        )
    if rows:
        print(
            format_table(
                ["gauge", "current", "baseline", "change", "better", "verdict"],
                rows,
                title=f"{args.current} vs {args.baseline}",
            )
        )
    for name in report.new:
        print(f"note: new gauge not in baseline: {name}")
    checked = len(report.deltas)
    if not report.ok:
        print(f"{len(report.failures)} of {checked} gauges regressed")
        return 1
    print(f"all {checked} gauges within {report.tolerance:.0%} of baseline")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Declarative experiment matrix engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="expand a spec's cell plan (dry run)")
    plan.add_argument("spec", type=Path)
    plan.set_defaults(func=_cmd_plan)

    run = sub.add_parser("run", help="execute a spec")
    run.add_argument("spec", type=Path)
    run.add_argument("--out", type=Path, default=None, help="artifact directory")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--cache-dir", type=Path, default=None)
    run.add_argument("--history", type=Path, default=None, help="history JSONL")
    run.add_argument(
        "--no-resume", action="store_true", help="discard any cell journal"
    )
    run.add_argument("--dry-run", action="store_true", help="alias for plan")
    run.add_argument("--strict", action="store_true", help="gate vs baseline")
    run.add_argument("--baseline", type=Path, default=None)
    run.add_argument(
        "--tolerance", type=float, default=None, help="override spec tolerance"
    )
    run.add_argument("--verbose", action="store_true", help="per-cell progress")
    run.set_defaults(func=_cmd_run)

    diff = sub.add_parser("diff", help="compare two matrix artifacts")
    diff.add_argument("current", type=Path)
    diff.add_argument("baseline", type=Path)
    diff.add_argument("--tolerance", type=float, default=0.10)
    diff.add_argument(
        "--verbose", action="store_true", help="show passing gauges too"
    )
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
