"""Command-line entry points for the analysis subsystem.

Three subcommands mirror the three layers:

``python -m repro.analyze lint [paths...] [--json] [--strict] [--rules ...]``
    Static kernel-protocol linter over ``src/repro`` (default) or the
    given files/directories.

``python -m repro.analyze sanitize [--json] [--strict]``
    Dynamic shared-memory race sweep over every registered device
    kernel at several problem shapes.

``python -m repro.analyze costcheck {verify,table,diff} [...]``
    Static cost certifier: abstract-interpret every registered kernel,
    cross-check the derived footprints against the analytic model, the
    occupancy calculator, and a dynamic traced run (``verify``); emit
    the footprint/occupancy table (``table``); or diff footprints
    against a checked-in baseline JSON (``diff BASELINE``).

``--strict`` makes any finding/hazard/mismatch exit 1 -- how CI gates.
``--json`` emits machine-readable output (uploaded as a CI artifact).
Malformed requests (unknown rule codes, unknown case names, unreadable
baselines) exit 2, the spec-error convention shared with
``repro.experiments`` and ``repro.observe.alerts``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main"]

_DEFAULT_LINT_ROOT = Path(__file__).resolve().parents[2] / "repro"


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import UnknownRuleError, lint_paths

    paths = args.paths or [_DEFAULT_LINT_ROOT]
    rules = args.rules.split(",") if args.rules else None
    try:
        findings = lint_paths(paths, rules=rules)
    except UnknownRuleError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"{len(findings)} finding(s)")
    return 1 if (args.strict and findings) else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from .registry import run_sweep

    results = run_sweep()
    bad = [r for r in results if not r["ok"]]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            if r["report"] is None:
                status = "clean (no shared memory)"
            elif r["ok"]:
                rep = r["report"]
                status = (
                    f"clean ({rep['syncs']} syncs, "
                    f"{rep['accesses']} tracked accesses)"
                )
            else:
                rep = r["report"]
                status = (
                    f"FAIL ({len(rep['hazards'])} hazard(s), "
                    f"{rep['redundant_syncs']} redundant sync(s))"
                )
            print(f"{r['kernel']:28s} {r['shape']:8s} {status}")
            if not r["ok"]:
                for h in r["report"]["hazards"]:
                    print(
                        f"    {h['kind']} on {h['array']} "
                        f"epoch {h['epoch']} phase {h['phase']!r}: "
                        f"{h['message']}"
                    )
        print(f"{len(results)} case(s), {len(bad)} with hazards")
    return 1 if (args.strict and bad) else 0


def _render_report(report) -> str:
    occ = report.occupancy
    if report.ok:
        detail = (
            f"certified ({occ.get('blocks_per_sm', '?')} blocks/SM, "
            f"limiter {occ.get('limiter', '?')})"
        )
        return f"{report.case.name:28s} {report.footprint.shape:8s} {detail}"
    lines = [f"{report.case.name:28s} {report.footprint.shape:8s} MISMATCH"]
    for term, (ours, theirs) in report.model_mismatches.items():
        lines.append(f"    model   {term}: interpreter {ours} != model {theirs}")
    for term, (ours, theirs) in report.dynamic_mismatches.items():
        lines.append(f"    dynamic {term}: traced {ours} != static {theirs}")
    if report.occupancy_violation:
        lines.append(f"    occupancy: {report.occupancy_violation}")
    return "\n".join(lines)


def _cmd_costcheck(args: argparse.Namespace) -> int:
    from .costcheck import (
        Footprint,
        UnknownCaseError,
        diff_terms,
        interpret,
        run_costcheck,
        select_cases,
    )

    try:
        cases = select_cases(args.cases.split(",") if args.cases else None)
    except UnknownCaseError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.action in ("verify", "table"):
        reports = run_costcheck(cases)
        bad = [r for r in reports if not r.ok]
        if args.json:
            print(json.dumps([r.to_dict() for r in reports], indent=2))
        else:
            for r in reports:
                print(_render_report(r))
            print(f"{len(reports)} case(s), {len(bad)} with mismatches")
        if args.action == "table":
            return 0
        return 1 if (args.strict and bad) else 0

    # diff: current interpreter footprints vs a checked-in baseline JSON
    if args.baseline is None:
        print("costcheck diff requires a baseline JSON path", file=sys.stderr)
        return 2
    try:
        entries = json.loads(Path(args.baseline).read_text())
        baseline = {}
        for entry in entries:
            fp = Footprint.from_dict(entry.get("footprint", entry))
            baseline[fp.key] = fp
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"unreadable baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2

    from ..observe.metrics import counter_inc

    drift: List[str] = []
    for case in cases:
        fp = interpret(case).footprint
        base = baseline.get(fp.key)
        if base is None:
            drift.append(f"{fp.key}: missing from baseline")
            counter_inc(
                "repro_costcheck_mismatch_total",
                kernel=case.name, term="case", check="baseline",
            )
            continue
        for term, (ours, theirs) in diff_terms(fp.terms(), base.terms()).items():
            drift.append(f"{fp.key}: {term} now {ours}, baseline {theirs}")
            counter_inc(
                "repro_costcheck_mismatch_total",
                kernel=case.name, term=term, check="baseline",
            )
    if not args.cases:
        # Over the full case list, a baseline entry nothing matched is a
        # kernel or shape the registry dropped.
        current = {case.key for case in cases}
        for key, base in baseline.items():
            if key not in current:
                drift.append(f"{key}: missing from registry")
                counter_inc(
                    "repro_costcheck_mismatch_total",
                    kernel=base.kernel, term="case", check="baseline",
                )
    if args.json:
        print(json.dumps(drift, indent=2))
    else:
        for line in drift:
            print(line)
        print(f"{len(cases)} case(s), {len(drift)} drift line(s)")
    return 1 if drift else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.analyze``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static linter and dynamic race sanitizer for the "
        "simulated-GPU kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="run the RPR00x static rules")
    p_lint.add_argument("paths", nargs="*", help="files/dirs (default: src/repro)")
    p_lint.add_argument("--json", action="store_true", help="JSON output")
    p_lint.add_argument(
        "--strict", action="store_true", help="exit 1 on any finding"
    )
    p_lint.add_argument(
        "--rules", default=None, help="comma-separated rule subset (e.g. RPR001)"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_san = sub.add_parser(
        "sanitize", help="race-sweep every registered device kernel"
    )
    p_san.add_argument("--json", action="store_true", help="JSON output")
    p_san.add_argument(
        "--strict", action="store_true", help="exit 1 on any hazard"
    )
    p_san.set_defaults(func=_cmd_sanitize)

    p_cost = sub.add_parser(
        "costcheck", help="certify static kernel cost footprints"
    )
    p_cost.add_argument(
        "action",
        choices=("verify", "table", "diff"),
        help="verify: run all three checks; table: emit footprints; "
        "diff: compare footprints against a baseline JSON",
    )
    p_cost.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="baseline JSON (output of 'costcheck table --json'); "
        "required by diff",
    )
    p_cost.add_argument("--json", action="store_true", help="JSON output")
    p_cost.add_argument(
        "--strict", action="store_true", help="exit 1 on any mismatch"
    )
    p_cost.add_argument(
        "--cases",
        default=None,
        help="comma-separated kernel names or kernel[MxN] keys "
        "(default: the full registry)",
    )
    p_cost.set_defaults(func=_cmd_costcheck)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
