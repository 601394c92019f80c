"""Timeline reconstruction from a trace file.

``python -m repro.observe.timeline trace.json`` rebuilds the batch span
tree a traced run left in its Chrome trace (the profile-category events
round-trip through :func:`repro.observe.export.chrome_trace`) and
renders, per batch:

* the **latency decomposition** -- each phase's seconds and share of the
  batch wall;
* the **critical path** -- the span chain that determined the wall time;
* the **stragglers** -- chunks ranked by compute time against the
  median, with their worker pid;
* **per-worker utilization** over the execute window, and chunk-wall
  quantiles (p50/p95/p99) via
  :meth:`~repro.observe.metrics.MetricsRegistry.histogram_quantile`.

The timeline renders; it does not gate.  Phase budgets are alert rules
over the profile each launch records in the run history (the default
spec's ``merge-budget``, checked by ``python -m repro.observe.alerts
check --strict``).  A truncated trace (ring buffer overflowed the early
spans away) degrades to a warning, never a crash.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from ..reporting.tables import format_table
from .export import PROFILE_TS_SCALE, atomic_write_text
from .metrics import MetricsRegistry
from .profile import (
    PHASES,
    PROFILE_CATEGORY,
    BatchProfile,
    SpanNode,
    build_span_trees,
    collapsed_stacks,
    compute_profile,
)
from .tracer import Event

__all__ = [
    "load_profile_events",
    "main",
    "render_timeline",
]


def load_profile_events(path: Path | str) -> List[Event]:
    """Profile-category events parsed back from a Chrome trace file.

    Inverts the exporter's second -> microsecond scaling, so the events
    carry the same real-second timestamps the tracer recorded.  Flow
    arrows and metadata records are skipped; malformed entries raise
    ``ValueError`` (a trace either parses or fails loudly).
    """
    doc = json.loads(Path(path).read_text())
    raw = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    events: List[Event] = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError(f"malformed trace entry: {entry!r}")
        if entry.get("cat") != PROFILE_CATEGORY or entry.get("ph") != "X":
            continue
        events.append(
            Event(
                name=str(entry.get("name", "?")),
                category=PROFILE_CATEGORY,
                ph="X",
                ts=float(entry.get("ts", 0.0)) / PROFILE_TS_SCALE,
                dur=float(entry.get("dur", 0.0)) / PROFILE_TS_SCALE,
                args=entry.get("args") or None,
            )
        )
    return events


def _straggler_rows(profile: BatchProfile, root: SpanNode, top: int) -> List[list]:
    workers: Dict[int, int] = {}
    execute = root.find("execute")
    if execute is not None:
        for chunk in execute.children:
            if chunk.name != "chunk":
                continue
            attempts = [c for c in chunk.children if c.name == "attempt"]
            if attempts:
                last = max(attempts, key=lambda a: a.end)
                try:
                    pid = int(last.args.get("worker", 0))
                except (TypeError, ValueError):
                    pid = 0
                try:
                    workers[int(chunk.args.get("chunk", -1))] = pid
                except (TypeError, ValueError):
                    pass
    walls = [w for w in profile.chunk_walls.values() if w > 0.0]
    median = statistics.median(walls) if walls else 0.0
    ranked = sorted(
        profile.chunk_walls.items(), key=lambda kv: -kv[1]
    )[: max(1, top)]
    rows = []
    for index, wall in ranked:
        ratio = wall / median if median > 0 else 1.0
        rows.append(
            [
                index,
                f"{wall * 1e3:.3f}",
                f"{profile.chunk_queues.get(index, 0.0) * 1e3:.3f}",
                f"{ratio:.2f}x",
                workers.get(index, "-"),
            ]
        )
    return rows


def render_timeline(
    roots: List[SpanNode], top: int = 5
) -> tuple:
    """The timeline report text plus the computed profiles, per batch."""
    sections: List[str] = []
    profiles: List[BatchProfile] = []
    batches = [r for r in roots if r.name == "batch"]
    orphans = len(roots) - len(batches)
    if orphans:
        sections.append(
            f"warning: {orphans} span(s) without a batch root -- the trace "
            "ring buffer likely evicted early events; analysis covers the "
            "complete batches only"
        )
    for root in batches:
        profile = compute_profile(root)
        profiles.append(profile)
        shares = profile.phase_shares()
        sections.append(
            format_table(
                ["phase", "seconds", "share"],
                [
                    [phase, f"{profile.phases[phase]:.6f}", f"{shares[phase]:.1%}"]
                    for phase in PHASES
                ],
                title=(
                    f"Latency decomposition -- {profile.scope} "
                    f"(wall {profile.wall_s:.4f}s, coverage {profile.coverage:.0%})"
                ),
            )
        )
        sections.append(
            format_table(
                ["step", "start_ms", "dur_ms", "span"],
                [
                    [
                        step.name,
                        f"{step.start * 1e3:.3f}",
                        f"{step.dur * 1e3:.3f}",
                        step.span_id,
                    ]
                    for step in profile.critical_path
                ],
                title="Critical path",
            )
        )
        if profile.chunk_walls:
            sections.append(
                format_table(
                    ["chunk", "compute_ms", "queued_ms", "vs median", "worker"],
                    _straggler_rows(profile, root, top),
                    title=(
                        f"Stragglers (index {profile.straggler_index:.2f}, "
                        f"queue share {profile.queue_share:.0%})"
                    ),
                )
            )
            registry = MetricsRegistry()
            for wall in profile.chunk_walls.values():
                registry.observe("chunk_wall_seconds", wall)
            quantiles = []
            for q in (0.5, 0.95, 0.99):
                value = registry.histogram_quantile("chunk_wall_seconds", q)
                quantiles.append(
                    [f"p{int(q * 100)}", f"{(value or 0.0) * 1e3:.3f}"]
                )
            sections.append(
                format_table(
                    ["quantile", "chunk_wall_ms"],
                    quantiles,
                    title="Chunk wall quantiles (bucket-interpolated)",
                )
            )
        if profile.worker_busy_s:
            sections.append(
                format_table(
                    ["worker", "busy_s", "utilization"],
                    [
                        [pid, f"{profile.worker_busy_s[pid]:.4f}", f"{share:.0%}"]
                        for pid, share in profile.utilization.items()
                    ],
                    title=f"Worker utilization (execute {profile.execute_s:.4f}s)",
                )
            )
    if not batches:
        sections.append(
            "no batch span tree in this trace -- was the run traced with "
            "profiling enabled (REPRO_PROFILE)?"
        )
    return "\n\n".join(sections) + "\n", profiles


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe.timeline",
        description=(
            "Rebuild the batch timeline from a trace file: latency "
            "decomposition, critical path, stragglers."
        ),
    )
    parser.add_argument("trace", type=Path, help="Chrome trace JSON file")
    parser.add_argument(
        "--top", type=int, default=5, help="stragglers to list (default 5)"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the batch profiles here"
    )
    parser.add_argument(
        "--flamegraph",
        type=Path,
        default=None,
        help="write collapsed stacks (flamegraph.pl format) here",
    )
    args = parser.parse_args(argv)

    try:
        events = load_profile_events(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2

    roots = build_span_trees(events)
    text, profiles = render_timeline(roots, top=args.top)
    print(text, end="")

    if args.flamegraph is not None:
        atomic_write_text(args.flamegraph, collapsed_stacks(roots))
        print(f"flamegraph stacks -> {args.flamegraph}")
    if args.json is not None:
        doc = {
            "trace": str(args.trace),
            "batches": [p.to_dict() for p in profiles],
        }
        atomic_write_text(args.json, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"timeline json -> {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
