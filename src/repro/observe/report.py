"""Terminal dashboard over the run history and metrics snapshot.

``python -m repro.observe.report`` renders, from the artifacts the
instrumented runtime leaves behind (``history.jsonl`` plus the
``metrics.prom`` exposition under the cache root):

* the most recent runs (problems, chunks, workers, mode, wall time,
  winning regime);
* the regime mix across the history window -- the paper's
  bandwidth-bound vs compute-bound narrative as a fleet-level signal;
* the latest critical-path profile a traced run recorded -- phase
  decomposition, straggler index, and queue share;
* cache hit rates for the calibration and dispatch caches;
* the latest SLO evaluation ``python -m repro.observe.alerts check``
  persisted (rule states, severities, and observed values), drift and
  phase budgets included.

Everything is stdlib + the repo's own table renderer; no third-party
dependencies.  The dashboard renders and never gates: the exit-coded
verdicts belong to ``python -m repro.observe.alerts check --strict``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..reporting.tables import format_table
from .history import RunHistory, default_history_path
from .metrics import (
    MetricsRegistry,
    default_snapshot_path,
    load_metrics_snapshot,
)

__all__ = ["main", "render_report"]


def _fmt_ts(ts: float) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))
    except (OverflowError, OSError, ValueError):
        return "?"


def _run_rows(records: List[dict], limit: int) -> List[list]:
    rows = []
    for doc in records[-limit:]:
        summary = doc.get("summary", {})
        groups = summary.get("groups", [])
        ops = ",".join(g.get("op", "?") for g in groups) or "?"
        regimes = doc.get("regimes", [])
        regime = ",".join(sorted({r.get("regime", "?") for r in regimes})) or "-"
        rows.append(
            [
                _fmt_ts(doc.get("ts", 0.0)),
                ops,
                summary.get("problems", 0),
                summary.get("chunks", 0),
                summary.get("workers", 0),
                summary.get("mode", "?"),
                summary.get("wall_s", 0.0),
                regime,
            ]
        )
    return rows


def _regime_mix(records: List[dict]) -> List[list]:
    counts: dict = {}
    total = 0
    for doc in records:
        for entry in doc.get("regimes", []):
            regime = entry.get("regime", "?")
            counts[regime] = counts.get(regime, 0) + 1
            total += 1
    rows = []
    for regime in sorted(counts, key=lambda r: (-counts[r], r)):
        share = counts[regime] / total if total else 0.0
        rows.append([regime, counts[regime], f"{share:.0%}"])
    return rows


def _latest_profile(records: List[dict]) -> Optional[dict]:
    for doc in reversed(records):
        profile = doc.get("profile")
        if isinstance(profile, dict) and profile.get("phases"):
            return profile
    return None


def _profile_rows(profile: dict) -> List[list]:
    phases = profile.get("phases", {})
    wall = float(profile.get("wall_s", 0.0)) or 0.0
    rows = []
    for phase in sorted(phases, key=lambda p: -phases[p]):
        seconds = float(phases[phase])
        share = seconds / wall if wall > 0 else 0.0
        rows.append([phase, f"{seconds:.4f}", f"{share:.1%}"])
    return rows


def _cache_rows(registry: Optional[MetricsRegistry]) -> List[list]:
    if registry is None or "repro_cache_requests_total" not in registry:
        return []
    rows = []
    caches = registry.label_values("repro_cache_requests_total", "cache")
    for cache in caches:
        hits = registry.sum_series(
            "repro_cache_requests_total", cache=cache, outcome="hit"
        )
        misses = registry.sum_series(
            "repro_cache_requests_total", cache=cache, outcome="miss"
        )
        stale = registry.sum_series(
            "repro_cache_requests_total", cache=cache, outcome="stale"
        )
        total = hits + misses + stale
        rate = f"{hits / total:.0%}" if total else "-"
        rows.append([cache, int(hits), int(misses), int(stale), rate])
    return rows


def _alert_rows(state: dict) -> List[list]:
    rows = []
    for result in state.get("results", []):
        if not isinstance(result, dict):
            continue
        value = result.get("value")
        state_word = result.get("state", "?")
        rows.append(
            [
                result.get("rule", "?"),
                result.get("severity", "?"),
                state_word.upper() if state_word == "firing" else state_word,
                "-" if value is None else f"{value:.4g}",
                result.get("span_id") or "-",
            ]
        )
    return rows


def render_report(
    history: RunHistory,
    registry: Optional[MetricsRegistry],
    runs: int = 10,
    alerts: Optional[dict] = None,
) -> str:
    """The dashboard text.

    ``alerts`` is the persisted state doc of the most recent
    ``python -m repro.observe.alerts check`` (see
    :func:`~repro.observe.alerts.load_alert_state`); when given, its
    rule states render as an "Alerts" section.
    """
    records = history.load()
    sections = []
    if not records:
        sections.append(
            f"no run history at {history.path} -- run a sharded batch "
            "(e.g. examples/quickstart.py) to populate it"
        )
    else:
        sections.append(
            format_table(
                [
                    "time",
                    "ops",
                    "problems",
                    "chunks",
                    "workers",
                    "mode",
                    "wall_s",
                    "regime",
                ],
                _run_rows(records, runs),
                title=f"Recent runs ({min(runs, len(records))} of {len(records)})",
            )
        )
        mix = _regime_mix(records)
        if mix:
            sections.append(
                format_table(
                    ["regime", "launches", "share"], mix, title="Regime mix"
                )
            )
        profile = _latest_profile(records)
        if profile is not None:
            straggler = float(profile.get("straggler_index", 1.0))
            queue_share = float(profile.get("queue_share", 0.0))
            sections.append(
                format_table(
                    ["phase", "seconds", "share"],
                    _profile_rows(profile),
                    title=(
                        "Latest profile (straggler index "
                        f"{straggler:.2f}, queue share {queue_share:.0%})"
                    ),
                )
            )

    if alerts is not None:
        alert_rows = _alert_rows(alerts)
        if alert_rows:
            firing = sum(1 for row in alert_rows if row[2] == "FIRING")
            slo = alerts.get("slo", "?")
            title = f"Alerts (slo {slo}, "
            title += f"{firing} firing)" if firing else "all quiet)"
            sections.append(
                format_table(
                    ["rule", "severity", "state", "value", "span"],
                    alert_rows,
                    title=title,
                )
            )

    cache_rows = _cache_rows(registry)
    if cache_rows:
        sections.append(
            format_table(
                ["cache", "hits", "misses", "stale", "hit rate"],
                cache_rows,
                title="Cache hit rates",
            )
        )
    elif registry is not None:
        sections.append("no cache traffic recorded in the metrics snapshot")
    return "\n\n".join(sections) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe.report",
        description="Fleet telemetry dashboard: runs, regimes, alerts, caches.",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        help="history JSONL path (default: <cache dir>/history.jsonl)",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="Prometheus metrics file (default: <cache dir>/metrics.prom)",
    )
    parser.add_argument(
        "--runs", type=int, default=10, help="recent runs to list (default 10)"
    )
    parser.add_argument(
        "--alerts",
        type=Path,
        default=None,
        help="persisted alert state (default: <cache dir>/alerts.json)",
    )
    args = parser.parse_args(argv)

    from .alerts import default_state_path, load_alert_state

    history = RunHistory(args.history or default_history_path())
    registry = load_metrics_snapshot(args.metrics or default_snapshot_path())
    alerts = load_alert_state(args.alerts or default_state_path())

    print(render_report(history, registry, runs=args.runs, alerts=alerts), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
