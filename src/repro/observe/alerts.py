"""Declarative SLO/alert rules over the metrics registry and run history.

A spec is a TOML or JSON document in the :mod:`repro.experiments` style::

    [slo]                       # identity
    name = "default"
    title = "Runtime health SLOs"

    [[rule]]                    # instantaneous bound on a metric family
    name = "chunk-wall-p99"
    kind = "threshold"
    severity = "ticket"
    metric = "repro_chunk_wall_seconds"
    quantile = 0.99             # histogram families only
    max = 30.0                  # or min = ...; exactly one bound

    [[rule]]                    # direction-aware drift of history gauges
    name = "drift"
    kind = "delta"
    gauge = "*"                 # fnmatch pattern over the gauge names
    window = 8                  # prior records the median is taken over
    tolerance = 0.10            # relative move vs the window median
    min_history = 3             # prior samples each gauge needs

    [[rule]]                    # multi-window error-budget burn rate
    name = "failure-burn"
    kind = "burn_rate"
    severity = "page"
    numerator = "summary.failures"
    denominator = "summary.problems"
    objective = 0.999           # SLO: 99.9% of problems factor cleanly
    long_window = 24            # history records
    short_window = 4
    factor = 2.0                # fire when BOTH windows burn >= 2x budget

A share budget is a one-record burn rate: ``numerator =
"profile.phases.merge"``, ``denominator = "profile.wall_s"``, ``objective
= 0.90`` and both windows 1 fire at ``factor = 1.0`` once the latest
profiled launch spent 10% of its wall in the merge.

Specs compile into a deterministic :class:`AlertPlan` (content
fingerprint over the canonical rule list), and :func:`evaluate` turns a
plan plus the current telemetry -- a
:class:`~repro.observe.metrics.MetricsRegistry` snapshot and the
:class:`~repro.observe.history.RunHistory` records -- into per-rule
:class:`RuleResult` states (``ok`` / ``firing`` / ``no_data``) and
:class:`AlertEvent` transitions (``firing`` / ``resolved``) against the
previous evaluation's states.

Every result and event carries the ``span_id`` of the latest history
record (the profiler's ``batch:N`` scope, stamped by the runtime), so an
alert joins the offending launch's structured log lines and flamegraph
spans on one id.

``python -m repro.observe.alerts {check,watch,explain}`` is the CLI;
``check --strict`` exits 1 while any rule fires (2 on a spec error), so
the same command doubles as a CI gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from ..reporting.tables import format_table
from .events import emit
from .export import atomic_write_text, load_document, require_keys
from .history import RunHistory, default_history_path, gauge_direction, record_gauges
from .metrics import (
    MetricsRegistry,
    default_snapshot_path,
    load_metrics_snapshot,
)

__all__ = [
    "ALERTS_SCHEMA",
    "KINDS",
    "SEVERITIES",
    "AlertEvent",
    "AlertPlan",
    "AlertRule",
    "AlertSpecError",
    "Evaluation",
    "RuleResult",
    "alert_spec_from_dict",
    "compile_plan",
    "default_state_path",
    "evaluate",
    "load_alert_spec",
    "load_alert_state",
    "main",
    "write_alert_state",
]

#: Bump when the spec layout or state-file layout changes.
ALERTS_SCHEMA = 1

KINDS = ("threshold", "delta", "burn_rate")

#: Escalation ladder, least to most urgent.
SEVERITIES = ("info", "ticket", "page")

#: Severity -> structured-log level for emitted alert events.
_SEVERITY_LEVEL = {"info": "info", "ticket": "warning", "page": "error"}

_TOP_LEVEL_KEYS = {"slo", "rule"}
_SLO_KEYS = {"name", "title"}
_COMMON_KEYS = {"name", "kind", "severity"}
_KIND_KEYS = {
    "threshold": {"metric", "quantile", "labels", "max", "min"},
    "delta": {"gauge", "window", "tolerance", "min_history", "direction"},
    "burn_rate": {
        "numerator",
        "denominator",
        "objective",
        "long_window",
        "short_window",
        "factor",
    },
}


class AlertSpecError(ValueError):
    """A rule spec that fails validation (unknown kind, bad bound, ...)."""


def _number(value, where: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AlertSpecError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise AlertSpecError(f"{where} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise AlertSpecError(f"{where} must be <= {maximum}, got {value}")
    return value


def _window(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise AlertSpecError(f"{where} must be a positive int, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One compiled rule; only the fields its ``kind`` uses are set."""

    name: str
    kind: str
    severity: str = "ticket"
    # threshold
    metric: Optional[str] = None
    quantile: Optional[float] = None
    labels: tuple = ()
    max: Optional[float] = None
    min: Optional[float] = None
    # delta
    gauge: Optional[str] = None
    window: int = 8
    tolerance: float = 0.10
    min_history: int = 3
    direction: Optional[str] = None
    # burn_rate
    numerator: Optional[str] = None
    denominator: Optional[str] = None
    objective: float = 0.999
    long_window: int = 24
    short_window: int = 4
    factor: float = 2.0

    def to_dict(self) -> dict:
        """Canonical form: the fields this rule's kind actually reads."""
        doc: dict = {
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
        }
        if self.kind == "threshold":
            doc["metric"] = self.metric
            if self.quantile is not None:
                doc["quantile"] = self.quantile
            if self.labels:
                doc["labels"] = dict(self.labels)
            if self.max is not None:
                doc["max"] = self.max
            if self.min is not None:
                doc["min"] = self.min
        elif self.kind == "delta":
            doc.update(
                gauge=self.gauge,
                window=self.window,
                tolerance=self.tolerance,
                min_history=self.min_history,
            )
            if self.direction is not None:
                doc["direction"] = self.direction
        else:
            doc.update(
                numerator=self.numerator,
                denominator=self.denominator,
                objective=self.objective,
                long_window=self.long_window,
                short_window=self.short_window,
                factor=self.factor,
            )
        return doc


@dataclasses.dataclass(frozen=True)
class AlertSpec:
    """Parsed spec: an identity plus an ordered rule list."""

    name: str
    title: str
    rules: tuple


@dataclasses.dataclass(frozen=True)
class AlertPlan:
    """A validated spec plus its deterministic content fingerprint.

    The fingerprint hashes the *canonical* rule list, so cosmetic spec
    edits (key order, comments, TOML vs JSON) keep it and any semantic
    change -- a bound, a window, a severity -- invalidates persisted
    alert states that were computed under the old plan.
    """

    spec: AlertSpec
    fingerprint: str

    @property
    def rules(self) -> tuple:
        return self.spec.rules


def _parse_rule(entry: Mapping, where: str) -> AlertRule:
    if not isinstance(entry, Mapping):
        raise AlertSpecError(f"{where}: must be a table")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise AlertSpecError(f"{where}: needs a non-empty name")
    kind = entry.get("kind")
    if kind not in KINDS:
        raise AlertSpecError(
            f"{where}: unknown kind {kind!r}; one of {', '.join(KINDS)}"
        )
    severity = entry.get("severity", "ticket")
    if severity not in SEVERITIES:
        raise AlertSpecError(
            f"{where}: unknown severity {severity!r}; "
            f"one of {', '.join(SEVERITIES)}"
        )
    require_keys(entry, _COMMON_KEYS | _KIND_KEYS[kind], where, AlertSpecError)

    if kind == "threshold":
        metric = entry.get("metric")
        if not isinstance(metric, str) or not metric:
            raise AlertSpecError(f"{where}: threshold needs a metric name")
        quantile = entry.get("quantile")
        if quantile is not None:
            quantile = _number(
                quantile, f"{where}.quantile", minimum=0.0, maximum=1.0
            )
        labels = entry.get("labels") or {}
        if not isinstance(labels, Mapping) or not all(
            isinstance(k, str) for k in labels
        ):
            raise AlertSpecError(f"{where}.labels must be a table")
        upper = entry.get("max")
        lower = entry.get("min")
        if (upper is None) == (lower is None):
            raise AlertSpecError(
                f"{where}: threshold needs exactly one of max/min"
            )
        if upper is not None:
            upper = _number(upper, f"{where}.max")
        if lower is not None:
            lower = _number(lower, f"{where}.min")
        return AlertRule(
            name=name,
            kind=kind,
            severity=severity,
            metric=metric,
            quantile=quantile,
            labels=tuple(sorted((k, str(v)) for k, v in labels.items())),
            max=upper,
            min=lower,
        )

    if kind == "delta":
        gauge = entry.get("gauge")
        if not isinstance(gauge, str) or not gauge:
            raise AlertSpecError(f"{where}: delta needs a gauge name or pattern")
        direction = entry.get("direction")
        if direction is not None and direction not in ("higher", "lower"):
            raise AlertSpecError(
                f"{where}.direction must be 'higher' or 'lower'"
            )
        return AlertRule(
            name=name,
            kind=kind,
            severity=severity,
            gauge=gauge,
            window=_window(entry.get("window", 8), f"{where}.window"),
            tolerance=_number(
                entry.get("tolerance", 0.10), f"{where}.tolerance", minimum=0.0
            ),
            min_history=_window(
                entry.get("min_history", 3), f"{where}.min_history"
            ),
            direction=direction,
        )

    numerator = entry.get("numerator")
    denominator = entry.get("denominator")
    if not isinstance(numerator, str) or not numerator:
        raise AlertSpecError(f"{where}: burn_rate needs a numerator gauge")
    if not isinstance(denominator, str) or not denominator:
        raise AlertSpecError(f"{where}: burn_rate needs a denominator gauge")
    objective = _number(
        entry.get("objective", 0.999), f"{where}.objective", minimum=0.0
    )
    if not objective < 1.0:
        raise AlertSpecError(
            f"{where}.objective must be < 1 (1 leaves no error budget)"
        )
    long_window = _window(entry.get("long_window", 24), f"{where}.long_window")
    short_window = _window(
        entry.get("short_window", 4), f"{where}.short_window"
    )
    if short_window > long_window:
        raise AlertSpecError(
            f"{where}: short_window ({short_window}) must not exceed "
            f"long_window ({long_window})"
        )
    return AlertRule(
        name=name,
        kind=kind,
        severity=severity,
        numerator=numerator,
        denominator=denominator,
        objective=objective,
        long_window=long_window,
        short_window=short_window,
        factor=_number(entry.get("factor", 2.0), f"{where}.factor", minimum=0.0),
    )


def alert_spec_from_dict(doc: Mapping) -> AlertSpec:
    """Validate a plain dict (parsed TOML/JSON) into an :class:`AlertSpec`."""
    if not isinstance(doc, Mapping):
        raise AlertSpecError(
            f"spec must be a table/object, got {type(doc).__name__}"
        )
    require_keys(doc, _TOP_LEVEL_KEYS, "spec", AlertSpecError)
    slo = doc.get("slo")
    if not isinstance(slo, Mapping) or "name" not in slo:
        raise AlertSpecError("spec needs an [slo] table with a name")
    require_keys(slo, _SLO_KEYS, "[slo]", AlertSpecError)
    name = slo["name"]
    if not isinstance(name, str) or not name:
        raise AlertSpecError("slo.name must be a non-empty string")
    raw_rules = doc.get("rule")
    if not isinstance(raw_rules, Sequence) or not raw_rules:
        raise AlertSpecError("spec needs at least one [[rule]]")
    rules = tuple(
        _parse_rule(entry, f"rule[{i}]") for i, entry in enumerate(raw_rules)
    )
    seen: set = set()
    for rule in rules:
        if rule.name in seen:
            raise AlertSpecError(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
    return AlertSpec(name=name, title=str(slo.get("title", "")), rules=rules)


def load_alert_spec(path: Path | str) -> AlertSpec:
    """Parse a ``.toml`` or ``.json`` rule spec file.

    TOML needs Python 3.11+ (stdlib ``tomllib``); JSON specs work
    everywhere and carry the identical structure.
    """
    return alert_spec_from_dict(load_document(Path(path), AlertSpecError))


def compile_plan(spec: AlertSpec) -> AlertPlan:
    """Freeze ``spec`` into a fingerprinted, evaluation-ready plan."""
    payload = {
        "schema": ALERTS_SCHEMA,
        "slo": spec.name,
        "rules": [rule.to_dict() for rule in spec.rules],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return AlertPlan(spec=spec, fingerprint=digest)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RuleResult:
    """One rule's evaluation: state, observed value, and evidence."""

    rule: str
    kind: str
    severity: str
    #: ``ok`` / ``firing`` / ``no_data``.
    state: str
    value: Optional[float]
    limit: Optional[float]
    #: Human-readable one-liner: why this state.
    detail: str
    #: Inputs that produced the state (windows, medians, label match...).
    evidence: dict
    #: Profile scope of the latest history record, when one exists.
    span_id: Optional[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AlertEvent:
    """One state transition (``firing`` or ``resolved``)."""

    rule: str
    transition: str
    severity: str
    ts: float
    value: Optional[float]
    evidence: dict
    span_id: Optional[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """Everything one :func:`evaluate` pass produced."""

    plan: AlertPlan
    results: tuple
    events: tuple
    #: Rule -> carried state; ``no_data`` keeps the previous state, so a
    #: firing alert is not silently resolved by a missing snapshot.
    states: dict

    @property
    def firing(self) -> List[RuleResult]:
        return [r for r in self.results if r.state == "firing"]


def _eval_threshold(
    rule: AlertRule, registry: Optional[MetricsRegistry]
) -> tuple:
    labels = dict(rule.labels)
    evidence: dict = {"metric": rule.metric, "labels": labels}
    if registry is None:
        return None, "no_data", "no metrics snapshot"
    if rule.metric not in registry:
        return None, "no_data", f"family {rule.metric!r} not in snapshot"
    kind = registry.kind(rule.metric)
    if rule.quantile is not None:
        if kind != "histogram":
            return None, "no_data", f"{rule.metric!r} is a {kind}, not a histogram"
        merged = registry.merged_histogram(rule.metric, **labels)
        value = merged.quantile(rule.quantile) if merged is not None else None
        if value is None:
            return None, "no_data", "no matching histogram observations"
        evidence["quantile"] = rule.quantile
        evidence["count"] = merged.count
    else:
        if kind == "histogram":
            return (
                None,
                "no_data",
                f"{rule.metric!r} is a histogram; set quantile",
            )
        value = registry.sum_series(rule.metric, **labels)
    if rule.max is not None and value > rule.max:
        return value, "firing", f"{value:.6g} > max {rule.max:.6g}"
    if rule.min is not None and value < rule.min:
        return value, "firing", f"{value:.6g} < min {rule.min:.6g}"
    bound = rule.max if rule.max is not None else rule.min
    word = "max" if rule.max is not None else "min"
    return value, "ok", f"{value:.6g} within {word} {bound:.6g}"


def _eval_delta(rule: AlertRule, records: Sequence[dict]) -> tuple:
    """Drift of every latest-record gauge that ``rule.gauge`` matches.

    Each gauge is compared with the median of its values in the up to
    ``window`` prior records and needs ``min_history`` of them; a gauge
    whose median is ~0 is skipped (relative drift is undefined there).
    A move beyond ``tolerance`` in the gauge's bad direction -- the
    rule's ``direction``, else :func:`gauge_direction` of the gauge --
    fires.  The value is the deviation of the gauge that moved furthest
    in its bad direction.
    """
    latest = record_gauges(records[-1]) if records else {}
    prior = [record_gauges(r) for r in records[-(rule.window + 1) : -1]]
    compared = []
    for name in sorted(latest):
        if not fnmatch.fnmatchcase(name, rule.gauge):
            continue
        history = [g[name] for g in prior if name in g]
        if len(history) < rule.min_history:
            continue
        median = statistics.median(history)
        if abs(median) < 1e-12:
            continue
        direction = rule.direction or gauge_direction(name)
        deviation = (latest[name] - median) / abs(median)
        compared.append(
            {
                "gauge": name,
                "latest": latest[name],
                "median": median,
                "deviation": deviation,
                "direction": direction,
                "window": len(history),
            }
        )
    if not compared:
        return (
            None,
            "no_data",
            f"no latest-record gauge matching {rule.gauge!r} has "
            f"{rule.min_history} prior samples and a nonzero median",
            {},
        )

    def bad_move(entry: dict) -> float:
        sign = 1.0 if entry["direction"] == "lower" else -1.0
        return sign * entry["deviation"]

    worst = max(compared, key=bad_move)
    flags = sorted(
        (e for e in compared if bad_move(e) > rule.tolerance),
        key=lambda e: -abs(e["deviation"]),
    )
    detail = (
        f"{len(flags)}/{len(compared)} drifted; worst {worst['gauge']} "
        f"{worst['latest']:.4g} vs median {worst['median']:.4g} "
        f"({worst['deviation']:+.1%}, {worst['direction']} is better)"
    )
    evidence = {"gauge": rule.gauge, "checked": len(compared), "flags": flags}
    state = "firing" if flags else "ok"
    return worst["deviation"], state, detail, evidence


def _burn(pairs: Sequence[tuple], window: int, budget: float):
    recent = pairs[-window:]
    numerator = sum(n for n, _ in recent)
    denominator = sum(d for _, d in recent)
    if denominator <= 0:
        return None
    return (numerator / denominator) / budget


def _eval_burn(rule: AlertRule, records: Sequence[dict]) -> tuple:
    pairs = []
    for record in records:
        gauges = record_gauges(record)
        num = gauges.get(rule.numerator)
        denom = gauges.get(rule.denominator)
        if num is not None and denom is not None:
            pairs.append((num, denom))
    if not pairs:
        return (
            None,
            "no_data",
            f"no records carry {rule.numerator!r}/{rule.denominator!r}",
            {},
        )
    budget = 1.0 - rule.objective
    long_burn = _burn(pairs, rule.long_window, budget)
    short_burn = _burn(pairs, rule.short_window, budget)
    if long_burn is None or short_burn is None:
        return None, "no_data", "window denominator is zero", {}
    firing = long_burn >= rule.factor and short_burn >= rule.factor
    evidence = {
        "numerator": rule.numerator,
        "denominator": rule.denominator,
        "objective": rule.objective,
        "budget": budget,
        "long_burn": long_burn,
        "short_burn": short_burn,
        "records": len(pairs),
    }
    detail = (
        f"burn {long_burn:.3g}x/{short_burn:.3g}x budget over "
        f"{rule.long_window}/{rule.short_window} records "
        f"({'>=' if firing else '<'} {rule.factor:g}x)"
    )
    return max(long_burn, short_burn), ("firing" if firing else "ok"), detail, evidence


def evaluate(
    plan: AlertPlan,
    registry: Optional[MetricsRegistry] = None,
    records: Optional[Sequence[dict]] = None,
    previous: Optional[Mapping[str, str]] = None,
) -> Evaluation:
    """Evaluate every rule and diff the states against ``previous``.

    ``previous`` maps rule name -> last carried state (the ``states``
    table of the prior evaluation); transitions into ``firing`` and back
    to ``ok`` become :class:`AlertEvent` records.  A ``no_data``
    evaluation carries the previous state forward instead of resolving
    it -- losing a snapshot must not silence a live alert.
    """
    records = list(records or [])
    previous = dict(previous or {})
    span_id = None
    for record in reversed(records):
        if isinstance(record.get("span_id"), str):
            span_id = record["span_id"]
            break
    now = time.time()
    results = []
    events = []
    states: Dict[str, str] = {}
    for rule in plan.rules:
        if rule.kind == "threshold":
            value, state, detail = _eval_threshold(rule, registry)
            evidence = {"metric": rule.metric, "labels": dict(rule.labels)}
        elif rule.kind == "delta":
            value, state, detail, evidence = _eval_delta(rule, records)
        else:
            value, state, detail, evidence = _eval_burn(rule, records)
        limit = None
        if rule.kind == "threshold":
            limit = rule.max if rule.max is not None else rule.min
        elif rule.kind == "delta":
            limit = rule.tolerance
        else:
            limit = rule.factor
        result = RuleResult(
            rule=rule.name,
            kind=rule.kind,
            severity=rule.severity,
            state=state,
            value=value,
            limit=limit,
            detail=detail,
            evidence=evidence,
            span_id=span_id,
        )
        results.append(result)
        prior = previous.get(rule.name)
        if state == "firing" and prior != "firing":
            events.append(
                AlertEvent(
                    rule=rule.name,
                    transition="firing",
                    severity=rule.severity,
                    ts=now,
                    value=value,
                    evidence=evidence,
                    span_id=span_id,
                )
            )
        elif state == "ok" and prior == "firing":
            events.append(
                AlertEvent(
                    rule=rule.name,
                    transition="resolved",
                    severity=rule.severity,
                    ts=now,
                    value=value,
                    evidence=evidence,
                    span_id=span_id,
                )
            )
        if state == "no_data":
            states[rule.name] = prior or "no_data"
        else:
            states[rule.name] = state
    return Evaluation(
        plan=plan,
        results=tuple(results),
        events=tuple(events),
        states=states,
    )


# ----------------------------------------------------------------------
# State persistence + CLI
# ----------------------------------------------------------------------
def default_state_path() -> Path:
    """``alerts.json`` under the persistent cache root."""
    from ..runtime.cache import cache_dir

    return cache_dir() / "alerts.json"


def load_alert_state(path: Path | str) -> Optional[dict]:
    """The persisted state doc, or ``None`` (missing/corrupt/old schema)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != ALERTS_SCHEMA:
        return None
    return doc


def write_alert_state(path: Path | str, evaluation: Evaluation) -> Path:
    """Atomically persist an evaluation for the next run's transitions."""
    doc = {
        "schema": ALERTS_SCHEMA,
        "slo": evaluation.plan.spec.name,
        "fingerprint": evaluation.plan.fingerprint,
        "ts": time.time(),
        "states": evaluation.states,
        "results": [r.to_dict() for r in evaluation.results],
        "events": [e.to_dict() for e in evaluation.events],
    }
    path = Path(path)
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _previous_states(
    state_doc: Optional[dict], plan: AlertPlan
) -> Dict[str, str]:
    """Prior states, discarded when they came from a different plan."""
    if not state_doc or state_doc.get("fingerprint") != plan.fingerprint:
        return {}
    states = state_doc.get("states")
    return dict(states) if isinstance(states, dict) else {}


def _load_inputs(args):
    registry = load_metrics_snapshot(args.metrics or default_snapshot_path())
    history = RunHistory(args.history or default_history_path())
    return registry, history.load()


def _emit_events(evaluation: Evaluation) -> None:
    """Emit each transition as an ``alert.*`` event."""
    for event in evaluation.events:
        emit(
            f"alert.{event.transition}",
            level=_SEVERITY_LEVEL.get(event.severity, "warning"),
            span_id=event.span_id,
            rule=event.rule,
            severity=event.severity,
            value=event.value,
            **{k: v for k, v in event.evidence.items() if k != "labels"},
        )


def _result_rows(results: Sequence[RuleResult]) -> List[list]:
    rows = []
    for result in results:
        rows.append(
            [
                result.rule,
                result.kind,
                result.severity,
                result.state.upper() if result.state == "firing" else result.state,
                "-" if result.value is None else f"{result.value:.4g}",
                "-" if result.limit is None else f"{result.limit:.4g}",
                result.detail,
            ]
        )
    return rows


def _render(evaluation: Evaluation) -> str:
    spec = evaluation.plan.spec
    title = f"Alerts ({spec.name}"
    firing = len(evaluation.firing)
    title += f", {firing} firing)" if firing else ", all quiet)"
    return format_table(
        ["rule", "kind", "severity", "state", "value", "limit", "detail"],
        _result_rows(evaluation.results),
        title=title,
    )


def _cmd_check(args) -> int:
    plan = compile_plan(load_alert_spec(args.spec))
    registry, records = _load_inputs(args)
    state_path = args.state or default_state_path()
    previous = _previous_states(load_alert_state(state_path), plan)
    evaluation = evaluate(plan, registry, records, previous)
    _emit_events(evaluation)
    print(_render(evaluation))
    for event in evaluation.events:
        print(
            f"alert {event.transition}: {event.rule} "
            f"[{event.severity}] span={event.span_id or '-'}"
        )
    try:
        write_alert_state(state_path, evaluation)
    except OSError as exc:
        print(f"warning: could not persist state to {state_path}: {exc}")
    if args.json:
        write_alert_state(args.json, evaluation)
    if args.strict and evaluation.firing:
        return 1
    return 0


def _explain_rule(rule: AlertRule, result: RuleResult) -> str:
    lines = [f"{rule.name} ({rule.kind}, severity {rule.severity})"]
    if rule.kind == "threshold":
        target = rule.metric
        if rule.quantile is not None:
            target = f"p{rule.quantile * 100:g} of {target}"
        if rule.labels:
            target += f" {dict(rule.labels)}"
        bound = (
            f"max {rule.max:g}" if rule.max is not None else f"min {rule.min:g}"
        )
        lines.append(f"  watches: {target}, bound {bound}")
    elif rule.kind == "delta":
        better = (
            f"{rule.direction} is better" if rule.direction else "direction per gauge"
        )
        lines.append(
            f"  watches: history gauges matching {rule.gauge!r} vs their "
            f"{rule.window}-record median (tolerance {rule.tolerance:.0%}, "
            f"{better}, {rule.min_history}+ samples)"
        )
    else:
        lines.append(
            f"  watches: {rule.numerator}/{rule.denominator} burn vs a "
            f"{rule.objective:.4%} objective over "
            f"{rule.long_window}/{rule.short_window} records "
            f"(fires at {rule.factor:g}x budget)"
        )
    lines.append(f"  state: {result.state} -- {result.detail}")
    if result.span_id:
        lines.append(f"  latest span: {result.span_id}")
    return "\n".join(lines)


def _cmd_explain(args) -> int:
    plan = compile_plan(load_alert_spec(args.spec))
    registry, records = _load_inputs(args)
    evaluation = evaluate(plan, registry, records)
    spec = plan.spec
    header = f"SLO {spec.name!r}"
    if spec.title:
        header += f" -- {spec.title}"
    print(header)
    print(f"plan fingerprint: {plan.fingerprint[:16]}")
    print(f"rules: {len(plan.rules)}\n")
    for rule, result in zip(plan.rules, evaluation.results):
        print(_explain_rule(rule, result))
        print()
    return 0


def _cmd_watch(args) -> int:
    plan = compile_plan(load_alert_spec(args.spec))
    states: Dict[str, str] = {}
    evaluation = None
    iteration = 0
    while args.iterations is None or iteration < args.iterations:
        registry, records = _load_inputs(args)
        evaluation = evaluate(plan, registry, records, states)
        states = evaluation.states
        _emit_events(evaluation)
        stamp = time.strftime("%H:%M:%S")
        firing = evaluation.firing
        if evaluation.events:
            for event in evaluation.events:
                print(
                    f"[{stamp}] {event.transition}: {event.rule} "
                    f"[{event.severity}] span={event.span_id or '-'}"
                )
        else:
            print(
                f"[{stamp}] {len(firing)} firing / "
                f"{len(evaluation.results)} rules"
            )
        sys.stdout.flush()
        iteration += 1
        if args.iterations is not None and iteration >= args.iterations:
            break
        time.sleep(args.interval)
    if args.strict and evaluation is not None and evaluation.firing:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe.alerts",
        description="Evaluate declarative SLO/alert rules over the "
        "metrics snapshot and run history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", type=Path, help="alert rule spec (.toml/.json)")
        p.add_argument(
            "--metrics",
            type=Path,
            default=None,
            help="Prometheus metrics file (default: <cache dir>/metrics.prom)",
        )
        p.add_argument(
            "--history",
            type=Path,
            default=None,
            help="history JSONL (default: <cache dir>/history.jsonl)",
        )

    check = sub.add_parser(
        "check", help="evaluate once, persist state, exit-code the result"
    )
    add_common(check)
    check.add_argument(
        "--state",
        type=Path,
        default=None,
        help="state file for transitions (default: <cache dir>/alerts.json)",
    )
    check.add_argument(
        "--json", type=Path, default=None, help="also write the state doc here"
    )
    check.add_argument(
        "--strict", action="store_true", help="exit 1 while any rule fires"
    )

    explain = sub.add_parser(
        "explain", help="show the compiled plan and why each rule is/isn't firing"
    )
    add_common(explain)

    watch = sub.add_parser(
        "watch", help="poll the telemetry and print state transitions"
    )
    add_common(watch)
    watch.add_argument(
        "--interval",
        type=float,
        default=30.0,
        help="seconds between evaluations (default 30)",
    )
    watch.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N evaluations (default: run forever)",
    )
    watch.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the final evaluation has firing rules",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "explain":
            return _cmd_explain(args)
        return _cmd_watch(args)
    except AlertSpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
