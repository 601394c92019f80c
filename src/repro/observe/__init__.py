"""Observability for the simulated GPU stack.

Three layers, all zero-dependency and off-by-default:

* **event tracing** (:mod:`repro.observe.tracer`) -- a thread-local,
  ring-buffer-backed structured tracer that the block engine, memory
  system, dispatch ranking, microbenchmarks, and the STAP pipeline emit
  into when (and only when) one is activated with :func:`tracing`;
* **hardware counters** (:mod:`repro.observe.counters`) -- FLOP groups,
  shared/global transactions, bank-conflict replays, syncs, spill
  accesses, cache and DRAM-row hits, aggregated per launch and per
  pipeline stage;
* **attribution** (:mod:`repro.observe.attribution`) -- the measured
  counters mapped back onto the Eq. 1/Eq. 2 model terms, with a per-term
  residual table that makes the Figure-8 "overhead wedge" a first-class
  artifact.

The file layer (:mod:`repro.observe.export`) writes and reads the
system's JSONL records, atomic documents and spec files, and exports
Chrome ``trace_event`` JSON (chrome://tracing, Perfetto) and flat
metrics records for the benchmark trajectory.

On top of the per-launch layers sits the fleet telemetry added in PR 3:

* **labeled metrics** (:mod:`repro.observe.metrics`) -- a mergeable
  Prometheus-shaped registry of counters/gauges/histograms the sharded
  runtime, caches, and kernels write into;
* **regime classification** (:mod:`repro.observe.regime`) -- each
  launch labeled compute-/DRAM-bandwidth-/latency-/sync-bound from its
  attribution term shares;
* **run history** (:mod:`repro.observe.history`) -- a JSONL store of
  per-launch summaries, flattened into direction-aware gauges and
  rendered by ``python -m repro.observe.report``;
* **critical-path profiling** (:mod:`repro.observe.profile`) -- every
  traced batch run emits a cross-process span tree
  (``batch -> plan/execute -> chunk -> submit/attempt -> merge``) whose
  latency decomposition, critical path, straggler index, and flamegraph
  land on :attr:`BatchReport.profile <repro.runtime.merge.BatchReport>`
  and replay from a trace file via ``python -m repro.observe.timeline``.
* **SLOs, alerts, and structured logs** (:mod:`repro.observe.alerts`,
  :mod:`repro.observe.log`) -- declarative threshold / delta (drift) /
  burn-rate (error and phase budget) rules over the registry and
  history, compiled into a fingerprinted :class:`AlertPlan` and
  exit-coded by ``python -m repro.observe.alerts``, the one engine that
  judges telemetry; plus a ``REPRO_LOG``-gated JSONL
  logger whose records carry the profiler's span ids, so an alert, a
  log line, and a flamegraph span join on one id.
* **one call per host fact** (:mod:`repro.observe.events`) --
  :func:`emit` sends each host fact to the trace, the log and the
  metrics through one declarative event table.

See ``docs/observability.md`` for a walkthrough.
"""

from .counters import CounterRegistry, CounterStat
from .tracer import (
    DEFAULT_CAPACITY,
    ClockOrigin,
    Event,
    Span,
    Tracer,
    TraceTape,
    add_counter,
    current_tracer,
    instant,
    record_tape,
    set_tracer,
    span,
    tracing,
)

#: Attribution pulls in the model layer and the alert engine the table
#: renderer; these submodules load on first access so that importing the
#: engine (which imports this package for the tracer hooks) stays
#: cycle-free and cheap.
_LAZY = {
    # attribution + exporters
    "TermAttribution": "attribution",
    "AttributionReport": "attribution",
    "attribute_launch": "attribution",
    "format_attribution": "attribution",
    "atomic_write_text": "export",
    "chrome_trace": "export",
    "write_chrome_trace": "export",
    "metrics_record": "export",
    "read_metrics": "export",
    "write_metrics": "export",
    # fleet metrics / regimes / history
    "DEFAULT_BUCKETS": "metrics",
    "HistogramValue": "metrics",
    "MetricsRegistry": "metrics",
    "counter_inc": "metrics",
    "default_registry": "metrics",
    "default_snapshot_path": "metrics",
    "gauge_set": "metrics",
    "histogram_observe": "metrics",
    "load_metrics_snapshot": "metrics",
    "metrics_enabled": "metrics",
    "parse_prometheus_text": "metrics",
    "prometheus_text": "metrics",
    "set_default_registry": "metrics",
    "set_metrics_enabled": "metrics",
    "write_prometheus": "metrics",
    "REGIMES": "regime",
    "RegimeClassification": "regime",
    "classify_regime": "regime",
    "record_regime": "regime",
    "HISTORY_SCHEMA": "history",
    "RunHistory": "history",
    "default_history_path": "history",
    "gauge_direction": "history",
    "record_gauges": "history",
    "run_record": "history",
    # critical-path profiler + timeline/flamegraph export
    "PHASES": "profile",
    "PROFILE_CATEGORY": "profile",
    "BatchProfile": "profile",
    "CriticalStep": "profile",
    "ProfileEmitter": "profile",
    "SpanNode": "profile",
    "build_span_trees": "profile",
    "collapsed_stacks": "profile",
    "compute_profile": "profile",
    "critical_path": "profile",
    "flow_events": "profile",
    "profiling_enabled": "profile",
    "set_profiling_enabled": "profile",
    "emit": "events",
    # structured logging + SLO/alert engine
    "LOG_SCHEMA": "log",
    "StructuredLogger": "log",
    "current_span": "log",
    "default_log_path": "log",
    "default_logger": "log",
    "env_switch": "log",
    "log_enabled": "log",
    "read_log": "log",
    "set_default_logger": "log",
    "set_log_enabled": "log",
    "span_context": "log",
    "ALERTS_SCHEMA": "alerts",
    "AlertEvent": "alerts",
    "AlertPlan": "alerts",
    "AlertRule": "alerts",
    "AlertSpecError": "alerts",
    "Evaluation": "alerts",
    "RuleResult": "alerts",
    "alert_spec_from_dict": "alerts",
    "compile_plan": "alerts",
    "default_state_path": "alerts",
    "evaluate": "alerts",
    "load_alert_spec": "alerts",
    "load_alert_state": "alerts",
    "write_alert_state": "alerts",
}


__all__ = [
    "ClockOrigin",
    "CounterRegistry",
    "CounterStat",
    "DEFAULT_CAPACITY",
    "Event",
    "Span",
    "TraceTape",
    "Tracer",
    "add_counter",
    "current_tracer",
    "instant",
    "record_tape",
    "set_tracer",
    "span",
    "tracing",
    *_LAZY,  # loaded on first access, see __getattr__
]


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
