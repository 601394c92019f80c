"""SLO/alert engine: spec validation, evaluation, transitions, CLI.

Ends with the acceptance scenario: a seeded fault-injection run whose
quarantined problems fire the failure-rate burn alert, with every alert
event and log record joining the run's trace tree on a span id.
"""

import json
import sys

import pytest

from repro.observe import alerts as alerts_mod
from repro.observe.alerts import (
    AlertSpecError,
    alert_spec_from_dict,
    compile_plan,
    evaluate,
    load_alert_spec,
    load_alert_state,
    write_alert_state,
)
from repro.observe.history import HISTORY_SCHEMA, RunHistory
from repro.observe.metrics import MetricsRegistry, write_prometheus


def spec_doc(rules=None):
    return {
        "slo": {"name": "test", "title": "Test SLOs"},
        "rule": rules
        or [
            {
                "name": "failures-max",
                "kind": "threshold",
                "metric": "repro_problem_failures_total",
                "max": 0,
            }
        ],
    }


def burn_rule(**over):
    rule = {
        "name": "failure-burn",
        "kind": "burn_rate",
        "severity": "page",
        "numerator": "summary.failures",
        "denominator": "summary.problems",
        "objective": 0.999,
        "long_window": 24,
        "short_window": 4,
        "factor": 2.0,
    }
    rule.update(over)
    return rule


def history_records(failures, problems=1000, wall=0.5):
    return [
        {
            "schema": HISTORY_SCHEMA,
            "ts": float(i),
            "span_id": f"batch:{i}",
            "summary": {"failures": f, "problems": problems, "wall_s": wall},
        }
        for i, f in enumerate(failures)
    ]


class TestSpecValidation:
    def test_minimal_spec_parses(self):
        spec = alert_spec_from_dict(spec_doc())
        assert spec.name == "test"
        (rule,) = spec.rules
        assert rule.kind == "threshold"
        assert rule.severity == "ticket"  # default

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("slo"), "slo"),
            (lambda d: d.pop("rule"), "rule"),
            (lambda d: d.update(rule=[]), "rule"),
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d["slo"].update(owner="x"), "unknown key"),
        ],
    )
    def test_structural_errors(self, mutate, match):
        doc = spec_doc()
        mutate(doc)
        with pytest.raises(AlertSpecError, match=match):
            alert_spec_from_dict(doc)

    @pytest.mark.parametrize(
        "rule, match",
        [
            ({"name": "x", "kind": "pager"}, "unknown kind"),
            ({"kind": "threshold", "metric": "m", "max": 1}, "name"),
            ({"name": "x", "kind": "threshold", "metric": "m"}, "exactly one"),
            (
                {"name": "x", "kind": "threshold", "metric": "m", "max": 1, "min": 0},
                "exactly one",
            ),
            ({"name": "x", "kind": "threshold", "max": 1}, "metric"),
            (
                {"name": "x", "kind": "threshold", "metric": "m", "max": 1,
                 "severity": "sev1"},
                "severity",
            ),
            (
                {"name": "x", "kind": "threshold", "metric": "m", "max": 1,
                 "window": 4},
                "unknown key",
            ),
            (
                {"name": "x", "kind": "threshold", "metric": "m", "max": 1,
                 "quantile": 1.5},
                "quantile",
            ),
            ({"name": "x", "kind": "delta", "gauge": "g", "window": 0}, "window"),
            (
                {"name": "x", "kind": "delta", "gauge": "g", "direction": "up"},
                "direction",
            ),
            (burn_rule(objective=1.0), "objective"),
            (burn_rule(short_window=30), "short_window"),
            (burn_rule(numerator=None), "numerator"),
        ],
    )
    def test_rule_errors(self, rule, match):
        with pytest.raises(AlertSpecError, match=match):
            alert_spec_from_dict(spec_doc([rule]))

    def test_duplicate_rule_names_rejected(self):
        doc = spec_doc()
        doc["rule"] = doc["rule"] * 2
        with pytest.raises(AlertSpecError, match="duplicate"):
            alert_spec_from_dict(doc)


class TestPlanFingerprint:
    def test_deterministic_and_key_order_invariant(self):
        a = compile_plan(alert_spec_from_dict(spec_doc()))
        reordered = {
            "rule": spec_doc()["rule"],
            "slo": {"title": "Test SLOs", "name": "test"},
        }
        b = compile_plan(alert_spec_from_dict(reordered))
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == 64

    def test_semantic_edit_changes_fingerprint(self):
        base = compile_plan(alert_spec_from_dict(spec_doc()))
        doc = spec_doc()
        doc["rule"][0]["max"] = 5
        assert compile_plan(alert_spec_from_dict(doc)).fingerprint != base.fingerprint
        doc = spec_doc()
        doc["rule"][0]["severity"] = "page"
        assert compile_plan(alert_spec_from_dict(doc)).fingerprint != base.fingerprint

    def test_json_and_toml_files_agree(self, tmp_path):
        if sys.version_info < (3, 11):
            pytest.skip("TOML specs need Python 3.11+ (stdlib tomllib)")
        json_path = tmp_path / "slo.json"
        json_path.write_text(json.dumps(spec_doc()))
        toml_path = tmp_path / "slo.toml"
        toml_path.write_text(
            '[slo]\nname = "test"\ntitle = "Test SLOs"\n\n'
            "[[rule]]\n"
            'name = "failures-max"\nkind = "threshold"\n'
            'metric = "repro_problem_failures_total"\nmax = 0\n'
        )
        assert (
            compile_plan(load_alert_spec(json_path)).fingerprint
            == compile_plan(load_alert_spec(toml_path)).fingerprint
        )

    @pytest.mark.parametrize(
        "name, body, match",
        [
            ("slo.json", "{ torn", "invalid JSON"),
            ("slo.yaml", "slo:\n", ".toml or .json"),
            ("absent.json", None, "cannot read"),
        ],
    )
    def test_load_errors(self, tmp_path, name, body, match):
        path = tmp_path / name
        if body is not None:
            path.write_text(body)
        with pytest.raises(AlertSpecError, match=match):
            load_alert_spec(path)

    def test_toml_gated_below_311(self, tmp_path):
        if sys.version_info >= (3, 11):
            pytest.skip("gate only reachable without stdlib tomllib")
        path = tmp_path / "slo.toml"
        path.write_text('[slo]\nname = "x"\n')
        with pytest.raises(AlertSpecError, match="3.11"):
            load_alert_spec(path)


class TestThresholdEval:
    def _plan(self, **over):
        rule = {
            "name": "r",
            "kind": "threshold",
            "metric": "repro_problem_failures_total",
            "max": 0,
        }
        rule.update(over)
        return compile_plan(alert_spec_from_dict(spec_doc([rule])))

    def test_missing_registry_and_family_are_no_data(self):
        (result,) = evaluate(self._plan(), registry=None).results
        assert result.state == "no_data"
        (result,) = evaluate(self._plan(), registry=MetricsRegistry()).results
        assert result.state == "no_data"

    def test_max_bound(self):
        registry = MetricsRegistry()
        registry.inc("repro_problem_failures_total", 0, op="lu")
        (result,) = evaluate(self._plan(), registry).results
        assert result.state == "ok"
        registry.inc("repro_problem_failures_total", 3, op="lu")
        evaluation = evaluate(self._plan(), registry)
        (result,) = evaluation.results
        assert result.state == "firing"
        assert result.value == 3
        assert evaluation.firing == [result]

    def test_min_bound_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("hits", 5, cache="dispatch")
        registry.inc("hits", 1, cache="calibration")
        plan = self._plan(
            metric="hits", min=2, labels={"cache": "dispatch"}, max=None
        )
        (result,) = evaluate(plan, registry).results
        assert result.state == "ok"
        plan = self._plan(
            metric="hits", min=2, labels={"cache": "calibration"}, max=None
        )
        (result,) = evaluate(plan, registry).results
        assert result.state == "firing"

    def test_histogram_quantile_bound(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 9.0):
            registry.observe("wall", value, buckets=(0.5, 1.0, 10.0), op="lu")
        plan = self._plan(metric="wall", quantile=0.5, max=1.0)
        (result,) = evaluate(plan, registry).results
        assert result.state == "ok"
        plan = self._plan(metric="wall", quantile=0.99, max=1.0)
        (result,) = evaluate(plan, registry).results
        assert result.state == "firing"

    def test_histogram_without_quantile_is_no_data(self):
        registry = MetricsRegistry()
        registry.observe("wall", 0.1)
        (result,) = evaluate(self._plan(metric="wall"), registry).results
        assert result.state == "no_data"
        assert "quantile" in result.detail


class TestDeltaEval:
    def _plan(self, **over):
        rule = {
            "name": "wall-drift",
            "kind": "delta",
            "gauge": "summary.wall_s",
            "window": 4,
            "tolerance": 0.25,
            "min_history": 3,
        }
        rule.update(over)
        return compile_plan(alert_spec_from_dict(spec_doc([rule])))

    def test_insufficient_history_is_no_data(self):
        records = history_records([0, 0], wall=0.5)
        (result,) = evaluate(self._plan(), records=records).results
        assert result.state == "no_data"

    def test_regression_fires_improvement_is_quiet(self):
        quiet = history_records([0] * 6, wall=0.5)
        (result,) = evaluate(self._plan(), records=quiet).results
        assert result.state == "ok"
        slow = quiet + history_records([0], wall=1.0)
        (result,) = evaluate(self._plan(), records=slow).results
        assert result.state == "firing"
        assert result.value == pytest.approx(1.0)  # +100% vs median
        fast = quiet + history_records([0], wall=0.1)
        (result,) = evaluate(self._plan(), records=fast).results
        assert result.state == "ok"

    def test_direction_override(self):
        # With "higher is better" forced, a wall-time *drop* fires.
        records = history_records([0] * 6, wall=0.5)
        records += history_records([0], wall=0.1)
        plan = self._plan(direction="higher")
        (result,) = evaluate(plan, records=records).results
        assert result.state == "firing"

    def test_zero_median_is_no_data(self):
        records = history_records([0] * 6, wall=0.0)
        (result,) = evaluate(self._plan(), records=records).results
        assert result.state == "no_data"

    def test_gauge_missing_from_latest_is_no_data(self):
        # An old sample is not the latest run: no verdict.
        records = history_records([0] * 6, wall=0.5)
        records += history_records([0], wall=5.0)
        del records[-1]["summary"]["wall_s"]
        (result,) = evaluate(self._plan(), records=records).results
        assert result.state == "no_data"

    def test_pattern_keeps_direction_per_gauge(self):
        plan = self._plan(gauge="summary.*")
        (rule,) = plan.rules
        assert "direction" not in rule.to_dict()
        records = history_records([0] * 6, wall=0.5)
        records += history_records([0], wall=1.0)
        records[-1]["summary"]["problems"] = 500  # higher is better: -50%
        (result,) = evaluate(plan, records=records).results
        assert result.state == "firing"
        flags = {f["gauge"]: f["direction"] for f in result.evidence["flags"]}
        assert flags == {"summary.wall_s": "lower", "summary.problems": "higher"}
        assert result.evidence["checked"] == 2  # failures' median is 0
        assert "direction per gauge" in alerts_mod._explain_rule(rule, result)

    @pytest.mark.parametrize("scale, state", [(1.47, "firing"), (0.71, "ok")])
    def test_cycle_counts_are_lower_is_better(self, scale, state):
        # A +47% cycle rise is a regression; a -29% drop is not.
        def record(cycles):
            return {
                "attribution": [
                    {"label": "lu", "measured_total": cycles, "eq_total": cycles}
                ],
                "regimes": [{"regime": "latency-bound", "measured_cycles": cycles}],
            }

        records = [record(17278.0)] * 6 + [record(17278.0 * scale)]
        (result,) = evaluate(self._plan(gauge="*"), records=records).results
        assert result.state == state
        flagged = sorted(f["gauge"] for f in result.evidence["flags"])
        assert flagged == (
            [
                "attribution.lu.eq_total",
                "attribution.lu.measured_total",
                "regimes.latency-bound.measured_cycles",
            ]
            if state == "firing"
            else []
        )


class TestBurnEval:
    def _plan(self, **over):
        return compile_plan(alert_spec_from_dict(spec_doc([burn_rule(**over)])))

    def test_no_records_is_no_data(self):
        (result,) = evaluate(self._plan()).results
        assert result.state == "no_data"

    def test_quiet_history_is_ok(self):
        records = history_records([0, 1, 0, 0, 1, 0])
        (result,) = evaluate(self._plan(), records=records).results
        assert result.state == "ok"

    def test_failure_burst_fires_both_windows(self):
        records = history_records([0] * 10 + [50, 60, 50, 40])
        evaluation = evaluate(self._plan(), records=records)
        (result,) = evaluation.results
        assert result.state == "firing"
        assert result.evidence["short_burn"] >= 2.0
        assert result.evidence["long_burn"] >= 2.0

    def test_recovered_burst_does_not_fire(self):
        # Heavy failures long ago, clean short window: the multi-window
        # condition holds the page until the budget is *actively* burning.
        records = history_records([500] * 4 + [0] * 8)
        (result,) = evaluate(self._plan(), records=records).results
        assert result.state == "ok"
        assert result.evidence["long_burn"] >= 2.0
        assert result.evidence["short_burn"] < 2.0

    def test_zero_denominator_is_no_data(self):
        records = history_records([0, 0], problems=0)
        (result,) = evaluate(self._plan(short_window=1, long_window=2),
                             records=records).results
        assert result.state == "no_data"


class TestTransitions:
    def _plan(self):
        return compile_plan(alert_spec_from_dict(spec_doc([burn_rule()])))

    def test_firing_resolved_cycle(self):
        plan = self._plan()
        bad = history_records([0] * 4 + [100] * 4)
        first = evaluate(plan, records=bad)
        (event,) = first.events
        assert event.transition == "firing"
        assert event.severity == "page"
        # Still firing: no repeat event.
        second = evaluate(plan, records=bad, previous=first.states)
        assert second.events == ()
        good = bad + history_records([0] * 24)
        third = evaluate(plan, records=good, previous=second.states)
        (event,) = third.events
        assert event.transition == "resolved"

    def test_no_data_carries_previous_state(self):
        plan = self._plan()
        firing = evaluate(plan, records=history_records([0] * 4 + [100] * 4))
        assert firing.states == {"failure-burn": "firing"}
        # Telemetry vanishes: state carries, and nothing "resolves".
        lost = evaluate(plan, records=[], previous=firing.states)
        (result,) = lost.results
        assert result.state == "no_data"
        assert lost.states == {"failure-burn": "firing"}
        assert lost.events == ()

    def test_event_and_result_carry_latest_span(self):
        plan = self._plan()
        evaluation = evaluate(plan, records=history_records([0] * 4 + [100] * 4))
        (result,) = evaluation.results
        (event,) = evaluation.events
        assert result.span_id == "batch:7"
        assert event.span_id == "batch:7"


class TestStatePersistence:
    def test_round_trip(self, tmp_path):
        plan = compile_plan(alert_spec_from_dict(spec_doc([burn_rule()])))
        evaluation = evaluate(plan, records=history_records([0] * 4 + [100] * 4))
        path = write_alert_state(tmp_path / "alerts.json", evaluation)
        doc = load_alert_state(path)
        assert doc["slo"] == "test"
        assert doc["fingerprint"] == plan.fingerprint
        assert doc["states"] == {"failure-burn": "firing"}
        assert doc["results"][0]["rule"] == "failure-burn"
        assert doc["events"][0]["transition"] == "firing"

    def test_missing_or_corrupt_state_is_none(self, tmp_path):
        assert load_alert_state(tmp_path / "absent.json") is None
        path = tmp_path / "bad.json"
        path.write_text("{ torn")
        assert load_alert_state(path) is None
        path.write_text(json.dumps({"schema": 999}))
        assert load_alert_state(path) is None

    def test_fingerprint_mismatch_discards_previous(self, tmp_path):
        plan = compile_plan(alert_spec_from_dict(spec_doc([burn_rule()])))
        evaluation = evaluate(plan, records=history_records([0] * 4 + [100] * 4))
        path = write_alert_state(tmp_path / "alerts.json", evaluation)
        doc = load_alert_state(path)
        assert alerts_mod._previous_states(doc, plan) == {
            "failure-burn": "firing"
        }
        edited = compile_plan(
            alert_spec_from_dict(spec_doc([burn_rule(factor=5.0)]))
        )
        assert alerts_mod._previous_states(doc, edited) == {}


class TestCli:
    def _write_inputs(self, tmp_path, failures=(0, 0, 0, 0)):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps(spec_doc([burn_rule()])))
        history = RunHistory(tmp_path / "history.jsonl", max_bytes=None)
        for record in history_records(list(failures)):
            history.append(record)
        registry = MetricsRegistry()
        registry.inc("repro_runtime_launches_total", len(failures), mode="process")
        metrics = write_prometheus(registry, tmp_path / "metrics.prom")
        return spec, history.path, metrics

    def _check(self, tmp_path, *extra, failures=(0, 0, 0, 0)):
        spec, history, metrics = self._write_inputs(tmp_path, failures)
        return alerts_mod.main(
            [
                "check",
                str(spec),
                "--history",
                str(history),
                "--metrics",
                str(metrics),
                "--state",
                str(tmp_path / "alerts.json"),
                *extra,
            ]
        )

    def test_quiet_check_exits_zero(self, tmp_path, capsys):
        assert self._check(tmp_path, "--strict") == 0
        out = capsys.readouterr().out
        assert "all quiet" in out
        assert "failure-burn" in out

    def test_strict_firing_exits_one(self, tmp_path, capsys):
        assert self._check(tmp_path, "--strict", failures=(0, 100, 100, 100)) == 1
        out = capsys.readouterr().out
        assert "FIRING" in out
        assert "alert firing: failure-burn [page]" in out

    def test_firing_without_strict_exits_zero(self, tmp_path):
        assert self._check(tmp_path, failures=(0, 100, 100, 100)) == 0

    def test_check_persists_state_and_json(self, tmp_path):
        export = tmp_path / "out.json"
        self._check(tmp_path, "--json", str(export))
        for path in (tmp_path / "alerts.json", export):
            doc = load_alert_state(path)
            assert doc is not None
            assert doc["states"] == {"failure-burn": "ok"}

    def test_transition_fires_once_across_checks(self, tmp_path, capsys):
        self._check(tmp_path, failures=(0, 100, 100, 100))
        assert "alert firing" in capsys.readouterr().out
        # Same telemetry, same state file: no new transition.
        spec, history, metrics = self._write_inputs(tmp_path, (0, 100, 100, 100))
        alerts_mod.main(
            ["check", str(spec), "--history", str(history),
             "--metrics", str(metrics), "--state", str(tmp_path / "alerts.json")]
        )
        assert "alert firing" not in capsys.readouterr().out

    def test_spec_error_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(spec_doc([{"name": "x", "kind": "pager"}])))
        assert alerts_mod.main(["check", str(spec)]) == 2
        assert "spec error" in capsys.readouterr().err

    def test_explain_shows_plan(self, tmp_path, capsys):
        spec, history, metrics = self._write_inputs(tmp_path)
        assert (
            alerts_mod.main(
                ["explain", str(spec), "--history", str(history),
                 "--metrics", str(metrics)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "plan fingerprint" in out
        assert "summary.failures/summary.problems" in out

    def test_watch_iterations_and_strict(self, tmp_path, capsys):
        spec, history, metrics = self._write_inputs(tmp_path, (0, 100, 100, 100))
        code = alerts_mod.main(
            ["watch", str(spec), "--history", str(history),
             "--metrics", str(metrics), "--iterations", "2",
             "--interval", "0.01", "--strict"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "firing: failure-burn" in out

    def test_check_mirrors_events_into_log(self, tmp_path):
        from repro.observe import log as obslog
        from repro.observe.log import StructuredLogger, read_log

        sink = tmp_path / "events.jsonl"
        previous_flag = obslog.set_log_enabled(True)
        previous_sink = obslog.set_default_logger(StructuredLogger(sink))
        try:
            self._check(tmp_path, failures=(0, 100, 100, 100))
        finally:
            obslog.set_log_enabled(previous_flag)
            obslog.set_default_logger(previous_sink)
        (record,) = [r for r in read_log(sink) if r["event"] == "alert.firing"]
        assert record["level"] == "error"  # page -> error
        assert record["fields"]["rule"] == "failure-burn"
        assert record["span_id"] == "batch:3"


class TestDefaultSpec:
    """The shipped default SLO spec parses and stays quiet when healthy."""

    def _spec_path(self):
        from pathlib import Path

        return (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "specs"
            / "slo_default.json"
        )

    def test_compiles_with_expected_rules(self):
        plan = compile_plan(load_alert_spec(self._spec_path()))
        names = {rule.name for rule in plan.rules}
        assert names == {
            "chunk-wall-p99",
            "trace-drops",
            "serial-fallback",
            "drift",
            "merge-budget",
            "costcheck-mismatch",
            "failure-burn",
        }
        burn = next(r for r in plan.rules if r.name == "failure-burn")
        assert burn.severity == "page"
        drift = next(r for r in plan.rules if r.name == "drift")
        assert (drift.gauge, drift.tolerance, drift.window, drift.min_history) == (
            "*", 0.10, 8, 3
        )
        assert drift.direction is None

    def test_quiet_on_healthy_telemetry(self):
        plan = compile_plan(load_alert_spec(self._spec_path()))
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            registry.observe("repro_chunk_wall_seconds", value, op="lu")
        records = history_records([0] * 6)
        evaluation = evaluate(plan, registry, records)
        assert evaluation.firing == []


class TestFaultInjectionAcceptance:
    """Seeded faults + singular victims -> failure-burn pages, spans join."""

    def test_quarantined_run_fires_failure_burn_with_resolvable_spans(
        self, tmp_path
    ):
        from repro.kernels.batched import diagonally_dominant_batch
        from repro.model.flops import lu_flops
        from repro.observe import log as obslog
        from repro.observe import metrics as metrics_mod
        from repro.observe import tracing
        from repro.observe.log import StructuredLogger, read_log
        from repro.observe.profile import build_span_trees
        from repro.resilience import FaultSpec
        from repro.runtime import BatchRuntime, ProblemBatch

        matrices = diagonally_dominant_batch(32, 6, seed=0)
        matrices[3] = 0.0  # planted singular victims -> quarantine
        matrices[20] = 0.0
        history_path = tmp_path / "history.jsonl"
        sink = tmp_path / "events.jsonl"

        registry = metrics_mod.MetricsRegistry()
        previous_registry = metrics_mod.set_default_registry(registry)
        previous_metrics = metrics_mod.set_metrics_enabled(True)
        previous_flag = obslog.set_log_enabled(True)
        previous_sink = obslog.set_default_logger(StructuredLogger(sink))
        try:
            runtime = BatchRuntime(
                use_caches=False,
                workers=2,
                chunk_cost=lu_flops(6) * 8,
                history=history_path,
                faults=FaultSpec(kind="crash", chunks=(0,), count=1),
            )
            with tracing() as tracer:
                report = runtime.run(ProblemBatch.single("lu", matrices))
        finally:
            obslog.set_log_enabled(previous_flag)
            obslog.set_default_logger(previous_sink)
            metrics_mod.set_default_registry(previous_registry)
            metrics_mod.set_metrics_enabled(previous_metrics)

        # The crash was recovered; the singular problems were quarantined.
        assert [f.index for f in report.failures] == [3, 20]
        assert report.profile is not None
        scope = report.profile.scope

        # The history record joins the run by span id.
        (record,) = RunHistory(history_path).load()
        assert record["span_id"] == scope
        assert record["summary"]["failures"] == 2

        # The failure-rate burn alert fires on this run's telemetry.
        plan = compile_plan(alert_spec_from_dict(spec_doc([burn_rule()])))
        evaluation = evaluate(plan, registry, RunHistory(history_path).load())
        (result,) = evaluation.results
        assert result.state == "firing"
        (event,) = evaluation.events
        assert event.transition == "firing"
        assert event.severity == "page"

        # Every alert event and span-stamped log record resolves in the
        # run's trace tree -- alert, log line, flamegraph span: one id.
        trees = build_span_trees(tracer.events, scope=scope)
        span_ids = set()

        def walk(node):
            span_ids.add(node.span_id)
            for child in node.children:
                walk(child)

        for root in trees:
            walk(root)
        assert event.span_id == scope
        assert scope in span_ids

        log_records = read_log(sink)
        stamped = [r for r in log_records if r["span_id"] is not None]
        assert stamped, "fault run left no span-stamped log records"
        for log_record in stamped:
            assert log_record["span_id"] in span_ids, (
                f"log record {log_record['event']!r} span "
                f"{log_record['span_id']!r} not in the trace tree"
            )
        events = {r["event"] for r in log_records}
        assert {"runtime.plan", "worker.attempt", "runtime.quarantine",
                "resilience.retry", "runtime.launch"} <= events
