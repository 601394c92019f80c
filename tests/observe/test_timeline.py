"""Timeline CLI: trace round trip, rendering, artifacts.

Phase budgets are alert rules over the profile a launch records in the
run history: the budget cases below feed each trace's profile, as a
history record, to :mod:`repro.observe.alerts`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.observe import alerts as alerts_mod
from repro.observe import tracing, write_chrome_trace
from repro.observe.alerts import (
    alert_spec_from_dict,
    compile_plan,
    evaluate,
    load_alert_spec,
)
from repro.observe.history import RunHistory, run_record
from repro.observe.tracer import Tracer
from repro.observe.profile import (
    PROFILE_CATEGORY,
    ProfileEmitter,
    build_span_trees,
    compute_profile,
)
from repro.observe.timeline import (
    load_profile_events,
    main,
    render_timeline,
)
from repro.runtime.executor import BatchRuntime
from repro.runtime.sharding import ProblemBatch


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A real traced pooled run's Chrome trace, written once.

    Mirrors the CI quickstart shape (multi-worker pool).  Its phase
    shares move with machine load, so it backs the structural round-trip
    assertions only; budget verdicts are tested on scripted traces.
    """
    rng = np.random.default_rng(7)
    mats = rng.standard_normal((128, 8, 8))
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    runtime = BatchRuntime(
        workers=2, chunk_cost=8 * 8 * 8 * 4, use_caches=False, history=False
    )
    with tracing() as tracer:
        report = runtime.run(ProblemBatch.single("lu", mats))
    assert report.profile is not None
    write_chrome_trace(tracer, path)
    return path


#: Phase seconds of the scripted one-second batch before its merge: two
#: chunks run back to back, each submitted for 1/64 s and then computing.
SCRIPTED_PHASES = {
    "plan": 0.0625,
    "serialize": 0.03125,
    "queue": 0.0,
    "compute": 0.78125,
    "transfer": 0.0,
}


def _scripted_trace(path, merge_s):
    """Write the Chrome trace of a scripted batch: wall 1 s, the phases of
    :data:`SCRIPTED_PHASES`, a ``merge_s`` merge, idle for the rest.
    Every stamp is a binary fraction, so the decomposition is exact."""
    tracer = Tracer()
    emit = ProfileEmitter(tracer, "batch:0")
    execute = emit.span_id("execute")
    emit.emit("plan", 0.0, 0.0625, span_id=emit.span_id("plan"), parent_id="batch:0")
    emit.emit("execute", 0.0625, 0.875, span_id=execute, parent_id="batch:0")
    for index, (start, end) in enumerate(((0.0625, 0.46875), (0.46875, 0.875))):
        chunk = emit.span_id(f"chunk:{index}")
        emit.emit("chunk", start, end, span_id=chunk, parent_id=execute, chunk=index)
        emit.emit(
            "submit", start, start + 0.015625,
            span_id=f"{chunk}/submit:0", parent_id=chunk,
        )
        emit.emit(
            "attempt", start + 0.015625, end,
            span_id=f"{chunk}/attempt:0", parent_id=chunk, worker=101 + index,
        )
    emit.emit(
        "merge", 0.875, 0.875 + merge_s, span_id=emit.span_id("merge"),
        parent_id="batch:0",
    )
    emit.emit("batch", 0.0, 1.0, span_id="batch:0", parent_id=None)
    write_chrome_trace(tracer, path)
    return path


@pytest.fixture
def within_budget(tmp_path):
    """Scripted batch whose merge takes 6.25% of the wall."""
    return _scripted_trace(tmp_path / "within.json", merge_s=0.0625)


@pytest.fixture
def over_budget(tmp_path):
    """Scripted batch whose merge takes 12.5% of the wall."""
    return _scripted_trace(tmp_path / "over.json", merge_s=0.125)


def _profile(path):
    roots = build_span_trees(load_profile_events(path))
    return compute_profile(next(r for r in roots if r.name == "batch"))


DEFAULT_SPEC = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "specs" / "slo_default.json"
)


def _merge_budget_rule():
    spec = load_alert_spec(DEFAULT_SPEC)
    return next(r for r in spec.rules if r.name == "merge-budget")


def _phase_budget(phase, share):
    """A one-record burn rule: ``phase`` may take ``share`` of the wall."""
    return {
        "name": f"{phase}-budget",
        "kind": "burn_rate",
        "numerator": f"profile.phases.{phase}",
        "denominator": "profile.wall_s",
        "objective": 1.0 - share,
        "long_window": 1,
        "short_window": 1,
        "factor": 1.0,
    }


def _record(path):
    """The history record a launch with ``path``'s profile leaves."""
    return run_record({}, profile=_profile(path).summary(), span_id="batch:0")


def _budget_result(path, rule):
    """A budget rule over the profile of ``path``'s batch."""
    plan = compile_plan(alert_spec_from_dict({"slo": {"name": "t"}, "rule": [rule]}))
    (result,) = evaluate(plan, records=[_record(path)]).results
    return result


def _alerts_check(tmp_path, path, rule, *extra):
    """``alerts check`` over a history holding ``path``'s profile."""
    spec = tmp_path / "budget.json"
    spec.write_text(json.dumps({"slo": {"name": "t"}, "rule": [rule]}))
    history = RunHistory(tmp_path / "history.jsonl", max_bytes=None)
    history.append(_record(path))
    return alerts_mod.main(
        ["check", str(spec), "--history", str(history.path),
         "--metrics", str(tmp_path / "absent.json"),
         "--state", str(tmp_path / "alerts.json"), *extra]
    )


class TestLoadProfileEvents:
    def test_round_trip_preserves_span_tree(self, trace_path):
        events = load_profile_events(trace_path)
        assert events and all(e.category == PROFILE_CATEGORY for e in events)
        roots = build_span_trees(events)
        batch = next(r for r in roots if r.name == "batch")
        assert batch.find("execute") is not None
        assert batch.find("attempt") is not None

    def test_timestamps_back_in_seconds(self, trace_path):
        events = load_profile_events(trace_path)
        batch = max(events, key=lambda e: e.dur)
        # A tiny serial batch runs in well under a minute.
        assert 0.0 < batch.dur < 60.0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_profile_events(tmp_path / "absent.json")


class TestBudgets:
    def test_default_budget_caps_merge(self):
        # The latest profiled launch's merge may take 10% of its wall.
        rule = _merge_budget_rule()
        assert (rule.kind, rule.numerator, rule.denominator) == (
            "burn_rate", "profile.phases.merge", "profile.wall_s"
        )
        assert 1.0 - rule.objective == pytest.approx(0.10)
        assert (rule.long_window, rule.short_window, rule.factor) == (1, 1, 1.0)

    def test_scripted_decomposition_is_exact(self, within_budget, over_budget):
        within = _profile(within_budget)
        assert within.wall_s == 1.0
        assert within.phases == {**SCRIPTED_PHASES, "merge": 0.0625, "other": 0.0625}
        over = _profile(over_budget)
        assert over.phases == {**SCRIPTED_PHASES, "merge": 0.125, "other": 0.0}

    def test_check_budgets_flags_overrun(self, trace_path):
        result = _budget_result(trace_path, _phase_budget("compute", 1.0))
        assert result.state == "ok"
        result = _budget_result(trace_path, _phase_budget("compute", 1e-9))
        assert result.state == "firing"
        assert result.evidence["numerator"] == "profile.phases.compute"


class TestCli:
    def test_renders_and_passes_strict(self, within_budget, tmp_path, capsys):
        assert main([str(within_budget)]) == 0
        out = capsys.readouterr().out
        assert "Latency decomposition" in out
        assert "Critical path" in out
        assert "Stragglers" in out
        assert "Chunk wall quantiles" in out
        rule = _merge_budget_rule().to_dict()
        assert _alerts_check(tmp_path, within_budget, rule, "--strict") == 0

    def test_default_merge_budget_fails_strict(self, over_budget, tmp_path, capsys):
        # The timeline renders the overrun; the alert gate fails on it.
        assert main([str(over_budget)]) == 0
        assert "12.5%" in capsys.readouterr().out
        rule = _merge_budget_rule().to_dict()
        assert _alerts_check(tmp_path, over_budget, rule, "--strict") == 1
        out = capsys.readouterr().out
        assert "merge-budget" in out and "FIRING" in out
        assert "burn 1.25x/1.25x budget" in out

    def test_budget_violation_exits_1_under_strict(self, trace_path, tmp_path, capsys):
        rule = _phase_budget("compute", 1e-9)
        assert _alerts_check(tmp_path, trace_path, rule, "--strict") == 1
        assert "alert firing: compute-budget" in capsys.readouterr().out

    def test_violation_without_strict_exits_0(self, trace_path, tmp_path, capsys):
        rule = _phase_budget("compute", 1e-9)
        assert _alerts_check(tmp_path, trace_path, rule) == 0

    def test_unknown_phase_budget_rejected(self, trace_path, capsys):
        # A budget on a phase the profile lacks has no verdict, and the
        # timeline itself takes no gating options.
        result = _budget_result(trace_path, _phase_budget("blend", 0.5))
        assert result.state == "no_data"
        for option in (["--budget", "merge=0.5"], ["--strict"]):
            with pytest.raises(SystemExit):
                main([str(trace_path), *option])

    def test_json_artifact(self, within_budget, tmp_path, capsys):
        out_path = tmp_path / "timeline.json"
        assert main([str(within_budget), "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"trace", "batches"}
        (batch,) = doc["batches"]
        assert batch["scope"].startswith("batch:")
        assert sum(batch["phases"].values()) == pytest.approx(
            batch["wall_s"], rel=1e-6
        )

    def test_flamegraph_artifact(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "flame.collapsed"
        assert main([str(trace_path), "--flamegraph", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert any(line.startswith("batch;execute;chunk") for line in lines)
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2

    def test_truncated_trace_degrades(self, tmp_path, capsys):
        # Only an orphaned chunk span survived the ring buffer: the CLI
        # must warn and pass, not crash or fail the gate.
        doc = {
            "traceEvents": [
                {
                    "name": "chunk",
                    "cat": "profile",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": 1000.0,
                    "args": {
                        "span_id": "batch:0/chunk:0",
                        "parent_id": "batch:0/execute",
                        "chunk": 0,
                    },
                }
            ]
        }
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "no batch span tree" in out


class TestRenderTimeline:
    def test_reports_each_batch_root(self, trace_path):
        events = load_profile_events(trace_path)
        text, profiles = render_timeline(build_span_trees(events))
        assert len(profiles) == 1
        assert profiles[0].chunk_walls
