"""Timeline CLI: trace round trip, budgets, strict gating, artifacts."""

import json

import numpy as np
import pytest

from repro.observe import tracing, write_chrome_trace
from repro.observe.tracer import Tracer
from repro.observe.profile import (
    PROFILE_CATEGORY,
    ProfileEmitter,
    build_span_trees,
    compute_profile,
)
from repro.observe.timeline import (
    DEFAULT_BUDGETS,
    check_budgets,
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
        assert DEFAULT_BUDGETS == {"merge": 0.10}

    def test_scripted_decomposition_is_exact(self, within_budget, over_budget):
        within = _profile(within_budget)
        assert within.wall_s == 1.0
        assert within.phases == {**SCRIPTED_PHASES, "merge": 0.0625, "other": 0.0625}
        over = _profile(over_budget)
        assert over.phases == {**SCRIPTED_PHASES, "merge": 0.125, "other": 0.0}

    def test_check_budgets_flags_overrun(self, trace_path):
        profile = _profile(trace_path)
        assert check_budgets(profile, {"compute": 1.0}) == []
        violations = check_budgets(profile, {"compute": 1e-9})
        assert violations and "compute" in violations[0]


class TestCli:
    def test_renders_and_passes_strict(self, within_budget, capsys):
        assert main([str(within_budget), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "Latency decomposition" in out
        assert "Critical path" in out
        assert "Stragglers" in out
        assert "Chunk wall quantiles" in out
        assert "budgets satisfied" in out

    def test_default_merge_budget_fails_strict(self, over_budget, capsys):
        assert main([str(over_budget), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "budget violation" in out
        assert "'merge' used 12.5% of the wall (budget 10.0%)" in out
        assert main([str(over_budget)]) == 0

    def test_budget_violation_exits_1_under_strict(self, trace_path, capsys):
        code = main([str(trace_path), "--strict", "--budget", "compute=0.000001"])
        assert code == 1
        assert "budget violation" in capsys.readouterr().out

    def test_violation_without_strict_exits_0(self, trace_path, capsys):
        assert main([str(trace_path), "--budget", "compute=0.000001"]) == 0

    def test_unknown_phase_budget_rejected(self, trace_path, capsys):
        with pytest.raises(SystemExit):
            main([str(trace_path), "--budget", "blend=0.5"])

    def test_json_artifact(self, within_budget, tmp_path, capsys):
        out_path = tmp_path / "timeline.json"
        assert main([str(within_budget), "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["violations"] == []
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
        assert main([str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "no batch span tree" in out


class TestRenderTimeline:
    def test_reports_each_batch_root(self, trace_path):
        events = load_profile_events(trace_path)
        text, profiles = render_timeline(build_span_trees(events))
        assert len(profiles) == 1
        assert profiles[0].chunk_walls
