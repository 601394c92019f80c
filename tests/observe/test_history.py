"""Run-history JSONL store: durable appends and drift detection.

Drift is the default SLO spec's ``drift`` rule (a ``delta`` over every
gauge), evaluated by :mod:`repro.observe.alerts` over these records.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.observe.alerts import compile_plan, evaluate, load_alert_spec
from repro.observe.history import (
    HISTORY_SCHEMA,
    RunHistory,
    gauge_direction,
    record_gauges,
    run_record,
)

DEFAULT_SPEC = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "specs" / "slo_default.json"
)


def drift_result(records, **over):
    """The default spec's ``drift`` rule, fields overridden by ``over``."""
    spec = load_alert_spec(DEFAULT_SPEC)
    rule = next(r for r in spec.rules if r.name == "drift")
    spec = dataclasses.replace(spec, rules=(dataclasses.replace(rule, **over),))
    (result,) = evaluate(compile_plan(spec), records=records).results
    return result


def drift_flags(records, **over):
    """The gauges the drift rule flags, largest deviation first."""
    return drift_result(records, **over).evidence.get("flags", [])


def summary(wall=0.5, gflops=100.0):
    return {
        "problems": 2048, "chunks": 4, "workers": 2, "mode": "process",
        "wall_s": wall,
        "groups": [{"op": "lu", "problems": 2048, "gflops": gflops}],
    }


def records_for(walls, gflops=None):
    return [
        run_record(summary(
            wall=wall, gflops=100.0 if gflops is None else gflops[i]
        ))
        for i, wall in enumerate(walls)
    ]


class TestRunHistory:
    def test_append_stamps_and_load_round_trips(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl")
        path = history.append({"summary": summary(), "device": "Quadro 6000"})
        assert path == history.path
        (record,) = history.load()
        assert record["schema"] == HISTORY_SCHEMA
        assert record["ts"] > 0
        assert record["device"] == "Quadro 6000"
        assert record["summary"]["problems"] == 2048

    def test_appends_accumulate_across_instances(self, tmp_path):
        path = tmp_path / "history.jsonl"
        RunHistory(path).append({"run": 1})
        RunHistory(path).append({"run": 2})
        history = RunHistory(path)
        assert len(history) == 2
        assert [r["run"] for r in history.load()] == [1, 2]

    def test_load_limit_keeps_newest(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl")
        for i in range(5):
            history.append({"run": i})
        assert [r["run"] for r in history.load(limit=2)] == [3, 4]

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        history = RunHistory(path)
        history.append({"run": "good"})
        with path.open("a") as fh:
            fh.write("{ torn lin\n")
            fh.write("\n")
            fh.write('"not a dict"\n')
            fh.write(json.dumps({"schema": HISTORY_SCHEMA + 1, "run": "new"}) + "\n")
        history.append({"run": "also good"})
        assert [r["run"] for r in history.load()] == ["good", "also good"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunHistory(tmp_path / "absent.jsonl").load() == []

    def test_clear_removes_file(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl")
        history.append({"run": 0})
        history.clear()
        assert not history.path.exists()
        history.clear()  # idempotent on a missing file

    def test_nonfinite_values_stored_as_null(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl")
        history.append({"gflops": math.nan, "wall_s": 0.5})
        (record,) = history.load()
        assert record["gflops"] is None
        assert record["wall_s"] == 0.5


class TestRunRecord:
    def test_embeds_regimes_and_attribution(self):
        class FakeClassification:
            def to_dict(self):
                return {"label": "lu", "regime": "latency-bound"}

        record = run_record(
            summary(),
            regimes=[FakeClassification(), {"label": "qr", "regime": "compute-bound"}],
            attribution=[{"label": "lu", "residual_total": 12.0}],
            device="G80",
        )
        assert record["device"] == "G80"
        assert record["regimes"][0] == {"label": "lu", "regime": "latency-bound"}
        assert record["regimes"][1]["regime"] == "compute-bound"
        assert record["attribution"][0]["residual_total"] == 12.0

    def test_empty_sections_omitted(self):
        record = run_record(summary())
        assert "regimes" not in record
        assert "attribution" not in record


class TestRecordGauges:
    def test_flattens_and_keys_lists_by_identity(self):
        gauges = record_gauges({
            "schema": HISTORY_SCHEMA,
            "ts": 123.0,
            "summary": summary(wall=0.25),
            "regimes": [{"regime": "latency-bound", "measured_cycles": 10.0}],
            "identical": True,
        })
        assert gauges["summary.wall_s"] == 0.25
        assert gauges["summary.groups.lu.gflops"] == 100.0
        assert gauges["regimes.latency-bound.measured_cycles"] == 10.0
        assert "ts" not in gauges and "schema" not in gauges
        assert "identical" not in gauges  # bools are not gauges

    def test_lists_without_identity_use_index(self):
        gauges = record_gauges({"walls": [0.1, 0.2]})
        assert gauges == {"walls.0": 0.1, "walls.1": 0.2}

    def test_nonfinite_leaves_skipped(self):
        assert record_gauges({"x": math.inf, "y": 1.0}) == {"y": 1.0}


class TestGaugeDirection:
    @pytest.mark.parametrize("name", [
        "summary.wall_s", "chunk.queue_wait", "attribution.lu.residual_total",
        "reconstruction_err", "cache.misses", "trace.dropped",
        "attribution.lu.measured_total", "attribution.lu.eq_total",
        "regimes.latency-bound.measured_cycles",
    ])
    def test_lower_is_better(self, name):
        assert gauge_direction(name) == "lower"

    @pytest.mark.parametrize("name", [
        "summary.groups.lu.gflops", "speedup_vs_serial", "cache.hits",
    ])
    def test_higher_is_better(self, name):
        assert gauge_direction(name) == "higher"


class TestDetectDrift:
    def test_flags_wall_time_regression(self):
        result = drift_result(records_for([0.5] * 5 + [0.7]))
        assert result.state == "firing"
        flags = result.evidence["flags"]
        flag = next(f for f in flags if f["gauge"] == "summary.wall_s")
        assert flag["direction"] == "lower"
        assert flag["deviation"] == pytest.approx(0.4)
        assert flag["median"] == pytest.approx(0.5)
        assert "summary.wall_s" in result.detail

    def test_flags_throughput_drop(self):
        flags = drift_flags(
            records_for([0.5] * 6, gflops=[100.0] * 5 + [80.0])
        )
        flag = next(
            f for f in flags if f["gauge"] == "summary.groups.lu.gflops"
        )
        assert flag["direction"] == "higher"
        assert flag["deviation"] == pytest.approx(-0.2)

    def test_improvement_is_not_drift(self):
        # Wall time down and throughput up move in their *good*
        # directions: nothing to flag.
        result = drift_result(
            records_for([0.5] * 5 + [0.3], gflops=[100.0] * 5 + [150.0])
        )
        assert result.state == "ok"
        assert result.evidence["flags"] == []

    def test_within_tolerance_is_quiet(self):
        result = drift_result(records_for([0.5] * 5 + [0.52]))
        assert result.state == "ok"

    def test_needs_min_history(self):
        assert drift_result(records_for([0.5, 0.5, 5.0])).state == "no_data"
        assert drift_flags(records_for([0.5] * 3 + [5.0])) != []

    def test_zero_median_gauges_skipped(self):
        records = records_for([0.5] * 6)
        for r in records[:-1]:
            r["residual"] = 0.0
        records[-1]["residual"] = 5.0
        result = drift_result(records)
        assert result.state == "ok"
        assert all(f["gauge"] != "residual" for f in result.evidence["flags"])

    def test_window_bounds_the_median(self):
        # Old slow runs outside the window must not mask a regression
        # against the recent fast median.
        walls = [5.0] * 10 + [0.5] * 8 + [0.7]
        flags = drift_flags(records_for(walls), window=8)
        flag = next(f for f in flags if f["gauge"] == "summary.wall_s")
        assert flag["median"] == pytest.approx(0.5)
        assert flag["window"] == 8

    def test_sorted_by_deviation_magnitude(self):
        flags = drift_flags(
            records_for([0.5] * 5 + [0.7], gflops=[100.0] * 5 + [10.0])
        )
        assert len(flags) >= 2
        deviations = [abs(f["deviation"]) for f in flags]
        assert deviations == sorted(deviations, reverse=True)


def profile_records(queue_shares=None, stragglers=None, queues=None, n=6):
    queue_shares = queue_shares or [0.2] * n
    stragglers = stragglers or [1.1] * n
    queues = queues or [0.01] * n
    return [
        run_record(
            summary(),
            profile={
                "phases": {"queue": queues[i], "merge": 0.001},
                "wall_s": 0.5,
                "straggler_index": stragglers[i],
                "queue_share": queue_shares[i],
                "coverage": 0.95,
            },
        )
        for i in range(n)
    ]


class TestProfileDriftPolicy:
    """The profiler gauges are lower-is-better for drift purposes."""

    @pytest.mark.parametrize("name", [
        "profile.queue_share",
        "profile.straggler_index",
        "profile.phases.queue",
        "profile.phases.merge",
    ])
    def test_profile_gauges_lower_is_better(self, name):
        assert gauge_direction(name) == "lower"

    def test_profile_gauges_flatten_from_records(self):
        gauges = record_gauges(profile_records()[0])
        assert gauges["profile.queue_share"] == pytest.approx(0.2)
        assert gauges["profile.straggler_index"] == pytest.approx(1.1)
        assert gauges["profile.phases.queue"] == pytest.approx(0.01)

    def test_queue_share_regression_flags(self):
        flags = drift_flags(profile_records(queue_shares=[0.2] * 5 + [0.5]))
        flag = next(f for f in flags if f["gauge"] == "profile.queue_share")
        assert flag["direction"] == "lower"
        assert flag["deviation"] == pytest.approx(1.5)

    def test_straggler_regression_flags(self):
        flags = drift_flags(profile_records(stragglers=[1.1] * 5 + [2.0]))
        assert [f["gauge"] for f in flags] == ["profile.straggler_index"]

    def test_phase_regression_flags(self):
        flags = drift_flags(profile_records(queues=[0.01] * 5 + [0.05]))
        assert [f["gauge"] for f in flags] == ["profile.phases.queue"]

    def test_improvement_is_quiet(self):
        result = drift_result(
            profile_records(
                queue_shares=[0.2] * 5 + [0.05],
                stragglers=[1.5] * 5 + [1.0],
            )
        )
        assert result.state == "ok"
        assert result.evidence["flags"] == []


class TestCompaction:
    def _filled(self, tmp_path, n=10):
        history = RunHistory(tmp_path / "history.jsonl")
        for i in range(n):
            history.append({"run": i})
        return history

    def test_compact_keeps_newest(self, tmp_path):
        history = self._filled(tmp_path)
        dropped = history.compact(max_records=3)
        assert dropped == 7
        assert [r["run"] for r in history.load()] == [7, 8, 9]

    def test_compacted_store_loads_identically(self, tmp_path):
        # Kept lines are verbatim: schema stamp, ts, every field.
        history = self._filled(tmp_path)
        before = history.load()[-3:]
        history.compact(max_records=3)
        assert history.load() == before

    def test_compact_drops_corrupt_lines(self, tmp_path):
        history = self._filled(tmp_path, n=2)
        with history.path.open("a") as fh:
            fh.write("{ torn lin\n")
            fh.write(json.dumps({"schema": HISTORY_SCHEMA + 1}) + "\n")
        assert history.compact(max_records=10) == 2
        assert [r["run"] for r in history.load()] == [0, 1]

    def test_noop_when_nothing_to_drop(self, tmp_path):
        history = self._filled(tmp_path, n=3)
        stat = history.path.stat()
        assert history.compact(max_records=5) == 0
        # No rewrite happened: same inode contents, untouched mtime.
        assert history.path.stat().st_mtime_ns == stat.st_mtime_ns
        assert [r["run"] for r in history.load()] == [0, 1, 2]

    def test_compact_missing_file_is_zero(self, tmp_path):
        assert RunHistory(tmp_path / "absent.jsonl").compact(5) == 0

    def test_compact_to_zero_empties(self, tmp_path):
        history = self._filled(tmp_path, n=3)
        assert history.compact(max_records=0) == 3
        assert history.load() == []
        history.append({"run": "fresh"})  # store still usable
        assert len(history) == 1

    def test_negative_max_records_raises(self, tmp_path):
        history = self._filled(tmp_path, n=1)
        with pytest.raises(ValueError):
            history.compact(max_records=-1)

    def test_size_cap_rotates_on_append(self, tmp_path):
        history = RunHistory(
            tmp_path / "history.jsonl", max_records=4, max_bytes=512
        )
        for i in range(50):
            history.append({"run": i, "pad": "x" * 40})
        records = history.load()
        assert len(records) <= 4
        assert records[-1]["run"] == 49

    def test_size_cap_without_max_records_keeps_newest_half(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl", max_bytes=2048)
        for i in range(60):
            history.append({"run": i, "pad": "x" * 40})
        records = history.load()
        assert 0 < len(records) < 60
        assert records[-1]["run"] == 59
        runs = [r["run"] for r in records]
        assert runs == sorted(runs)  # oldest dropped, order preserved

    def test_rotation_disabled_with_none(self, tmp_path):
        history = RunHistory(tmp_path / "history.jsonl", max_bytes=None)
        for i in range(30):
            history.append({"run": i, "pad": "x" * 40})
        assert len(history) == 30

    def test_compaction_counts_in_metrics(self, tmp_path):
        from repro.observe.metrics import (
            MetricsRegistry,
            set_default_registry,
            set_metrics_enabled,
        )

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        previous_flag = set_metrics_enabled(True)
        try:
            history = self._filled(tmp_path, n=5)
            history.compact(max_records=2)
            history.compact(max_records=2)  # no-op: not counted
            assert (
                registry.sum_series("repro_history_compactions_total") == 1
            )
        finally:
            set_default_registry(previous)
            set_metrics_enabled(previous_flag)
