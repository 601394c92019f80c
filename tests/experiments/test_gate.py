"""Direction-aware gate semantics on matrix artifacts."""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    MATRIX_SCHEMA,
    artifact_gauges,
    compare_gauges,
    diff_artifacts,
    load_artifact,
)


def g(value, direction):
    return {"value": value, "direction": direction}


def matrix_doc(cells):
    return {
        "schema": MATRIX_SCHEMA,
        "kind": "experiment-matrix",
        "experiment": "unit",
        "cells": cells,
    }


class TestCompareGauges:
    def test_higher_gauge_drop_beyond_tolerance_fails(self):
        deltas, _ = compare_gauges(
            {"x.measured_gflops": g(89.0, "higher")},
            {"x.measured_gflops": g(100.0, "higher")},
            0.10,
        )
        (delta,) = deltas
        assert not delta.ok and "<" in delta.detail

    def test_higher_gauge_drop_within_tolerance_passes(self):
        deltas, _ = compare_gauges(
            {"x.measured_gflops": g(91.0, "higher")},
            {"x.measured_gflops": g(100.0, "higher")},
            0.10,
        )
        assert deltas[0].ok

    def test_higher_gauge_improvement_passes(self):
        deltas, _ = compare_gauges(
            {"x.measured_gflops": g(150.0, "higher")},
            {"x.measured_gflops": g(100.0, "higher")},
            0.10,
        )
        assert deltas[0].ok

    def test_lower_gauge_rise_beyond_tolerance_fails(self):
        deltas, _ = compare_gauges(
            {"x.rel_err": g(0.2, "lower")}, {"x.rel_err": g(0.1, "lower")}, 0.10
        )
        assert not deltas[0].ok

    def test_lower_gauge_gets_absolute_slack_at_zero(self):
        # A perfect model's error may wiggle in its last float bits.
        deltas, _ = compare_gauges(
            {"x.rel_err": g(5e-10, "lower")}, {"x.rel_err": g(0.0, "lower")}, 0.10
        )
        assert deltas[0].ok

    def test_exact_gauge_must_match(self):
        deltas, _ = compare_gauges(
            {"x.chunks": g(3.0, "exact")}, {"x.chunks": g(4.0, "exact")}, 0.10
        )
        assert not deltas[0].ok and "exact" in deltas[0].detail

    def test_status_flip_fails(self):
        deltas, _ = compare_gauges(
            {"x.status": g("failed", "status")},
            {"x.status": g("ok", "status")},
            0.10,
        )
        assert not deltas[0].ok

    def test_missing_gauge_fails(self):
        deltas, _ = compare_gauges({}, {"x.measured_gflops": g(100.0, "higher")}, 0.10)
        assert not deltas[0].ok and deltas[0].detail == "missing from current run"

    def test_new_gauge_is_note_not_failure(self):
        deltas, new = compare_gauges(
            {"y.measured_gflops": g(10.0, "higher")}, {}, 0.10
        )
        assert deltas == [] and new == ["y.measured_gflops"]


class TestArtifactGauges:
    def test_statuses_and_ok_gauges_flattened(self):
        doc = matrix_doc(
            [
                {
                    "id": "a",
                    "status": "ok",
                    "gauges": {"measured_gflops": 10.0, "chunks": 2},
                },
                {"id": "b", "status": "unsupported"},
            ]
        )
        gauges = artifact_gauges(doc)
        assert gauges["a.status"]["value"] == "ok"
        assert gauges["b.status"]["value"] == "unsupported"
        assert gauges["a.measured_gflops"]["direction"] == "higher"
        assert gauges["a.chunks"]["direction"] == "exact"
        assert "b.measured_gflops" not in gauges

    def test_non_ok_cells_contribute_no_numbers(self):
        doc = matrix_doc(
            [{"id": "b", "status": "failed", "gauges": {"measured_gflops": 1.0}}]
        )
        assert set(artifact_gauges(doc)) == {"b.status"}

    @pytest.mark.parametrize("name", ["ci_baseline.json", "ci_smoke.json"])
    def test_checked_in_baseline_directions_are_pinned(self, name):
        # A change to gauge_direction must not flip how a gated gauge is
        # judged.
        pinned = {
            "status": "status",
            "measured_gflops": "higher",
            "predicted_gflops": "higher",
            "rel_err": "lower",
            "failures": "lower",
            "chunks": "exact",
            "problems": "exact",
        }
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / name
        gauges = artifact_gauges(load_artifact(path))
        assert gauges
        for gauge, entry in gauges.items():
            assert entry["direction"] == pinned[gauge.rsplit(".", 1)[1]], gauge


class TestDiffAndLoad:
    def test_diff_artifacts_report(self):
        base = matrix_doc(
            [{"id": "a", "status": "ok", "gauges": {"measured_gflops": 100.0}}]
        )
        curr = matrix_doc(
            [
                {"id": "a", "status": "ok", "gauges": {"measured_gflops": 50.0}},
                {"id": "c", "status": "ok", "gauges": {"measured_gflops": 1.0}},
            ]
        )
        report = diff_artifacts(curr, base, 0.10)
        assert not report.ok
        assert any(line.startswith("REGRESSION a.measured_gflops") for line in report.lines())
        assert any("new gauge" in line for line in report.lines())

    def test_load_artifact_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not an experiment matrix"):
            load_artifact(path)

    def test_load_artifact_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        doc = matrix_doc([])
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)
