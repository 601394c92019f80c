"""Engine determinism, artifacts, history, and the CLI."""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import run_spec, spec_from_dict
from repro.experiments.cli import main
from repro.experiments.engine import journal_path
from repro.experiments.spec import DEVICES
from repro.observe import tracing


def small_doc(**overrides):
    doc = {
        "experiment": {"name": "enginetest", "title": "engine unit sweep", "seed": 5},
        "axes": {
            "device": ["quadro6000"],
            "op": ["qr", "lu"],
            "size": [4, 8],
            "precision": ["float32"],
            "approach": ["cpu"],
        },
        "policy": {"batch": 8},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "enginetest.json"
    path.write_text(json.dumps(small_doc()))
    return path


class TestRunSpec:
    def test_matrix_is_bitwise_deterministic(self, tmp_path):
        spec = spec_from_dict(small_doc())
        a = run_spec(spec, tmp_path / "a", cache_dir=tmp_path / "cache")
        b = run_spec(spec, tmp_path / "b", cache_dir=tmp_path / "cache")
        assert a.matrix_path.read_bytes() == b.matrix_path.read_bytes()
        assert a.ok and a.counts.get("ok") == 4
        assert not journal_path(tmp_path / "a").exists()

    def test_run_sidecar_keeps_wall_out_of_matrix(self, tmp_path):
        spec = spec_from_dict(small_doc())
        result = run_spec(spec, tmp_path / "out", cache_dir=tmp_path / "cache")
        matrix = json.loads(result.matrix_path.read_text())
        run = json.loads(result.run_path.read_text())
        assert "wall_s" not in json.dumps(matrix["cells"])
        assert run["wall_s"] > 0
        assert [c["id"] for c in matrix["cells"]] == [c.id for c in result.cells]

    def test_unsupported_combination_is_recorded_not_fatal(self, tmp_path):
        doc = small_doc()
        doc["axes"]["op"] = ["qr", "cholesky"]  # cholesky needs the runtime
        result = run_spec(
            spec_from_dict(doc), tmp_path / "out", cache_dir=tmp_path / "cache"
        )
        by_status = result.counts
        assert by_status["unsupported"] == 2
        assert result.ok  # unsupported is not a failure

    def test_per_thread_cell_that_places_no_block_is_unsupported(self, tmp_path):
        # A g80 SM's 8K registers hold a 256-thread block of 4x4
        # per-thread matrices, but not of 8x8 ones.
        doc = small_doc()
        doc["axes"].update(device=["g80"], approach=["per_thread"])
        result = run_spec(
            spec_from_dict(doc), tmp_path / "out", cache_dir=tmp_path / "cache"
        )
        status = {(r.cell.op, r.cell.size): r for r in result.records}
        assert {key: r.status for key, r in status.items()} == {
            ("lu", 4): "ok",
            ("qr", 4): "ok",
            ("lu", 8): "unsupported",
            ("qr", 8): "unsupported",
        }
        for op in ("lu", "qr"):
            assert "registers allows 0" in status[op, 8].note
        assert result.ok and "failed" not in result.counts

    def test_budget_overrun_reported(self, tmp_path):
        doc = small_doc(policy={"batch": 8, "budget_s": 1e-12})
        result = run_spec(
            spec_from_dict(doc), tmp_path / "out", cache_dir=tmp_path / "cache"
        )
        assert set(result.budget_overruns) == {c.id for c in result.cells}

    def test_history_gets_one_sweep_record(self, tmp_path):
        spec = spec_from_dict(small_doc())
        history = tmp_path / "history.jsonl"
        run_spec(
            spec, tmp_path / "out", cache_dir=tmp_path / "cache", history=history
        )
        records = [
            json.loads(line) for line in history.read_text().splitlines() if line
        ]
        assert len(records) == 1
        (record,) = records
        assert record["kind"] == "sweep"
        assert {c["label"] for c in record["cells"]} == {c.id for c in spec_cells(spec)}
        assert record["summary"]["mode"] == "sweep"


    def test_runtime_pools_are_shut_down_with_the_sweep(self, tmp_path, monkeypatch):
        import multiprocessing

        from repro.experiments import engine

        doc = small_doc(policy={"batch": 512})  # two chunks: a pooled launch
        doc["axes"].update(op=["lu"], size=[48], approach=["runtime"])
        spec = spec_from_dict(doc)
        before = set(multiprocessing.active_children())
        assert run_spec(spec, tmp_path / "ok", workers=2).ok
        assert set(multiprocessing.active_children()) == before

        def broken_journal(path, entry, *, durable):
            raise OSError("journal write failed")

        monkeypatch.setattr(engine, "append_record", broken_journal)
        # The held traceback keeps the failed sweep's frame alive.
        with pytest.raises(OSError, match="journal write failed") as failure:
            run_spec(spec, tmp_path / "failed", workers=2)
        assert set(multiprocessing.active_children()) == before
        assert failure.traceback


def spec_cells(spec):
    from repro.experiments import expand_cells

    return expand_cells(spec)[0]


class TestCalibration:
    """A sweep calibrates once per device, and every runtime reuses it."""

    DEVICES = ("quadro6000", "gtx480")

    def spec(self):
        doc = small_doc(policy={"batch": 8})
        doc["axes"].update(
            device=list(self.DEVICES),
            op=["lu"],
            size=[8],
            approach=["per_thread", "runtime"],
            fault_plan=["none", "crash@0"],
        )
        return spec_from_dict(doc)

    @staticmethod
    def calibrations(tracer):
        """Device name -> ``calibrate`` spans in ``tracer``."""
        assert tracer.dropped == 0
        spans: dict = {}
        for event in tracer.events:
            if event.name == "calibrate" and event.ph == "X":
                spans[event.args["device"]] = spans.get(event.args["device"], 0) + 1
        return spans

    @staticmethod
    def cache_hits(tracer):
        return [e for e in tracer.events if e.name == "calibrate.cache_hit"]

    def test_cacheless_sweep_calibrates_once_per_device(self, tmp_path, monkeypatch):
        from repro.runtime import BatchRuntime

        # The package re-exports the function under the module's name.
        calibrate_mod = importlib.import_module("repro.microbench.calibrate")

        measured, reports = [], []
        real_calibrate, real_run = calibrate_mod.calibrate, BatchRuntime.run

        def calibrate(*args, **kwargs):
            measured.append(real_calibrate(*args, **kwargs))
            return measured[-1]

        def run(runtime, *args, **kwargs):
            reports.append(real_run(runtime, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(calibrate_mod, "calibrate", calibrate)
        monkeypatch.setattr(BatchRuntime, "run", run)
        with tracing() as tracer:
            result = run_spec(self.spec(), tmp_path / "out", workers=1)
        assert result.counts == {"ok": 6}
        assert self.calibrations(tracer) == {
            DEVICES[name].name: 1 for name in self.DEVICES
        }
        assert len(measured) == len(self.DEVICES)
        # Two runtime cells per device, each handed the sweep's params.
        assert len(reports) == 2 * len(self.DEVICES)
        by_device = {params.device: params for params in measured}
        for report in reports:
            assert report.params is by_device[report.params.device]

    def test_cached_sweep_calibrates_cold_and_hits_warm_once(self, tmp_path):
        spec, cache = self.spec(), tmp_path / "cache"
        with tracing() as cold:
            assert run_spec(spec, tmp_path / "cold", workers=1, cache_dir=cache).ok
        with tracing() as warm:
            assert run_spec(spec, tmp_path / "warm", workers=1, cache_dir=cache).ok
        assert self.calibrations(cold) == {
            DEVICES[name].name: 1 for name in self.DEVICES
        }
        assert self.cache_hits(cold) == []
        assert self.calibrations(warm) == {}
        assert sorted(e.args["device"] for e in self.cache_hits(warm)) == sorted(
            DEVICES[name].name for name in self.DEVICES
        )


class TestFaultPlan:
    def test_cell_runs_the_plan_its_spec_names(self, monkeypatch):
        from repro.experiments.runner import SweepContext
        from repro.resilience import parse_faults

        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        ctx = SweepContext(workers=1)
        try:
            assert ctx.runtime("quadro6000", "none").faults is None
            crash = ctx.runtime("quadro6000", "crash@0").faults
            assert crash == parse_faults("crash@0")
        finally:
            ctx.close()


class TestCli:
    def test_plan_prints_cells_and_fingerprint(self, spec_path, capsys):
        assert main(["plan", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "quadro6000" in out and "qr" in out
        assert "plan fingerprint:" in out

    def test_run_then_diff_round_trip(self, spec_path, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(spec_path), "--out", str(out_a)]) == 0
        assert main(["run", str(spec_path), "--out", str(out_b)]) == 0
        code = main(
            ["diff", str(out_a / "matrix.json"), str(out_b / "matrix.json")]
        )
        assert code == 0

    def test_strict_fails_against_inflated_baseline(self, spec_path, tmp_path, capsys):
        out_dir = tmp_path / "real"
        assert main(["run", str(spec_path), "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "matrix.json").read_text())
        for cell in doc["cells"]:
            for key in cell.get("gauges", {}):
                if key == "measured_gflops":
                    cell["gauges"][key] *= 10.0
        baseline = tmp_path / "inflated.json"
        baseline.write_text(json.dumps(doc))
        code = main(
            [
                "run",
                str(spec_path),
                "--out",
                str(tmp_path / "gated"),
                "--strict",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cache_dir_receives_the_metrics_the_alerts_gate_reads(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.observe.alerts import compile_plan, evaluate, load_alert_spec
        from repro.observe.metrics import (
            MetricsRegistry,
            load_metrics_snapshot,
            set_default_registry,
        )

        doc = small_doc()
        doc["axes"].update(op=["lu"], size=[8], approach=["runtime"])
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps(doc))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
        previous = set_default_registry(MetricsRegistry())
        try:
            assert main(["run", str(spec), "--out", str(tmp_path / "a")]) == 0
            assert not list(tmp_path.rglob("metrics.prom"))  # hermetic
            cache = tmp_path / "cache"
            argv = ["run", str(spec), "--out", str(tmp_path / "b")]
            assert main([*argv, "--cache-dir", str(cache)]) == 0
        finally:
            set_default_registry(previous)
        slo = load_alert_spec(
            Path(__file__).parents[2] / "benchmarks" / "specs" / "slo_default.json"
        )
        rule = next(r for r in slo.rules if r.name == "chunk-wall-p99")
        plan = compile_plan(dataclasses.replace(slo, rules=(rule,)))
        registry = load_metrics_snapshot(cache / "metrics.prom")
        (result,) = evaluate(plan, registry=registry).results
        assert result.state == "ok"

    def test_strict_without_baseline_exits_2(self, spec_path, tmp_path, capsys):
        code = main(
            ["run", str(spec_path), "--out", str(tmp_path / "out"), "--strict"]
        )
        assert code == 2

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"axes": {}}))
        assert main(["plan", str(bad)]) == 2

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="stdlib tomllib needs Python 3.11+"
    )
    def test_checked_in_smoke_spec_gates_against_its_baseline(self, tmp_path):
        spec = (
            Path(__file__).parents[2] / "benchmarks" / "specs" / "ci_smoke.toml"
        )
        code = main(
            [
                "run",
                str(spec),
                "--out",
                str(tmp_path / "smoke"),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--strict",
            ]
        )
        assert code == 0
