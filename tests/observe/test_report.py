"""Fleet telemetry dashboard: rendering and CLI exit codes.

The dashboard renders; drift verdicts come from the default SLO spec's
``drift`` rule, which ``python -m repro.observe.alerts check`` evaluates
and persists for the dashboard's Alerts section.
"""

import json
from pathlib import Path

import pytest

from repro.observe import alerts as alerts_mod
from repro.observe.alerts import load_alert_state
from repro.observe.history import RunHistory, run_record
from repro.observe.metrics import MetricsRegistry, write_prometheus
from repro.observe.report import main, render_report


def _summary(wall=0.5):
    return {
        "problems": 2048, "chunks": 4, "workers": 2, "mode": "process",
        "wall_s": wall,
        "groups": [{"op": "lu", "problems": 2048, "gflops": 100.0}],
    }


def _record(wall=0.5, regime="latency-bound"):
    return run_record(
        _summary(wall=wall),
        regimes=[{
            "label": "lu", "regime": regime, "dominant_term": "overhead",
            "measured_cycles": 10.0,
        }],
    )


def _history(tmp_path, walls=(0.5,) * 5, name="history.jsonl"):
    history = RunHistory(tmp_path / name)
    for wall in walls:
        history.append(_record(wall=wall))
    return history


DEFAULT_SPEC = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "specs" / "slo_default.json"
)


def _drift_spec(tmp_path, **over):
    """The default spec's ``drift`` rule alone, fields overridden."""
    doc = json.loads(DEFAULT_SPEC.read_text())
    (rule,) = [r for r in doc["rule"] if r["name"] == "drift"]
    doc["rule"] = [{**rule, **over}]
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    return path


def _alerts_check(tmp_path, spec, history, *extra):
    return alerts_mod.main(
        ["check", str(spec), "--history", str(history.path),
         "--metrics", str(tmp_path / "absent.json"),
         "--state", str(tmp_path / "alerts.json"), *extra]
    )


def _registry():
    reg = MetricsRegistry()
    reg.inc("repro_cache_requests_total", 2, cache="calibration", outcome="hit")
    reg.inc("repro_cache_requests_total", 1, cache="calibration", outcome="miss")
    reg.inc("repro_cache_requests_total", 1, cache="dispatch", outcome="stale")
    return reg


class TestRender:
    def test_empty_history_points_at_quickstart(self, tmp_path):
        text = render_report(RunHistory(tmp_path / "absent.jsonl"), None)
        assert "no run history" in text

    def test_sections_render_without_drift(self, tmp_path):
        text = render_report(_history(tmp_path), _registry())
        assert "Recent runs" in text
        assert "Regime mix" in text
        assert "latency-bound" in text
        assert "Cache hit rates" in text
        assert "drift" not in text.lower()

    def test_cache_hit_rates_tabulated(self, tmp_path):
        text = render_report(_history(tmp_path), _registry())
        # calibration: 2 hits of 3 requests; dispatch: stale-only.
        assert "67%" in text
        assert "calibration" in text and "dispatch" in text

    def test_no_registry_skips_cache_section(self, tmp_path):
        text = render_report(_history(tmp_path), None)
        assert "Cache hit rates" not in text
        assert "no cache traffic" not in text

    def test_empty_registry_says_so(self, tmp_path):
        text = render_report(_history(tmp_path), MetricsRegistry())
        assert "no cache traffic" in text

    def test_drift_flags_rendered_and_returned(self, tmp_path):
        # The drift verdict the alerts check persisted renders in the
        # dashboard's Alerts section.
        history = _history(tmp_path, walls=(0.5,) * 5 + (0.9,))
        _alerts_check(tmp_path, _drift_spec(tmp_path), history)
        state = load_alert_state(tmp_path / "alerts.json")
        (result,) = state["results"]
        assert result["state"] == "firing"
        assert any(f["gauge"] == "summary.wall_s" for f in result["evidence"]["flags"])
        text = render_report(history, None, alerts=state)
        assert "Alerts (slo default, 1 firing)" in text
        assert "FIRING" in text


class TestMain:
    def _argv(self, tmp_path, history, registry=None, *extra):
        metrics = tmp_path / "metrics.prom"
        write_prometheus(registry or _registry(), metrics)
        return [
            "--history", str(history.path), "--metrics", str(metrics), *extra
        ]

    def test_renders_and_exits_zero(self, tmp_path, capsys):
        history = _history(tmp_path)
        assert main(self._argv(tmp_path, history)) == 0
        out = capsys.readouterr().out
        assert "Recent runs" in out
        assert "Cache hit rates" in out

    def test_strict_fails_on_drift(self, tmp_path, capsys):
        # The dashboard renders and never gates; the drift gate is the
        # alerts check.
        history = _history(tmp_path, walls=(0.5,) * 5 + (0.9,))
        assert main(self._argv(tmp_path, history)) == 0
        with pytest.raises(SystemExit):
            main(self._argv(tmp_path, history, None, "--strict"))
        spec = _drift_spec(tmp_path)
        assert _alerts_check(tmp_path, spec, history, "--strict") == 1

    def test_tolerance_option_widens_the_gate(self, tmp_path, capsys):
        history = _history(tmp_path, walls=(0.5,) * 5 + (0.9,))
        spec = _drift_spec(tmp_path, tolerance=0.95)
        assert _alerts_check(tmp_path, spec, history, "--strict") == 0
        with pytest.raises(SystemExit):
            main(self._argv(tmp_path, history, None, "--tolerance", "0.95"))

    def test_reads_prometheus_snapshot(self, tmp_path, capsys):
        history = _history(tmp_path)
        prom = tmp_path / "metrics.prom"
        write_prometheus(_registry(), prom)
        code = main(["--history", str(history.path), "--metrics", str(prom)])
        assert code == 0
        assert "Cache hit rates" in capsys.readouterr().out

    def test_default_paths_follow_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _history(tmp_path)  # lands at the default <cache dir>/history.jsonl
        write_prometheus(_registry())  # the default <cache dir>/metrics.prom
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Recent runs" in out
        assert "Cache hit rates" in out
