"""Structured logging: schema, span correlation, gating, durability."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.observe import log as obslog
from repro.observe.log import (
    LOG_SCHEMA,
    StructuredLogger,
    current_span,
    read_log,
    span_context,
)


@pytest.fixture
def sink(tmp_path):
    return tmp_path / "events.jsonl"


@pytest.fixture
def enabled(sink):
    """Logging forced on into a tmp sink, restored afterwards."""
    previous_flag = obslog.set_log_enabled(True)
    previous_sink = obslog.set_default_logger(StructuredLogger(sink))
    yield sink
    obslog.set_log_enabled(previous_flag)
    obslog.set_default_logger(previous_sink)


class TestStructuredLogger:
    def test_record_schema(self, sink):
        StructuredLogger(sink).log("runtime.launch", chunks=4, mode="process")
        (record,) = read_log(sink)
        assert record["schema"] == LOG_SCHEMA
        assert record["event"] == "runtime.launch"
        assert record["level"] == "info"
        assert record["ts"] > 0
        assert record["pid"] > 0
        assert record["span_id"] is None
        assert record["parent_id"] is None
        assert record["fields"] == {"chunks": 4, "mode": "process"}

    def test_records_append_in_order(self, sink):
        logger = StructuredLogger(sink)
        for i in range(5):
            logger.log("tick", i=i)
        assert [r["fields"]["i"] for r in read_log(sink)] == list(range(5))

    def test_unknown_level_raises(self, sink):
        with pytest.raises(ValueError):
            StructuredLogger(sink).log("x", level="fatal")

    def test_explicit_span_ids_win(self, sink):
        logger = StructuredLogger(sink)
        with span_context("batch:0"):
            logger.log("x", span_id="batch:9/chunk:1", parent_id="batch:9")
        (record,) = read_log(sink)
        assert record["span_id"] == "batch:9/chunk:1"
        assert record["parent_id"] == "batch:9"

    def test_nonfinite_and_exotic_fields_clamped(self, sink):
        StructuredLogger(sink).log(
            "x", wall=math.inf, path=object(), nested={"v": math.nan}
        )
        (record,) = read_log(sink)
        assert record["fields"]["wall"] is None
        assert record["fields"]["nested"]["v"] is None
        assert isinstance(record["fields"]["path"], str)

    def test_sink_failure_is_swallowed(self, tmp_path):
        # The sink path is a directory: every write fails, none raise.
        StructuredLogger(tmp_path).log("x")

    def test_concurrent_writers_interleave_whole_lines(self, sink):
        logger = StructuredLogger(sink)

        def hammer(tag):
            for i in range(50):
                logger.log("tick", tag=tag, i=i)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = read_log(sink)
        assert len(records) == 200
        for tag in range(4):
            seen = [r["fields"]["i"] for r in records if r["fields"]["tag"] == tag]
            assert seen == list(range(50))


class TestReadLog:
    def test_skips_torn_and_foreign_lines(self, sink):
        StructuredLogger(sink).log("good")
        with sink.open("a") as fh:
            fh.write('{"schema": 1, "event": "torn...\n')
            fh.write("\n")
            fh.write('"not a dict"\n')
            fh.write(json.dumps({"schema": LOG_SCHEMA + 1, "event": "new"}) + "\n")
        StructuredLogger(sink).log("also good")
        assert [r["event"] for r in read_log(sink)] == ["good", "also good"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.jsonl") == []


class TestSpanContext:
    def test_default_is_no_span(self):
        assert current_span() == (None, None)

    def test_context_stamps_records(self, sink):
        logger = StructuredLogger(sink)
        with span_context("batch:0"):
            logger.log("planned")
        (record,) = read_log(sink)
        assert record["span_id"] == "batch:0"
        assert record["parent_id"] is None

    def test_nested_contexts_chain_parents(self):
        with span_context("batch:0"):
            with span_context("batch:0/chunk:1"):
                assert current_span() == ("batch:0/chunk:1", "batch:0")
            assert current_span() == ("batch:0", None)
        assert current_span() == (None, None)

    def test_context_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with span_context("batch:0"):
                raise RuntimeError("boom")
        assert current_span() == (None, None)

    def test_stack_is_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = current_span()

        with span_context("batch:0"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["other"] == (None, None)


class TestGating:
    def test_set_log_enabled_returns_previous(self):
        previous = obslog.set_log_enabled(True)
        assert obslog.set_log_enabled(previous) is True

    @pytest.mark.parametrize("raw", ["", "0", "false", "No", "OFF"])
    def test_env_falsey_disables(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", raw)
        assert obslog._env_sink() is None

    @pytest.mark.parametrize("raw", ["1", "true", "YES", "on"])
    def test_env_truthy_uses_default_path(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", raw)
        assert obslog._env_sink() == obslog.default_log_path()

    def test_env_path_becomes_sink(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LOG", str(tmp_path / "my.jsonl"))
        assert obslog._env_sink() == tmp_path / "my.jsonl"

    @pytest.mark.parametrize("raw", ["", "  ", "maybe"])
    @pytest.mark.parametrize("default", [False, True])
    def test_env_switch_keeps_default(self, raw, default, monkeypatch):
        monkeypatch.setenv("REPRO_SWITCH_UNDER_TEST", raw)
        assert obslog.env_switch("REPRO_SWITCH_UNDER_TEST", default) is default

    @pytest.mark.parametrize(
        "raw, expected", [("no", False), (" 0 ", False), ("OFF", False), ("yes", True)]
    )
    def test_every_switch_parses_alike(self, raw, expected, tmp_path):
        # REPRO_METRICS/REPRO_PROFILE default on, REPRO_LOG/REPRO_SANITIZE
        # off; one word must flip all four the same way.
        src = Path(__file__).resolve().parents[2] / "src"
        switches = ("REPRO_LOG", "REPRO_METRICS", "REPRO_PROFILE", "REPRO_SANITIZE")
        env = dict(
            os.environ,
            REPRO_CACHE_DIR=str(tmp_path),
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])
            ),
            **{name: raw for name in switches},
        )
        code = (
            "from repro.observe import log, metrics, profile\n"
            "from repro.analyze.sanitizer import sanitize_enabled\n"
            "print(log.log_enabled(), metrics.metrics_enabled(),"
            " profile.profiling_enabled(), sanitize_enabled())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(expected)] * len(switches)

    @pytest.mark.parametrize(
        "statement",
        ["import repro.runtime", "from repro.kernels.batched import run_batched"],
    )
    def test_env_on_first_import_is_not_circular(self, statement, tmp_path):
        # The sink path resolves through runtime.cache, which imports this
        # module: resolving it at import time broke these first imports.
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(
            os.environ,
            REPRO_LOG="1",
            REPRO_CACHE_DIR=str(tmp_path),
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])
            ),
        )
        code = f"{statement}\nfrom repro.observe import log\nassert log.log_enabled()"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestLoggedLaunch:
    def test_logged_launch_is_bitwise_identical(self, enabled, tmp_path):
        from repro.kernels.batched import diagonally_dominant_batch
        from repro.kernels.device import per_block_lu
        from repro.model.flops import lu_flops
        from repro.runtime import BatchRuntime, ProblemBatch

        matrices = diagonally_dominant_batch(24, 6, seed=3)
        batch = ProblemBatch.single("lu", matrices)

        def run():
            return BatchRuntime(
                workers=2,
                chunk_cost=lu_flops(6) * 8,
                cache_directory=tmp_path / "cache",
            ).run(batch)

        logged = run()
        previous = obslog.set_log_enabled(False)
        try:
            unlogged = run()
        finally:
            obslog.set_log_enabled(previous)
        assert np.array_equal(logged.output, unlogged.output)
        assert np.array_equal(logged.output, per_block_lu(matrices).output)
        events = [r["event"] for r in read_log(enabled)]
        assert events.count("runtime.launch") == 1
