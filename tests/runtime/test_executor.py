"""Sharded execution: parity with serial, merged observability, fallback."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.device import G80, QUADRO_6000
from repro.kernels.batched import diagonally_dominant_batch, random_batch, run_batched
from repro.kernels.device import per_block_lu, per_block_qr
from repro.microbench import calibrate
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.observe import tracing
from repro.observe.history import RunHistory
from repro.observe.regime import REGIMES
from repro.runtime import BatchRuntime, ProblemBatch, supported_ops


def _runtime(tmp_path, **kwargs):
    kwargs.setdefault("cache_directory", tmp_path / "cache")
    return BatchRuntime(**kwargs)


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


class TestParity:
    def test_single_chunk_counters_match_unsharded_launch(self, tmp_path):
        # One chunk == one launch: the merged registry must equal the
        # plain kernel's launch counters exactly, not approximately.
        matrices = diagonally_dominant_batch(24, 12, seed=0)
        direct = per_block_lu(matrices)
        runtime = _runtime(tmp_path, workers=1, chunk_cost=1e12)
        report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.chunks == 1
        assert report.counters.snapshot() == direct.launch.counters.snapshot()
        assert np.array_equal(report.output, direct.output)

    def test_sharded_output_bitwise_equals_serial(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=1)
        chunk_cost = lu_flops(12) * 7  # uneven: 7+7+...+5
        direct = per_block_lu(matrices)
        serial = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost).run(
            ProblemBatch.single("lu", matrices)
        )
        sharded = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost).run(
            ProblemBatch.single("lu", matrices)
        )
        assert sharded.mode == "process"
        assert serial.mode == "serial"
        assert np.array_equal(sharded.output, serial.output)
        assert np.array_equal(sharded.output, direct.output)
        assert np.array_equal(sharded.extra, serial.extra)
        assert sharded.counters.snapshot() == serial.counters.snapshot()

    def test_mixed_size_groups(self, tmp_path):
        small = diagonally_dominant_batch(12, 6, seed=2)
        large = diagonally_dominant_batch(9, 20, seed=3)
        runtime = _runtime(tmp_path, workers=2, chunk_cost=lu_flops(20) * 3)
        report = runtime.run(ProblemBatch.mixed("lu", [small, large]))
        assert len(report.results) == 2
        assert np.array_equal(report.results[0].output, per_block_lu(small).output)
        assert np.array_equal(report.results[1].output, per_block_lu(large).output)
        assert report.problems == 21

    def test_qr_parity(self, tmp_path):
        matrices = random_batch(18, 10, 10, seed=4)
        direct = per_block_qr(matrices)
        report = run_batched(
            "qr",
            matrices,
            runtime=_runtime(tmp_path, workers=2, chunk_cost=1e4),
        )
        assert np.array_equal(report.output, direct.output)
        assert np.array_equal(report.extra, direct.extra)

    def test_kernel_kwargs_pass_through(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=5)
        direct = per_block_lu(matrices, fast_math=False)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices), fast_math=False
        )
        assert np.array_equal(report.output, direct.output)


class TestObservability:
    def test_traced_launch_merges_events_and_counters(self, tmp_path):
        matrices = diagonally_dominant_batch(30, 10, seed=6)
        chunk_cost = lu_flops(10) * 10
        serial_rt = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost)
        sharded_rt = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost)
        # Calibrate outside the traced regions so both tracers see the
        # kernel launches only, not one cold + one warm calibration.
        serial_rt.parameters()
        sharded_rt.parameters()
        with tracing() as serial_tracer:
            serial_rt.run(ProblemBatch.single("lu", matrices))
        with tracing() as sharded_tracer:
            report = sharded_rt.run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        shard_tags = {
            e.args["shard"]
            for e in sharded_tracer.events
            if e.args and "shard" in e.args
        }
        assert shard_tags == set(range(report.chunks))
        assert report.chunks > 1
        assert any(e.name == "runtime.launch" for e in sharded_tracer.events)
        # Worker registries fold into the launch tracer exactly as the
        # serial path's do (calibration counters ride along identically).
        assert sharded_tracer.counters.snapshot() == serial_tracer.counters.snapshot()

    def test_worker_events_keep_tags_and_per_shard_order(self, tmp_path):
        # Satellite of the ingest re-stamping fix: every folded event must
        # carry shard+worker tags, and the per-shard event-name sequence
        # (span nesting included) must survive the trip through the pool.
        matrices = diagonally_dominant_batch(30, 10, seed=12)
        chunk_cost = lu_flops(10) * 10
        serial_rt = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost)
        sharded_rt = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost)
        serial_rt.parameters()
        sharded_rt.parameters()

        def shard_sequences(runtime):
            with tracing() as tracer:
                report = runtime.run(ProblemBatch.single("lu", matrices))
            sequences = {}
            for event in tracer.events:
                if event.args and "shard" in event.args:
                    assert "worker" in event.args
                    sequences.setdefault(event.args["shard"], []).append(
                        event.name
                    )
            return report, sequences

        serial_report, serial_seq = shard_sequences(serial_rt)
        sharded_report, sharded_seq = shard_sequences(sharded_rt)
        assert sharded_report.mode == "process"
        assert serial_report.mode == "serial"
        assert set(sharded_seq) == set(range(sharded_report.chunks))
        assert sharded_seq == serial_seq

    def test_kept_workers_replay_the_tapes_they_recorded(self, tmp_path, monkeypatch):
        from repro.kernels.device import base

        monkeypatch.setattr(base, "_LAUNCHES", {})
        matrices = diagonally_dominant_batch(30, 10, seed=13)
        chunk_cost = lu_flops(10) * 10
        serial_rt = _runtime(tmp_path, workers=1, chunk_cost=chunk_cost)
        sharded_rt = _runtime(tmp_path, workers=2, chunk_cost=chunk_cost)
        serial_rt.parameters()
        sharded_rt.parameters()

        def traced(runtime):
            with tracing() as tracer:
                report = runtime.run(ProblemBatch.single("lu", matrices))
            sequences = {}
            for event in tracer.events:
                if event.args and "shard" in event.args:
                    sequences.setdefault(event.args["shard"], []).append(
                        event.name
                    )
            return report, sequences, tracer.counters.snapshot()

        with sharded_rt:
            first = traced(sharded_rt)
            second = traced(sharded_rt)
        # The workers forked with an empty memo: they recorded the tapes
        # during the first launch and replayed them during the second.
        assert not base._LAUNCHES
        _, serial_seq, serial_counters = traced(serial_rt)
        for report, sequences, counters in (first, second):
            assert report.mode == "process" and report.chunks > 1
            assert sequences == serial_seq
            assert counters == serial_counters

    def test_untraced_launch_emits_nothing(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=7)
        report = _runtime(tmp_path, workers=1).run(ProblemBatch.single("lu", matrices))
        assert report.counters.value("flops.groups") > 0

    def test_report_summary_is_flat(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=8)
        report = _runtime(tmp_path, workers=1).run(ProblemBatch.single("lu", matrices))
        summary = report.summary()
        assert summary["problems"] == 8
        assert summary["groups"][0]["op"] == "lu"
        assert summary["groups"][0]["gflops"] > 0


class TestDegradation:
    def test_worker_failure_degrades_to_serial_with_warning(
        self, tmp_path, monkeypatch
    ):
        def broken_pool(self, entries, record=None, nchunks=None, profile=None):
            raise OSError("simulated pool failure")

        monkeypatch.setattr(BatchRuntime, "_run_pool", broken_pool)
        matrices = diagonally_dominant_batch(20, 10, seed=9)
        runtime = _runtime(tmp_path, workers=4, chunk_cost=lu_flops(10) * 5)
        with pytest.warns(
            RuntimeWarning, match="simulated pool failure.*degrading to serial"
        ):
            report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.mode == "serial-fallback"
        assert np.array_equal(report.output, per_block_lu(matrices).output)

    def test_unknown_op_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown batched op"):
            _runtime(tmp_path, workers=1).run(
                ProblemBatch.single("svd", np.eye(4, dtype=np.float32))
            )

    def test_runtime_and_workers_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="either runtime or workers"):
            run_batched(
                "lu",
                np.eye(4, dtype=np.float32),
                runtime=_runtime(tmp_path),
                workers=2,
            )

    def test_supported_ops_listed(self):
        assert {"lu", "qr", "cholesky", "lu_pivot"} <= set(supported_ops())


class TestRuntimeCaches:
    def test_run_calibrates_once_per_device(self, tmp_path):
        matrices = diagonally_dominant_batch(8, 8, seed=10)
        batch = ProblemBatch.single("lu", matrices)
        with tracing() as cold:
            _runtime(tmp_path, workers=1).run(batch)
        with tracing() as warm:
            report = _runtime(tmp_path, workers=1).run(batch)
        cold_spans = [e for e in cold.events if e.name == "calibrate" and e.ph == "X"]
        warm_spans = [e for e in warm.events if e.name == "calibrate" and e.ph == "X"]
        assert len(cold_spans) == 1
        assert len(warm_spans) == 0
        assert report.params is not None

    def test_caches_disabled(self, tmp_path):
        runtime = BatchRuntime(workers=1, use_caches=False)
        assert runtime.calibration_cache is None
        assert runtime.dispatch_cache is None
        assert runtime.parameters() is runtime.parameters()

    def test_given_params_are_used_without_calibrating(self):
        params = calibrate(QUADRO_6000)
        batch = ProblemBatch.single("lu", diagonally_dominant_batch(8, 8, seed=10))
        runtime = BatchRuntime(workers=1, use_caches=False, params=params)
        with tracing() as tracer:
            report = runtime.run(batch)
        assert report.params is params
        assert not [e for e in tracer.events if e.name.startswith("calibrate")]

    def test_params_for_another_device_are_rejected(self):
        with pytest.raises(ValueError, match="NVIDIA G80"):
            BatchRuntime(device=G80, use_caches=False, params=calibrate(QUADRO_6000))


class TestFleetTelemetry:
    def _run_with_registry(self, tmp_path, workers, chunk_cost, matrices):
        registry = metrics_mod.MetricsRegistry()
        previous = metrics_mod.set_default_registry(registry)
        previous_flag = metrics_mod.set_metrics_enabled(True)
        try:
            report = _runtime(tmp_path, workers=workers, chunk_cost=chunk_cost).run(
                ProblemBatch.single("lu", matrices)
            )
        finally:
            metrics_mod.set_default_registry(previous)
            metrics_mod.set_metrics_enabled(previous_flag)
        return report, registry

    def test_run_emits_fleet_metrics(self, tmp_path, metrics_registry):
        matrices = diagonally_dominant_batch(40, 12, seed=13)
        runtime = _runtime(tmp_path, workers=2, chunk_cost=lu_flops(12) * 10)
        report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        reg = metrics_registry
        assert reg.value("repro_runtime_launches_total", mode="process") == 1
        assert reg.value("repro_runtime_problems_total", op="lu") == 40
        assert reg.sum_series("repro_chunk_problems_total", op="lu") == 40
        assert reg.sum_series("repro_runtime_chunks_total") == report.chunks
        wall = reg.histogram_value("repro_chunk_wall_seconds", op="lu")
        wait = reg.histogram_value("repro_chunk_queue_wait_seconds", op="lu")
        assert wall.count == report.chunks and wall.total > 0
        assert wait.count == report.chunks and wait.total >= 0
        assert reg.value("repro_runtime_workers") == report.workers
        assert reg.value("repro_runtime_gflops", op="lu") > 0
        # Kernel-level counters recorded inside worker processes folded
        # back into the launch registry.
        assert reg.sum_series("repro_kernel_launches_total") == report.chunks
        assert reg.sum_series("repro_kernel_problems_total") == 40
        # One launch classified into exactly one regime.
        assert reg.sum_series("repro_launch_regime_total") == 1

    def test_serial_and_sharded_deterministic_totals_match(self, tmp_path):
        matrices = diagonally_dominant_batch(40, 12, seed=14)
        chunk_cost = lu_flops(12) * 7
        # Warm the calibration cache so both measured runs see identical
        # cache traffic, not one cold sweep and one hit.
        self._run_with_registry(tmp_path, 1, chunk_cost, matrices)

        serial_report, serial_reg = self._run_with_registry(
            tmp_path, 1, chunk_cost, matrices
        )
        sharded_report, sharded_reg = self._run_with_registry(
            tmp_path, 2, chunk_cost, matrices
        )
        assert serial_report.mode == "serial"
        assert sharded_report.mode == "process"
        deterministic = [
            "repro_kernel_launches_total",
            "repro_kernel_problems_total",
            "repro_kernel_flops_total",
            "repro_runtime_problems_total",
            "repro_runtime_flops_total",
            "repro_runtime_bytes_total",
            "repro_chunk_problems_total",
            "repro_cache_requests_total",
            "repro_launch_regime_total",
        ]
        for name in deterministic:
            assert sharded_reg.sum_series(name) == serial_reg.sum_series(name), name
        # Not just the totals: the per-shard series line up one to one.
        for shard in range(sharded_report.chunks):
            assert sharded_reg.value(
                "repro_chunk_problems_total", op="lu", shard=shard
            ) == serial_reg.value(
                "repro_chunk_problems_total", op="lu", shard=shard
            )

    def test_regimes_classified_on_report(self, tmp_path):
        matrices = diagonally_dominant_batch(12, 8, seed=15)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices)
        )
        (classification,) = report.regimes
        assert classification.label == "lu"
        assert classification.regime in REGIMES
        assert sum(classification.shares.values()) == pytest.approx(1.0)

    def test_worker_trace_drops_counted_once(
        self, tmp_path, metrics_registry, monkeypatch
    ):
        # A worker tracer small enough to overflow on every chunk.
        import repro.runtime.executor as executor_mod

        monkeypatch.setattr(
            executor_mod, "tracing", lambda: tracing(capacity=4)
        )
        matrices = diagonally_dominant_batch(24, 6, seed=17)
        runtime = _runtime(tmp_path, workers=1, chunk_cost=lu_flops(6) * 8)
        with tracing() as tracer:
            runtime.run(ProblemBatch.single("lu", matrices))
        assert tracer.dropped > 0
        assert (
            metrics_registry.value("repro_trace_dropped_total") == tracer.dropped
        )
        assert [f for f in metrics_registry.families() if "dropped" in f] == [
            "repro_trace_dropped_total"
        ]

    def test_metrics_disabled_emits_nothing(self, tmp_path, metrics_registry):
        metrics_mod.set_metrics_enabled(False)
        matrices = diagonally_dominant_batch(12, 8, seed=16)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices)
        )
        assert len(metrics_registry) == 0
        # Regime classification is part of the result, not telemetry.
        assert report.regimes


class TestRunHistoryIntegration:
    def test_run_appends_history_record(self, tmp_path):
        runtime = _runtime(tmp_path, workers=1)
        assert runtime.history is not None
        assert runtime.history.path == tmp_path / "cache" / "history.jsonl"
        matrices = diagonally_dominant_batch(12, 8, seed=17)
        runtime.run(ProblemBatch.single("lu", matrices))
        (record,) = runtime.history.load()
        assert record["summary"]["problems"] == 12
        assert record["device"] == runtime.device.name
        assert record["regimes"][0]["regime"] in REGIMES
        assert record["attribution"][0]["label"] == "lu"
        assert "residual_total" in record["attribution"][0]

    def test_history_rides_with_use_caches(self, tmp_path):
        assert BatchRuntime(workers=1, use_caches=False).history is None
        assert _runtime(tmp_path, history=False).history is None

    def test_history_accepts_path_and_instance(self, tmp_path):
        path = tmp_path / "elsewhere.jsonl"
        runtime = _runtime(tmp_path, workers=1, history=path)
        runtime.run(
            ProblemBatch.single(
                "lu", diagonally_dominant_batch(8, 8, seed=18)
            )
        )
        assert len(RunHistory(path)) == 1

        ready = RunHistory(tmp_path / "ready.jsonl")
        assert _runtime(tmp_path, history=ready).history is ready


class TestObservableDegradation:
    def test_unknown_op_rejected_before_submission(self, tmp_path, recwarn):
        # Validation happens in the caller, so a bad op never reaches the
        # pool -- no spurious serial-fallback warning rides along.
        runtime = _runtime(tmp_path, workers=4)
        with pytest.raises(ValueError, match="unknown batched op"):
            runtime.run(
                ProblemBatch.mixed("svd", [np.eye(4, dtype=np.float32)] * 8)
            )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_attribution_failure_is_counted_not_silent(
        self, tmp_path, metrics_registry, monkeypatch
    ):
        from repro.observe import attribution as attribution_mod

        def broken_attribution(*args, **kwargs):
            raise ValueError("simulated attribution breakage")

        monkeypatch.setattr(attribution_mod, "attribute_launch", broken_attribution)
        matrices = diagonally_dominant_batch(12, 8, seed=21)
        report = _runtime(tmp_path, workers=1).run(
            ProblemBatch.single("lu", matrices)
        )
        # The launch still succeeds (attribution is decoration)...
        assert np.array_equal(report.output, per_block_lu(matrices).output)
        assert report.regimes == []
        # ...but the loss is visible in the fleet registry.
        assert (
            metrics_registry.value(
                "repro_attribution_errors_total", error="ValueError"
            )
            == 1
        )


def _worker_pids(runtime):
    return {proc.pid for proc in runtime._pool.processes}


def _children():
    """Worker processes alive in this process (see ``tests/conftest.py``)."""
    return set(multiprocessing.active_children())


def _lu_batch(seed, problems=40, n=12):
    return ProblemBatch.single("lu", diagonally_dominant_batch(problems, n, seed=seed))


class TestPoolLifecycle:
    CHUNK_COST = lu_flops(12) * 10  # 4 chunks of the 40-problem batch

    def test_launches_reuse_one_pool(self, tmp_path):
        with _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST) as runtime:
            first = runtime.run(_lu_batch(30))
            pids = _worker_pids(runtime)
            second = runtime.run(_lu_batch(31))
            assert first.mode == second.mode == "process"
            assert len(pids) == 2
            assert _worker_pids(runtime) == pids

    def test_pool_is_sized_by_workers_not_first_launch(self, tmp_path):
        with _runtime(tmp_path, workers=3, chunk_cost=lu_flops(12) * 20) as runtime:
            assert runtime.run(_lu_batch(32)).chunks == 2
            assert len(_worker_pids(runtime)) == 3

    def test_close_is_idempotent_and_the_runtime_reopens(self, tmp_path):
        before = _children()
        runtime = _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST)
        runtime.run(_lu_batch(35))
        pids = _worker_pids(runtime)
        runtime.close()
        assert _children() == before
        runtime.close()
        batch = _lu_batch(36)
        report = runtime.run(batch)
        assert report.mode == "process"
        assert np.array_equal(report.output, per_block_lu(batch.groups[0].data).output)
        assert _worker_pids(runtime).isdisjoint(pids)
        runtime.close()
        assert _children() == before

    def test_with_block_and_drop_stop_the_workers(self, tmp_path):
        before = _children()
        with _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST) as runtime:
            runtime.run(_lu_batch(37))
            assert len(_children() - before) == 2
        assert _children() == before
        runtime = _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST)
        runtime.run(_lu_batch(38))
        del runtime
        assert _children() == before

    def test_throwaway_run_batched_runtime_stops_its_workers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        before = _children()
        matrices = diagonally_dominant_batch(512, 48, seed=39)  # 2 chunks
        report = run_batched("lu", matrices, workers=2)
        assert report.mode == "process"
        assert _children() == before


def _gone(pid):
    """Whether process ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(") ")[2][:1] in ("Z", "X")
    except FileNotFoundError:
        return True


class TestKilledOwner:
    SCRIPT = """
import os, signal
from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.runtime import BatchRuntime, ProblemBatch

runtime = BatchRuntime(workers=2, chunk_cost=lu_flops(6) * 8, use_caches=False)
runtime.run(ProblemBatch.single("lu", diagonally_dominant_batch(32, 6, seed=0)))
print(*(proc.pid for proc in runtime._pool.processes), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_idle_workers_exit_with_a_killed_owner(self, tmp_path):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        # A file, not a pipe: orphaned workers would hold a pipe open.
        out = tmp_path / "pids.txt"
        with open(out, "w") as sink:
            code = subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env, stdout=sink, timeout=120
            ).returncode
        pids = [int(pid) for pid in out.read_text().split()]
        try:
            assert code == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 30
            while not all(map(_gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(_gone, pids))
        finally:
            for pid in pids:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)


def _probe_tracer():
    """Whether the calling process sees an active tracer (run in a worker)."""
    from repro.observe.tracer import current_tracer

    return current_tracer() is not None


class TestWorkerSwitches:
    """A kept worker records what each launch asks for, not what it was
    forked with: every chunk carries the launch's switches."""

    CHUNK_COST = lu_flops(12) * 10

    def test_metrics_turned_on_after_the_pool_started(
        self, tmp_path, metrics_registry
    ):
        batch = _lu_batch(40)
        _runtime(tmp_path, workers=1, chunk_cost=self.CHUNK_COST).run(batch)
        serial = metrics_registry.sum_series("repro_kernel_launches_total")
        metrics_registry.clear()
        with _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST) as runtime:
            metrics_mod.set_metrics_enabled(False)
            runtime.run(batch)  # the pool starts with metrics off
            metrics_mod.set_metrics_enabled(True)
            report = runtime.run(batch)
        assert report.mode == "process"
        assert serial == report.chunks
        assert metrics_registry.sum_series("repro_kernel_launches_total") == serial

    def test_untraced_launch_after_a_traced_pool_start(self, tmp_path):
        with _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST) as runtime:
            runtime.parameters()
            with tracing():
                assert runtime.run(_lu_batch(41)).mode == "process"
            pids = _worker_pids(runtime)
            report = runtime.run(_lu_batch(42))
            assert _worker_pids(runtime) == pids
            probes = [runtime._pool.executor().submit(_probe_tracer) for _ in range(4)]
            assert not any(probe.result() for probe in probes)
        assert report.mode == "process"
        assert report.counters.snapshot() == (
            _runtime(tmp_path, workers=1, chunk_cost=self.CHUNK_COST)
            .run(_lu_batch(42))
            .counters.snapshot()
        )

    def test_sanitizer_follows_each_launch(self, tmp_path):
        from repro.analyze.sanitizer import sanitizing

        batch = _lu_batch(45)
        with _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST) as runtime:
            with sanitizing(True):
                first = runtime.run(batch)  # the pool starts sanitizing
            plain = runtime.run(batch)
            with sanitizing(True):
                again = runtime.run(batch)
        assert first.mode == plain.mode == again.mode == "process"
        assert first.results[0].launch.sanitizer is not None
        assert plain.results[0].launch.sanitizer is None
        assert again.results[0].launch.sanitizer is not None
        assert np.array_equal(plain.output, again.output)

    def test_log_sink_swapped_between_launches(self, tmp_path):
        from repro.observe import log as obslog

        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        previous_flag = obslog.set_log_enabled(True)
        previous_sink = obslog.set_default_logger(obslog.StructuredLogger(first))
        try:
            with _runtime(tmp_path, workers=2, chunk_cost=self.CHUNK_COST) as runtime:
                one = runtime.run(_lu_batch(43))
                obslog.set_default_logger(obslog.StructuredLogger(second))
                two = runtime.run(_lu_batch(44))
                pids = _worker_pids(runtime)
        finally:
            obslog.set_log_enabled(previous_flag)
            obslog.set_default_logger(previous_sink)

        def attempts(path):
            return [r for r in obslog.read_log(path) if r["event"] == "worker.attempt"]

        assert one.mode == two.mode == "process"
        assert len(attempts(first)) == one.chunks
        assert len(attempts(second)) == two.chunks
        assert {r["pid"] for r in attempts(second)} <= pids
