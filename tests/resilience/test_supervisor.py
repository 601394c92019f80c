"""The chunk supervisor: retries, deadlines, rebuilds, inline rescue.

End-to-end scenarios drive a real :class:`BatchRuntime` with injected
faults; the fine-grained re-execution accounting drives
:func:`supervise_pool` directly with a marker-file execute stub.
"""

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.resilience import (
    ChunkFailedError,
    FaultSpec,
    RetryPolicy,
    WorkerPool,
    supervise_pool,
    supervise_serial,
)
from repro.runtime import BatchRuntime, ProblemBatch


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


def _runtime(**kwargs):
    kwargs.setdefault("use_caches", False)
    kwargs.setdefault("chunk_cost", lu_flops(6) * 8)
    return BatchRuntime(**kwargs)


def _reference(matrices):
    return _runtime(workers=1).run(ProblemBatch.single("lu", matrices))


class TestCrashRecovery:
    def test_crashed_chunk_retried_bitwise_identical(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=0)
        ref = _reference(matrices)
        report = _runtime(
            workers=2, faults=FaultSpec(kind="crash", chunks=(0,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        assert np.array_equal(report.output, ref.output)
        assert report.counters.snapshot() == ref.counters.snapshot()
        assert (
            metrics_registry.value(
                "repro_chunk_retries_total", op="lu", reason="crash"
            )
            == 1
        )

    def test_serial_path_retries_too(self):
        matrices = diagonally_dominant_batch(16, 6, seed=1)
        ref = _reference(matrices)
        report = _runtime(
            workers=1, faults=FaultSpec(kind="crash", chunks=(1,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)

    def test_exhausted_retries_raise_chunk_failed(self):
        matrices = diagonally_dominant_batch(16, 6, seed=2)
        runtime = _runtime(
            workers=1,
            retry_policy=RetryPolicy(max_retries=1, backoff_s=0.0),
            faults=FaultSpec(kind="crash", chunks=(0,), count=float("inf")),
        )
        with pytest.raises(ChunkFailedError, match="chunk 0"):
            runtime.run(ProblemBatch.single("lu", matrices))


class TestCorruptionRecovery:
    def test_checksum_mismatch_detected_and_retried(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=3)
        ref = _reference(matrices)
        report = _runtime(
            workers=2, faults=FaultSpec(kind="corrupt", chunks=(1,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)
        assert (
            metrics_registry.value(
                "repro_chunk_retries_total", op="lu", reason="corrupt"
            )
            == 1
        )


class TestBrokenPoolRecovery:
    def test_killed_worker_rebuilds_pool(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=4)
        ref = _reference(matrices)
        report = _runtime(
            workers=2, faults=FaultSpec(kind="kill", chunks=(0,), count=1)
        ).run(ProblemBatch.single("lu", matrices))
        assert report.mode == "process"
        assert np.array_equal(report.output, ref.output)
        assert (
            metrics_registry.value(
                "repro_pool_rebuilds_total", reason="broken-pool"
            )
            >= 1
        )


class TestHangRecovery:
    def test_hung_chunk_cancelled_at_deadline(self, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=5)
        ref = _reference(matrices)
        report = _runtime(
            workers=2,
            retry_policy=RetryPolicy(timeout_s=1.5, backoff_s=0.0),
            faults=FaultSpec(kind="hang", chunks=(0,), count=1, sleep=60.0),
        ).run(ProblemBatch.single("lu", matrices))
        assert np.array_equal(report.output, ref.output)
        assert metrics_registry.value("repro_chunk_timeouts_total", op="lu") == 1
        assert (
            metrics_registry.value("repro_pool_rebuilds_total", reason="timeout")
            >= 1
        )


class TestInlineRescue:
    """One fault plan, one outcome: the serial path has the pool's budget.

    Both paths give a chunk ``max_retries`` retries and then one inline
    last resort, so the same plan leaves the same output and the same
    ``retry``/``inline`` counts on one worker as on two.
    """

    POLICY = RetryPolicy(max_retries=1, backoff_s=0.0)

    @pytest.mark.parametrize("kind", ["crash", "corrupt"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_exhaustion_falls_back_inline(self, metrics_registry, workers, kind):
        # count == max_retries + 1 makes every retry fail while the
        # inline rescue (the next attempt number) stays clean.
        matrices = diagonally_dominant_batch(32, 6, seed=6)
        ref = _reference(matrices)
        with _runtime(
            workers=workers,
            retry_policy=self.POLICY,
            faults=FaultSpec(kind=kind, chunks=(0,), count=self.POLICY.max_retries + 1),
        ) as runtime:
            report = runtime.run(ProblemBatch.single("lu", matrices))
        assert report.mode == ("process" if workers > 1 else "serial")
        assert np.array_equal(report.output, ref.output)
        assert report.counters.snapshot() == ref.counters.snapshot()
        assert metrics_registry.value("repro_chunk_inline_total", op="lu") == 1
        assert (
            metrics_registry.value("repro_chunk_retries_total", op="lu", reason=kind)
            == self.POLICY.max_retries
        )

    @pytest.mark.parametrize("kind", ["crash", "corrupt"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_inline_rescue_raises(self, metrics_registry, workers, kind):
        # count == max_retries + 2 reaches the last resort too.
        matrices = diagonally_dominant_batch(32, 6, seed=6)
        with _runtime(
            workers=workers,
            retry_policy=self.POLICY,
            faults=FaultSpec(kind=kind, chunks=(0,), count=self.POLICY.max_retries + 2),
        ) as runtime:
            with pytest.raises(ChunkFailedError, match="chunk 0") as excinfo:
                runtime.run(ProblemBatch.single("lu", matrices))
        assert excinfo.value.reason == kind
        assert metrics_registry.value("repro_chunk_inline_total", op="lu") == 1


# ----------------------------------------------------------------------
# Direct supervisor accounting with a marker-file execute stub.
# ----------------------------------------------------------------------
class _StubOutcome:
    def __init__(self, value):
        self.value = value
        self.checksum = None
        self.wall_s = 0.0
        self.queue_wait_s = 0.0
        self.output = np.asarray([value])
        self.extra = None


def _stub_execute(
    value,
    marker_dir,
    fail_chunks,
    fail_below,
    error,
    chunk_index=0,
    attempt=0,
    nchunks=1,
    faults=None,
):
    Path(marker_dir, f"exec-{chunk_index}-{attempt}-{os.getpid()}").touch()
    if chunk_index in fail_chunks and attempt < fail_below:
        raise error(f"stub failure on chunk {chunk_index}")
    return _StubOutcome(value)


def _entries(tmp_path, n, fail_chunks=(), fail_below=1, error=RuntimeError):
    return [
        (i, (i * 10, str(tmp_path), tuple(fail_chunks), fail_below, error))
        for i in range(n)
    ]


def _executions(tmp_path):
    """chunk index -> attempts executed, parsed from marker files."""
    seen = {}
    for name in os.listdir(tmp_path):
        if name.startswith("exec-"):
            _, chunk, attempt, _ = name.split("-")
            seen.setdefault(int(chunk), set()).add(int(attempt))
    return seen


def _executing_pids(tmp_path):
    """Pids of the processes that ran any attempt, from marker files."""
    return {
        int(name.split("-")[3])
        for name in os.listdir(tmp_path)
        if name.startswith("exec-")
    }


@pytest.fixture
def pool():
    live = WorkerPool(2, "fork")
    yield live
    live.close()


class _DiesMidSubmission:
    """A pool that loses a worker while chunks go out: the first chunk's
    future fails with a broken pool, and the next ``submit`` raises it, as
    ``ProcessPoolExecutor.submit`` does once a worker has died."""

    def __init__(self, pool):
        self.pool, self.broken, self.submits = pool, True, 0

    def executor(self):
        return self if self.broken else self.pool.executor()

    def submit(self, *args, **kwargs):
        self.submits += 1
        if self.submits > 1:
            raise BrokenProcessPool("a worker died")
        future = concurrent.futures.Future()
        future.set_exception(BrokenProcessPool("a worker died"))
        return future

    def kill(self):
        self.broken = False
        self.pool.kill()


class TestSuperviseAccounting:
    POLICY = RetryPolicy(max_retries=2, backoff_s=0.0)

    def test_completed_chunks_never_reexecuted(self, tmp_path, pool):
        outcomes, stats = supervise_pool(
            _entries(tmp_path, 4, fail_chunks=(2,), fail_below=1),
            execute=_stub_execute,
            pool=pool,
            policy=self.POLICY,
            nchunks=4,
        )
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert [outcomes[i].value for i in range(4)] == [0, 10, 20, 30]
        executions = _executions(tmp_path)
        # The victim ran twice (attempts 0 and 1); everyone else once.
        assert executions[2] == {0, 1}
        for chunk in (0, 1, 3):
            assert executions[chunk] == {0}
        assert stats.retries == 1

    def test_pool_broken_during_submission_is_rebuilt(self, tmp_path, pool):
        # The launch stays on the pool: the chunk whose worker died is
        # retried, and the chunks that never went out keep their attempt.
        outcomes, stats = supervise_pool(
            _entries(tmp_path, 3),
            execute=_stub_execute,
            pool=_DiesMidSubmission(pool),
            policy=self.POLICY,
            nchunks=3,
        )
        assert [outcomes[i].value for i in range(3)] == [0, 10, 20]
        assert _executions(tmp_path) == {0: {1}, 1: {0}, 2: {0}}
        assert stats.counts["rebuild"] == 1 and stats.retries == 1

    def test_live_pool_comes_back_alive(self, tmp_path, pool):
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        supervise_pool(
            _entries(first, 2), execute=_stub_execute, pool=pool, policy=self.POLICY
        )
        workers = pool.processes
        assert len(workers) == 2
        outcomes, _ = supervise_pool(
            _entries(second, 4),
            execute=_stub_execute,
            pool=pool,
            policy=self.POLICY,
            nchunks=4,
        )
        assert [outcomes[i].value for i in range(4)] == [0, 10, 20, 30]
        # The second run borrowed the same workers and handed them back.
        assert pool.processes == workers
        assert all(proc.is_alive() for proc in workers)
        assert _executing_pids(second) <= {proc.pid for proc in workers}

    @pytest.mark.parametrize(
        "error, raised",
        [(RuntimeError, ChunkFailedError), (KeyboardInterrupt, KeyboardInterrupt)],
    )
    def test_error_exit_kills_the_borrowed_pool(self, tmp_path, pool, error, raised):
        supervise_pool(
            _entries(tmp_path, 2), execute=_stub_execute, pool=pool, policy=self.POLICY
        )
        workers = pool.processes
        with pytest.raises(raised):
            supervise_pool(
                _entries(tmp_path, 3, fail_chunks=(1,), fail_below=99, error=error),
                execute=_stub_execute,
                pool=pool,
                policy=RetryPolicy(max_retries=1, backoff_s=0.0),
                nchunks=3,
            )
        assert pool.processes == []
        assert not any(proc.is_alive() for proc in workers)

    def test_serial_supervisor_same_accounting(self, tmp_path):
        outcomes, stats = supervise_serial(
            _entries(tmp_path, 3, fail_chunks=(0,), fail_below=2),
            execute=_stub_execute,
            policy=self.POLICY,
            nchunks=3,
        )
        assert [outcomes[i].value for i in range(3)] == [0, 10, 20]
        executions = _executions(tmp_path)
        assert executions[0] == {0, 1, 2}
        assert executions[1] == {0} and executions[2] == {0}
        assert stats.retries == 2

    def test_on_complete_called_once_per_chunk(self, tmp_path):
        journal = []
        outcomes, _ = supervise_serial(
            _entries(tmp_path, 3, fail_chunks=(1,), fail_below=1),
            execute=_stub_execute,
            policy=self.POLICY,
            nchunks=3,
            on_complete=lambda index, outcome: journal.append(index),
        )
        assert sorted(journal) == [0, 1, 2]
        assert len(journal) == len(set(journal))

    @pytest.mark.parametrize("fail_below", [1, 3, 4])
    def test_serial_and_pool_share_the_attempt_budget(self, tmp_path, pool, fail_below):
        # max_retries = 2: 1 failure -> one retry; 3 -> two retries and
        # the inline rescue; 4 -> the rescue fails too.
        runs = {}
        for name, supervise, kwargs in (
            ("serial", supervise_serial, {}),
            ("pool", supervise_pool, {"pool": pool}),
        ):
            markers = tmp_path / name
            markers.mkdir()
            try:
                _, stats = supervise(
                    _entries(markers, 3, fail_chunks=(1,), fail_below=fail_below),
                    execute=_stub_execute,
                    policy=self.POLICY,
                    nchunks=3,
                    **kwargs,
                )
                result = dict(stats.counts)
            except ChunkFailedError as exc:
                result = (exc.index, exc.reason)
            runs[name] = (result, _executions(markers)[1])
        assert runs["serial"] == runs["pool"]
        assert runs["serial"][1] == set(range(min(fail_below, 3) + 1))

    def test_permanent_failure_identifies_chunk(self, tmp_path):
        with pytest.raises(ChunkFailedError) as excinfo:
            supervise_serial(
                _entries(tmp_path, 2, fail_chunks=(1,), fail_below=99),
                execute=_stub_execute,
                policy=RetryPolicy(max_retries=1, backoff_s=0.0),
                nchunks=2,
            )
        assert excinfo.value.index == 1
        assert excinfo.value.reason == "crash"


class TestBackoff:
    """Backoff spaces out pool resubmissions; in-process retries run at once."""

    def test_serial_retries_never_sleep(self, tmp_path, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"in-process retry slept {seconds} s")

        monkeypatch.setattr("repro.resilience.supervisor.time.sleep", no_sleep)
        outcomes, stats = supervise_serial(
            _entries(tmp_path, 2, fail_chunks=(0,), fail_below=2),
            execute=_stub_execute,
            policy=RetryPolicy(backoff_s=30.0),
            nchunks=2,
        )
        assert [outcomes[i].value for i in range(2)] == [0, 10]
        assert stats.retries == 2

    def test_pool_resubmission_backs_off(self, tmp_path, pool, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.resilience.supervisor.time.sleep", slept.append)
        outcomes, stats = supervise_pool(
            _entries(tmp_path, 2, fail_chunks=(0,), fail_below=1),
            execute=_stub_execute,
            pool=pool,
            policy=RetryPolicy(backoff_s=0.2),
            nchunks=2,
        )
        assert [outcomes[i].value for i in range(2)] == [0, 10]
        assert stats.retries == 1
        assert slept == [0.2]
