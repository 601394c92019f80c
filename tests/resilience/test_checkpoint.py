"""Checkpoint/resume: journaled chunks are skipped, corrupt files are misses."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.resilience import CheckpointStore, FaultSpec, batch_fingerprint
from repro.runtime import BatchRuntime, ProblemBatch, plan_chunks
from repro.runtime.executor import Switches, _execute_chunk

CHUNK_COST = lu_flops(6) * 8


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


def _runtime(ckpt_dir, **kwargs):
    kwargs.setdefault("use_caches", False)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("chunk_cost", CHUNK_COST)
    return BatchRuntime(checkpoint=ckpt_dir, **kwargs)


def _journal_some(runtime, batch, matrices, indices):
    """Journal chunks ``indices`` exactly as a partial run would have."""
    kwargs = {"device": runtime.device}
    fingerprint = batch_fingerprint(batch, runtime.chunk_cost, kwargs)
    chunks = plan_chunks(batch, runtime.chunk_cost)
    for index in indices:
        chunk = chunks[index]
        outcome = _execute_chunk(
            "lu", matrices[chunk.start : chunk.stop], kwargs, False, Switches.current()
        )
        runtime.checkpoint.record(fingerprint, index, outcome)
    return fingerprint, chunks


class TestResume:
    def test_partial_journal_resumes_bitwise(self, tmp_path, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=0)
        batch = ProblemBatch.single("lu", matrices)
        ref = BatchRuntime(workers=1, chunk_cost=CHUNK_COST, use_caches=False).run(
            batch
        )

        runtime = _runtime(tmp_path / "ck")
        _journal_some(runtime, batch, matrices, indices=(0, 2))
        report = runtime.run(batch)

        assert np.array_equal(report.output, ref.output)
        assert report.counters.snapshot() == ref.counters.snapshot()
        assert (
            metrics_registry.value("repro_resume_chunks_skipped_total") == 2
        )
        # The journal is cleared after a successful merge.
        assert len(runtime.checkpoint) == 0

    def test_full_journal_reports_resumed_mode(self, tmp_path):
        matrices = diagonally_dominant_batch(32, 6, seed=1)
        batch = ProblemBatch.single("lu", matrices)
        ref = BatchRuntime(workers=1, chunk_cost=CHUNK_COST, use_caches=False).run(
            batch
        )
        runtime = _runtime(tmp_path / "ck")
        _, chunks = _journal_some(
            runtime, batch, matrices, indices=range(len(plan_chunks(batch, CHUNK_COST)))
        )
        report = runtime.run(batch)
        assert report.mode == "resumed"
        assert np.array_equal(report.output, ref.output)

    def test_foreign_fingerprint_is_stale_and_reexecutes(self, tmp_path):
        matrices = diagonally_dominant_batch(32, 6, seed=2)
        batch = ProblemBatch.single("lu", matrices)
        runtime = _runtime(tmp_path / "ck")
        _journal_some(runtime, batch, matrices, indices=(0,))

        tweaked = matrices.copy()
        tweaked[0, 0, 0] += 1.0  # one operand bit: new fingerprint
        other = ProblemBatch.single("lu", tweaked)
        ref = BatchRuntime(workers=1, chunk_cost=CHUNK_COST, use_caches=False).run(
            other
        )
        report = runtime.run(other)
        assert np.array_equal(report.output, ref.output)

    def test_truncated_journal_is_a_cold_miss(self, tmp_path, metrics_registry):
        matrices = diagonally_dominant_batch(32, 6, seed=3)
        batch = ProblemBatch.single("lu", matrices)
        runtime = _runtime(tmp_path / "ck")
        fingerprint, _ = _journal_some(runtime, batch, matrices, indices=(0,))

        path = runtime.checkpoint.path_for(0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        assert runtime.checkpoint.resume(fingerprint) == {}
        assert (
            metrics_registry.value("repro_cache_corrupt_total", cache="checkpoint")
            == 1
        )
        assert not path.exists()  # the corpse is removed

        ref = BatchRuntime(workers=1, chunk_cost=CHUNK_COST, use_caches=False).run(
            batch
        )
        report = runtime.run(batch)
        assert np.array_equal(report.output, ref.output)

    def test_truncate_fault_mangles_journal_writes(self, tmp_path, metrics_registry):
        from repro.resilience import FaultPlan

        store = CheckpointStore(
            tmp_path / "ck",
            faults=FaultPlan((FaultSpec(kind="truncate", chunks=(0,)),)),
        )
        matrices = diagonally_dominant_batch(8, 6, seed=4)
        outcome = _execute_chunk("lu", matrices, {}, False, Switches.current())
        store.record("fp", 0, outcome)
        assert store.resume("fp") == {}  # truncated at write -> cold miss
        assert (
            metrics_registry.value("repro_cache_corrupt_total", cache="checkpoint")
            == 1
        )


class TestKilledRunResume:
    SCRIPT = """
import sys
import numpy as np
from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.runtime import BatchRuntime, ProblemBatch

ckpt = sys.argv[1]
matrices = diagonally_dominant_batch(48, 6, seed=9)
runtime = BatchRuntime(
    workers=2,
    chunk_cost=lu_flops(6) * 8,
    use_caches=False,
    checkpoint=ckpt,
    faults="hang@5:sleep=600",  # the last chunk hangs forever
)
runtime.run(ProblemBatch.single("lu", matrices))
"""

    def test_sigkilled_run_resumes_to_bitwise_output(self, tmp_path, metrics_registry):
        ckpt = tmp_path / "ck"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        # Its own session, so the kill below takes the pool workers too.
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT, str(ckpt)],
            env=env,
            start_new_session=True,
        )
        try:
            # Wait until some chunks are journaled, then kill mid-run.
            deadline = time.time() + 60
            while time.time() < deadline:
                if len(list(ckpt.glob("chunk-*.ckpt"))) >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail(f"victim exited early ({proc.returncode})")
                time.sleep(0.1)
            else:
                pytest.fail("victim never journaled a chunk")
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

        journaled = len(list(ckpt.glob("chunk-*.ckpt")))
        assert journaled >= 2

        matrices = diagonally_dominant_batch(48, 6, seed=9)
        batch = ProblemBatch.single("lu", matrices)
        ref = BatchRuntime(
            workers=1, chunk_cost=lu_flops(6) * 8, use_caches=False
        ).run(batch)
        resumed = BatchRuntime(
            workers=2, chunk_cost=lu_flops(6) * 8, use_caches=False, checkpoint=ckpt
        ).run(batch)
        assert np.array_equal(resumed.output, ref.output)
        assert resumed.counters.snapshot() == ref.counters.snapshot()
        assert (
            metrics_registry.value("repro_resume_chunks_skipped_total") == journaled
        )
