"""The pooled launch's shared-memory arena: numerics, faults, lifecycle.

A pooled chunk crosses in its slot of the runtime's arena: the parent
loads the input, the worker writes the output over it, and the parent
verifies it there and copies it into the launch's result.  These tests
pin that path to the serial one bit for bit, under growth, faults and
checkpoints, and check that no segment outlives its owner.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device.registry import RUNTIME_KERNELS
from repro.model.flops import lu_flops
from repro.observe import metrics as metrics_mod
from repro.resilience import RetryPolicy
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import resolve_faults
from repro.runtime import BatchRuntime, ProblemBatch, arena, problem_cost

SRC = Path(__file__).resolve().parents[2] / "src"
N = 6
CHUNK_COST = lu_flops(N) * 8  # 5 chunks of a 40-problem batch


def _segment(name):
    return os.path.join(arena.SHM_DIR, name)


def _serial(op, matrices, chunk_cost):
    return BatchRuntime(
        workers=1, chunk_cost=chunk_cost, use_caches=False, faults=()
    ).run(ProblemBatch.single(op, matrices))


@pytest.fixture
def metrics_registry():
    registry = metrics_mod.MetricsRegistry()
    previous = metrics_mod.set_default_registry(registry)
    previous_flag = metrics_mod.set_metrics_enabled(True)
    yield registry
    metrics_mod.set_default_registry(previous)
    metrics_mod.set_metrics_enabled(previous_flag)


DTYPES = ["float32", "float64", "complex64", "complex128", "int32"]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    launches=st.lists(
        st.tuples(
            st.sampled_from(sorted(RUNTIME_KERNELS)),
            st.sampled_from(DTYPES),
            st.integers(min_value=3, max_value=8),
        ),
        min_size=2,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_growing_launches_on_one_runtime_equal_serial(launches, seed, metrics_registry):
    """Launches of growing size on one kept runtime: each pooled output
    equals the serial one bitwise, the arena grows to the largest, and
    no chunk is retried (a worker still mapping an unlinked segment
    would fail its chunk)."""
    with BatchRuntime(workers=2, use_caches=False, faults=()) as runtime:
        for step, (op, dtype, n) in enumerate(launches):
            info = RUNTIME_KERNELS[op]
            matrices, _ = info.sample(n, seed + step, 4 * (step + 1) + 3)
            if dtype == "int32":
                matrices = np.rint(matrices * 8).astype(np.int32)
            else:
                matrices = matrices.astype(dtype)
            m = matrices.shape[1]
            per_problem = problem_cost(op, m, n, np.iscomplexobj(matrices))
            runtime.chunk_cost = per_problem * (step + 2)
            before = runtime._arena.size
            pooled = runtime.run(ProblemBatch.single(op, matrices))
            serial = _serial(op, matrices, runtime.chunk_cost)
            direct = info.call(matrices)
            assert pooled.mode == "process"
            assert pooled.output.dtype == direct.output.dtype
            assert np.array_equal(pooled.output, serial.output, equal_nan=True)
            assert np.array_equal(pooled.output, direct.output, equal_nan=True)
            if direct.extra is not None:
                assert np.array_equal(pooled.extra, direct.extra, equal_nan=True)
            assert runtime._arena.size >= before
            assert os.path.exists(_segment(runtime._arena.name))
    assert metrics_registry.sum_series("repro_chunk_retries_total") == 0
    assert metrics_registry.sum_series("repro_chunk_inline_total") == 0


def test_arena_grows_and_workers_reattach(metrics_registry):
    small = diagonally_dominant_batch(16, N, seed=1)
    large = diagonally_dominant_batch(64, N, seed=2)
    with BatchRuntime(
        workers=2, chunk_cost=CHUNK_COST, use_caches=False, faults=()
    ) as runtime:
        runtime.run(ProblemBatch.single("lu", small))
        first, size = runtime._arena.name, runtime._arena.size
        runtime.run(ProblemBatch.single("lu", small))
        assert runtime._arena.name == first  # reused, not remade
        report = runtime.run(ProblemBatch.single("lu", large))
        assert runtime._arena.name != first and runtime._arena.size > size
        assert not os.path.exists(_segment(first))
        assert np.array_equal(report.output, _serial("lu", large, CHUNK_COST).output)
    assert metrics_registry.sum_series("repro_chunk_retries_total") == 0


@pytest.mark.parametrize(
    "spec, policy",
    [
        ("kill@1", RetryPolicy(max_retries=2, backoff_s=0.0)),
        (
            "hang@2:sleep=120",
            RetryPolicy(max_retries=2, backoff_s=0.0, timeout_s=2.0),
        ),
    ],
)
def test_killed_pool_keeps_a_usable_arena(spec, policy, metrics_registry):
    matrices = diagonally_dominant_batch(40, N, seed=3)
    ref = _serial("lu", matrices, CHUNK_COST)
    batch = ProblemBatch.single("lu", matrices)
    reports, names = [], []
    with BatchRuntime(
        workers=2,
        chunk_cost=CHUNK_COST,
        use_caches=False,
        retry_policy=policy,
        faults=(),
    ) as runtime:
        for faults in (None, resolve_faults(spec), None):
            runtime.faults = faults
            reports.append(runtime.run(batch))
            names.append(runtime._arena.name)
    # The rebuilt pool works on the arena the killed one left.
    assert names[0] is not None and len(set(names)) == 1
    assert metrics_registry.sum_series("repro_pool_rebuilds_total") >= 1
    assert [r.mode for r in reports] == ["process"] * 3
    for report in reports:
        assert np.array_equal(report.output, ref.output)


def test_corrupt_slot_is_caught_and_retried(metrics_registry):
    matrices = diagonally_dominant_batch(40, N, seed=4)
    with BatchRuntime(
        workers=2, chunk_cost=CHUNK_COST, use_caches=False, faults="corrupt@0,3"
    ) as runtime:
        report = runtime.run(ProblemBatch.single("lu", matrices))
    assert report.mode == "process"
    assert metrics_registry.sum_series("repro_chunk_retries_total") == 2
    assert np.array_equal(report.output, _serial("lu", matrices, CHUNK_COST).output)


def test_checkpointed_pooled_launch_resumes_bitwise(tmp_path, monkeypatch):
    matrices = diagonally_dominant_batch(40, N, seed=5)
    batch = ProblemBatch.single("lu", matrices)
    store = CheckpointStore(tmp_path / "ck")
    # Keep the whole journal of a first run, then lose chunks 1 and 3:
    # the resumed launch pools those two and takes the rest from disk.
    monkeypatch.setattr(CheckpointStore, "clear", lambda self: None)
    with BatchRuntime(
        workers=2, chunk_cost=CHUNK_COST, use_caches=False, checkpoint=store
    ) as runtime:
        runtime.run(batch)
    monkeypatch.undo()
    assert len(store) == 5
    store.path_for(1).unlink()
    store.path_for(3).unlink()
    with BatchRuntime(
        workers=2, chunk_cost=CHUNK_COST, use_caches=False, checkpoint=store
    ) as runtime:
        resumed = runtime.run(batch)
    assert resumed.mode == "process"
    assert len(store) == 0
    ref = _serial("lu", matrices, CHUNK_COST)
    assert np.array_equal(resumed.output, ref.output)
    assert resumed.counters.snapshot() == ref.counters.snapshot()


def test_one_chunk_launch_returns_the_kernels_own_array(monkeypatch):
    info = RUNTIME_KERNELS["lu"]
    made = []

    def kernel(a, **kwargs):
        result = info.kernel(a, **kwargs)
        made.append(result.output)
        return result

    monkeypatch.setitem(RUNTIME_KERNELS, "lu", dataclasses.replace(info, kernel=kernel))
    matrices = diagonally_dominant_batch(8, N, seed=6)
    with BatchRuntime(workers=2, use_caches=False, faults=()) as runtime:
        report = runtime.run(ProblemBatch.single("lu", matrices))
        assert runtime._arena.name is None  # one chunk runs inline
    assert report.chunks == 1
    assert report.output is made[0]


def test_pooled_one_chunk_groups_do_not_alias_the_arena():
    """Two groups of one chunk each pool, and each result is copied out
    of its slot: the next launch reusing the slots leaves it intact."""
    first = [diagonally_dominant_batch(4, n, seed=n) for n in (N, N + 2)]
    second = [diagonally_dominant_batch(4, n, seed=n + 1) for n in (N, N + 2)]
    with BatchRuntime(workers=2, use_caches=False, faults=()) as runtime:
        report = runtime.run(ProblemBatch.mixed("lu", first))
        kept = [g.output.copy() for g in report.results]
        runtime.run(ProblemBatch.mixed("lu", second))
    assert report.mode == "process"
    assert [g.chunks for g in report.results] == [1, 1]
    for group, expected, matrices in zip(report.results, kept, first):
        assert group.output.flags.writeable
        assert np.array_equal(group.output, expected)
        assert np.array_equal(group.output, RUNTIME_KERNELS["lu"].call(matrices).output)


def test_close_unlinks_and_the_next_launch_makes_a_new_segment():
    batch = ProblemBatch.single("lu", diagonally_dominant_batch(40, N, seed=7))
    runtime = BatchRuntime(
        workers=2, chunk_cost=CHUNK_COST, use_caches=False, faults=()
    )
    try:
        runtime.run(batch)
        first = runtime._arena.name
        assert os.path.exists(_segment(first))
        runtime.close()
        assert not os.path.exists(_segment(first))
        runtime.run(batch)
        second = runtime._arena.name
        assert second != first and os.path.exists(_segment(second))
    finally:
        runtime.close()
    assert not os.path.exists(_segment(second))


def test_serial_runtime_makes_no_segment():
    runtime = BatchRuntime(
        workers=1, chunk_cost=CHUNK_COST, use_caches=False, faults=()
    )
    runtime.run(ProblemBatch.single("lu", diagonally_dominant_batch(40, N, seed=8)))
    assert runtime._arena.name is None


def test_no_shared_memory_degrades_to_serial(monkeypatch):
    monkeypatch.setattr(arena, "SHM_DIR", "/nonexistent-shm-dir")
    matrices = diagonally_dominant_batch(40, N, seed=9)
    with BatchRuntime(
        workers=2, chunk_cost=CHUNK_COST, use_caches=False, faults=()
    ) as runtime:
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            report = runtime.run(ProblemBatch.single("lu", matrices))
    assert report.mode == "serial-fallback"
    assert np.array_equal(report.output, _serial("lu", matrices, CHUNK_COST).output)


class TestOwnerExit:
    """No segment outlives the process that made it."""

    SCRIPT = """
import os, signal, sys
from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.runtime import BatchRuntime, ProblemBatch

runtime = BatchRuntime(workers=2, chunk_cost=lu_flops(6) * 8, use_caches=False)
runtime.run(ProblemBatch.single("lu", diagonally_dominant_batch(40, 6, seed=0)))
print(runtime._arena.name, *(p.pid for p in runtime._pool.processes), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""

    def _run(self, tmp_path, how):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        env.pop("REPRO_FAULTS", None)
        out = tmp_path / "out.txt"  # a file: orphaned workers hold no pipe
        with open(out, "w") as sink:
            code = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, how],
                env=env,
                stdout=sink,
                timeout=120,
            ).returncode
        name, *pids = out.read_text().split()
        return code, name, [int(pid) for pid in pids]

    def test_exit_without_close_unlinks(self, tmp_path):
        code, name, _ = self._run(tmp_path, "exit")
        assert code == 0
        assert not os.path.exists(_segment(name))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_killed_owner_is_cleaned_up_by_its_workers(self, tmp_path):
        code, name, pids = self._run(tmp_path, "kill")
        assert code == -signal.SIGKILL
        deadline = time.monotonic() + 30
        while os.path.exists(_segment(name)) and time.monotonic() < deadline:
            time.sleep(0.05)
        try:
            assert not os.path.exists(_segment(name))
        finally:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_next_segment_sweeps_a_dead_owners(self, tmp_path):
        # A segment whose owner and workers all died together (a killed
        # process group) is removed by the next segment made.
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        stale = _segment(f"{arena.ARENA_PREFIX}{probe.pid}-feedface0000")
        with open(stale, "wb") as handle:
            handle.write(b"\0" * 64)
        try:
            fresh = arena.Arena()
            fresh.reserve(1)
            fresh.close()
            assert not os.path.exists(stale)
        finally:
            if os.path.exists(stale):
                os.unlink(stale)
