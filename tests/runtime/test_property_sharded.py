"""Property test: sharding never changes results or merged counters.

For LU, pivoted LU, QR and Cholesky batches across worker counts 1/2/4
and uneven chunk splits, the sharded runtime must produce
bitwise-identical outputs and exactly-equal merged counter registries
versus the serial path (the same chunk plan executed in-process), and
bitwise-identical numerics versus the plain unsharded kernel launch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.kernels.batched import diagonally_dominant_batch, random_batch
from repro.kernels.device import (
    per_block_cholesky,
    per_block_lu,
    per_block_lu_pivot,
    per_block_qr,
)
from repro.runtime import BatchRuntime, ProblemBatch, plan_chunks, problem_cost


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # One warm calibration cache for every example keeps each run cheap.
    return tmp_path_factory.mktemp("runtime-cache")


def _hpd_batch(batch, n, seed):
    h = random_batch(batch, n, n, seed=seed)
    return (h @ np.swapaxes(h, 1, 2) + n * np.eye(n)).astype(np.float32)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    op=st.sampled_from(["lu", "qr", "cholesky", "lu_pivot"]),
    n=st.integers(min_value=3, max_value=10),
    batch=st.integers(min_value=2, max_value=36),
    chunk_problems=st.integers(min_value=1, max_value=9),
    workers=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**16),
)
# Every op runs at least once, however the strategy samples.
@example(op="lu", n=6, batch=13, chunk_problems=4, workers=2, seed=1)
@example(op="qr", n=7, batch=11, chunk_problems=3, workers=2, seed=2)
@example(op="cholesky", n=9, batch=17, chunk_problems=5, workers=2, seed=3)
@example(op="lu_pivot", n=8, batch=14, chunk_problems=4, workers=4, seed=4)
def test_sharded_equals_serial(cache_dir, op, n, batch, chunk_problems, workers, seed):
    if op == "lu":
        matrices = diagonally_dominant_batch(batch, n, seed=seed)
        direct = per_block_lu(matrices)
    elif op == "qr":
        matrices = random_batch(batch, n, n, seed=seed)
        direct = per_block_qr(matrices)
    elif op == "cholesky":
        matrices = _hpd_batch(batch, n, seed)
        direct = per_block_cholesky(matrices)
    else:
        matrices = random_batch(batch, n, n, seed=seed)
        direct = per_block_lu_pivot(matrices)

    problems = ProblemBatch.single(op, matrices)
    # A budget of `chunk_problems` problems per chunk; rarely divides
    # `batch` evenly, so tail chunks exercise uneven splits.
    chunk_cost = problem_cost(op, n, n) * chunk_problems
    plan = plan_chunks(problems, chunk_cost)

    serial = BatchRuntime(
        workers=1, chunk_cost=chunk_cost, cache_directory=cache_dir
    ).run(problems)
    sharded = BatchRuntime(
        workers=workers, chunk_cost=chunk_cost, cache_directory=cache_dir
    ).run(problems)

    assert serial.chunks == sharded.chunks == len(plan)
    if workers > 1 and len(plan) > 1:
        assert sharded.mode == "process"

    # Bitwise-identical numerics: sharded == serial == plain launch.
    assert np.array_equal(sharded.output, serial.output)
    assert np.array_equal(sharded.output, direct.output)
    if direct.extra is not None:
        assert np.array_equal(sharded.extra, direct.extra)

    # Exactly-equal merged counters (totals, event counts, and maxima).
    assert sharded.counters.snapshot() == serial.counters.snapshot()
    assert sharded.counters.stages() == serial.counters.stages()
