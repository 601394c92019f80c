"""Property test: sharding never changes results or merged counters.

For every runtime kernel's samples (square and tall QR; pivoted LU on
rows it must swap) across worker counts 1/2/4 and uneven chunk splits,
the sharded runtime must produce bitwise-identical outputs and
exactly-equal merged counter registries versus the serial path (the
same chunk plan executed in-process), and bitwise-identical numerics
versus the plain unsharded kernel launch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.kernels.device.registry import RUNTIME_KERNELS
from repro.runtime import BatchRuntime, ProblemBatch, plan_chunks, problem_cost


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # One warm calibration cache for every example keeps each run cheap.
    return tmp_path_factory.mktemp("runtime-cache")


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    op=st.sampled_from(sorted(RUNTIME_KERNELS)),
    n=st.integers(min_value=3, max_value=10),
    extra=st.integers(min_value=0, max_value=4),
    batch=st.integers(min_value=2, max_value=36),
    chunk_problems=st.integers(min_value=1, max_value=9),
    workers=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**16),
)
# Every op runs at least once, however the strategy samples.
@example(op="lu", n=6, extra=0, batch=13, chunk_problems=4, workers=2, seed=1)
@example(op="qr", n=7, extra=0, batch=11, chunk_problems=3, workers=2, seed=2)
@example(op="qr", n=5, extra=3, batch=9, chunk_problems=2, workers=2, seed=5)
@example(op="cholesky", n=9, extra=0, batch=17, chunk_problems=5, workers=2, seed=3)
@example(op="lu_pivot", n=8, extra=0, batch=14, chunk_problems=4, workers=4, seed=4)
def test_sharded_equals_serial(
    cache_dir, op, n, extra, batch, chunk_problems, workers, seed
):
    info = RUNTIME_KERNELS[op]
    # Tall kernels take any m >= n; the square samplers ignore m.
    m = n + extra if info.tall else n
    matrices, _ = info.generate(m, n, seed, batch)
    direct = info.call(matrices)
    if op == "lu_pivot":
        # The merged permutations below must include real row swaps.
        assert (direct.extra != np.arange(n)).any()

    problems = ProblemBatch.single(op, matrices)
    # A budget of `chunk_problems` problems per chunk; rarely divides
    # `batch` evenly, so tail chunks exercise uneven splits.
    chunk_cost = problem_cost(op, m, n) * chunk_problems
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
