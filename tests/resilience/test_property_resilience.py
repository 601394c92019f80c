"""Property test: recovery never changes surviving problems' bytes.

For *any* injected subset of failing chunks (crash faults, the cheap
deterministic stand-in for every retry path) and any subset of singular
problems, the supervised runtime must (a) merge every surviving problem
bitwise-identical to the all-serial unfaulted run and (b) report exactly
the injected singular victims on ``BatchReport.failures``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels.batched import diagonally_dominant_batch
from repro.model.flops import lu_flops
from repro.resilience import FaultSpec, RetryPolicy
from repro.runtime import BatchRuntime, ProblemBatch, plan_chunks

N = 6
BATCH = 24
CHUNK_PROBLEMS = 5  # 24/5 -> 5 chunks, the last one short
CHUNK_COST = lu_flops(N) * CHUNK_PROBLEMS


def _batch(seed, singular):
    matrices = diagonally_dominant_batch(BATCH, N, seed=seed)
    for index in singular:
        matrices[index] = 0.0
    return matrices


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    crash_chunks=st.sets(st.integers(min_value=0, max_value=4), max_size=3),
    singular=st.sets(st.integers(min_value=0, max_value=BATCH - 1), max_size=4),
    workers=st.sampled_from([1, 2]),
)
def test_surviving_problems_bitwise_identical(seed, crash_chunks, singular, workers):
    matrices = _batch(seed, singular)
    problems = ProblemBatch.single("lu", matrices)
    assert len(plan_chunks(problems, CHUNK_COST)) == 5

    # An explicit empty plan: ``faults=None`` would read REPRO_FAULTS.
    serial_clean = BatchRuntime(
        workers=1, chunk_cost=CHUNK_COST, use_caches=False, faults=()
    ).run(ProblemBatch.single("lu", diagonally_dominant_batch(BATCH, N, seed=seed)))

    faults = (
        [FaultSpec(kind="crash", chunks=tuple(sorted(crash_chunks)), count=1)]
        if crash_chunks
        else []
    )
    report = BatchRuntime(
        workers=workers,
        chunk_cost=CHUNK_COST,
        use_caches=False,
        retry_policy=RetryPolicy(max_retries=2, backoff_s=0.0),
        faults=faults,
    ).run(problems)

    # (b) failures index exactly the injected singular victims.
    assert [f.index for f in report.failures] == sorted(singular)
    assert all(f.reason == "zero-pivot" for f in report.failures)

    # (a) survivors merge bitwise-identical to the clean serial run;
    # quarantined slots are fully NaN-masked.
    for index in range(BATCH):
        if index in singular:
            assert np.isnan(report.output[index]).all()
        else:
            assert np.array_equal(report.output[index], serial_clean.output[index])
