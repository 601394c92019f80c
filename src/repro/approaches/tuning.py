"""Launch-shape autotuning for the one-problem-per-block approach.

The paper hardcodes the thread-count rule (64 threads below 80 columns,
256 from there) and notes the constraint that "the number of threads must
be a perfect square".  This tuner makes the choice empirical: it runs the
workload's device cost program (as :class:`~repro.approaches.PerBlockApproach`
does, folded unless observed) with the block config pinned to every
feasible square thread count and returns the fastest.  An ablation
benchmark confirms the paper's rule is within a few percent of this
tuned optimum across its size range -- i.e. the hardcoded rule was a
good one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from ..errors import LaunchConfigurationError, SharedMemoryOverflowError
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.simt import LaunchResult
from ..kernels.device.base import run_program
from ..model.block_config import BlockConfig
from ..model.flops import workload_flops
from .base import Workload
from .per_block import _program

__all__ = ["TunedLaunch", "feasible_thread_counts", "tune_block_threads"]

#: Square thread counts a GF100 block can use.
SQUARE_THREAD_COUNTS = (16, 64, 256, 1024)


@dataclasses.dataclass(frozen=True)
class TunedLaunch:
    """Result of the launch-shape sweep."""

    work: Workload
    threads: int
    launch: LaunchResult
    gflops: float
    #: Every candidate's throughput, for ablation reporting.
    candidates: dict[int, float]

    @property
    def config(self) -> BlockConfig:
        return BlockConfig(
            m=self.work.m,
            n=self.work.n,
            threads=self.threads,
            complex_dtype=self.work.complex_dtype,
        )


def feasible_thread_counts(
    work: Workload, device: DeviceSpec = QUADRO_6000
) -> list[int]:
    """Square thread counts that can launch this workload at all."""
    out = []
    for threads in SQUARE_THREAD_COUNTS:
        if threads > device.max_threads_per_block:
            continue
        rdim = math.isqrt(threads)
        # A thread grid wider than the matrix wastes whole columns of
        # threads; the kernels require rdim <= max(m, n) to make progress.
        if rdim > max(work.m, work.n):
            continue
        out.append(threads)
    return out


def tune_block_threads(
    work: Workload,
    device: DeviceSpec = QUADRO_6000,
    candidates: Sequence[int] | None = None,
    fast_math: bool = True,
) -> TunedLaunch:
    """Sweep square thread counts and return the fastest launch shape."""
    cands = list(candidates) if candidates is not None else feasible_thread_counts(
        work, device
    )
    if not cands:
        raise ValueError(f"no feasible thread count for workload {work}")
    program, m, n, dtype, params = _program(work)
    flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
    results: dict[int, tuple[LaunchResult, float]] = {}
    for threads in cands:
        config = BlockConfig(m, n, threads, complex_dtype=work.complex_dtype)
        try:
            launch = run_program(
                program, m, n, dtype, flops_per_problem=flops, params=params,
                device=device, config=config, fast_math=fast_math,
            )
        except (LaunchConfigurationError, SharedMemoryOverflowError):
            continue  # the block does not fit at this shape
        results[threads] = (launch, launch.throughput_gflops(work.batch))
    if not results:
        raise ValueError(f"every candidate shape failed for workload {work}")
    best = max(results, key=lambda t: results[t][1])
    return TunedLaunch(
        work=work,
        threads=best,
        launch=results[best][0],
        gflops=results[best][1],
        candidates={t: g for t, (_, g) in results.items()},
    )
