"""Launch-shape autotuning for the one-problem-per-block approach.

The paper hardcodes the thread-count rule (64 threads below 80 columns,
256 from there) and notes the constraint that "the number of threads must
be a perfect square".  This tuner makes the choice empirical: it replays
the kernel's charge sequence at every feasible square thread count and
returns the fastest.  An ablation benchmark confirms the paper's rule is
within a few percent of this tuned optimum across its size range --
i.e. the hardcoded rule was a good one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.simt import LaunchResult
from ..model.block_config import BlockConfig
from .base import Workload
from .per_block import PerBlockApproach

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


class _FixedConfigPerBlock(PerBlockApproach):
    """Per-block replay pinned to an explicit thread count."""

    def __init__(self, threads: int, device: DeviceSpec, fast_math: bool = True):
        super().__init__(device=device, fast_math=fast_math)
        self._threads = threads

    def _config(self, m: int, n: int, complex_dtype: bool) -> BlockConfig:
        return BlockConfig(m=m, n=n, threads=self._threads, complex_dtype=complex_dtype)


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
    results: dict[int, tuple[LaunchResult, float]] = {}
    for threads in cands:
        replay = _FixedConfigPerBlock(threads, device, fast_math)
        try:
            launch = replay.launch(work)
        except Exception:
            continue  # e.g. shared memory overflow at this shape
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
