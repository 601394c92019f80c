"""One-problem-per-thread approach (Section IV) as an :class:`Approach`.

Timing-only evaluation: :func:`repro.kernels.device.per_thread.per_thread_cost`
prices the launch exactly as :func:`repro.kernels.device.per_thread_factor`
does, but skips the numerics, so design-space sweeps over thousands of
sizes stay cheap.  A consistency test pins the two paths together.
"""

from __future__ import annotations

from ..errors import LaunchConfigurationError
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..kernels.device.per_thread import (
    PerThreadCost,
    per_thread_cost,
    per_thread_placement,
)
from .base import Approach, Workload

__all__ = ["PerThreadApproach"]


class PerThreadApproach(Approach):
    name = "per-thread"

    def __init__(self, device: DeviceSpec = QUADRO_6000, threads_per_block: int = 256):
        self.device = device
        self.threads_per_block = threads_per_block

    def supports(self, work: Workload) -> bool:
        # Serial in-thread code exists for the factorizations; solves
        # with attached right-hand sides work the same way.  Problems so
        # large that even spilled state exceeds local memory are out, and
        # so is any size whose register demand places no block.
        if work.m != work.n or work.n > 128:
            return False
        try:
            per_thread_placement(
                work.n, self.device, work.complex_dtype, self.threads_per_block
            )
        except LaunchConfigurationError:
            return False
        return True

    def _cost(self, work: Workload) -> PerThreadCost:
        return per_thread_cost(
            work.kind,
            work.n,
            work.batch,
            self.device,
            work.complex_dtype,
            self.threads_per_block,
        )

    def seconds(self, work: Workload) -> float:
        return self._cost(work).seconds

    def gflops(self, work: Workload) -> float:
        cost = self._cost(work)
        return cost.flops_per_problem * work.batch / cost.seconds / 1e9
