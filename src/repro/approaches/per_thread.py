"""One-problem-per-thread approach (Section IV) as an :class:`Approach`.

Timing-only evaluation: the cost structure is identical to
:func:`repro.kernels.device.per_thread_factor` (bandwidth roofline with
spill amplification) but skips the numerics, so design-space sweeps over
thousands of sizes stay cheap.  A consistency test pins the two paths
together.
"""

from __future__ import annotations

from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.memory_system import MemorySystem
from ..gpu.occupancy import occupancy
from ..gpu.registers import RegisterAllocation, registers_for_matrix
from ..kernels.device.per_thread import spill_touches
from ..model.flops import matrix_bytes, workload_flops
from .base import Approach, Workload

__all__ = ["PerThreadApproach"]


class PerThreadApproach(Approach):
    name = "per-thread"

    def __init__(self, device: DeviceSpec = QUADRO_6000, threads_per_block: int = 256):
        self.device = device
        self.threads_per_block = threads_per_block
        self._memory = MemorySystem(device)

    def supports(self, work: Workload) -> bool:
        # Serial in-thread code exists for the factorizations; solves
        # with attached right-hand sides work the same way.  Problems so
        # large that even spilled state exceeds local memory are out.
        return work.m == work.n and work.n <= 128

    def registers_needed(self, work: Workload) -> RegisterAllocation:
        return RegisterAllocation(
            self.device,
            registers_for_matrix(work.m, work.n, complex_dtype=work.complex_dtype),
        )

    def seconds(self, work: Workload) -> float:
        regs = self.registers_needed(work)
        base = 2 * matrix_bytes(work.m, work.n, work.complex_dtype)
        spill = (
            regs.spill_fraction
            * spill_touches(work.n)
            * matrix_bytes(work.m, work.n, work.complex_dtype)
        )
        bw_seconds = work.batch * (base + spill) / self._memory.stream_bandwidth("copy")

        occ = occupancy(
            self.device,
            self.threads_per_block,
            min(regs.granted(), self.device.max_registers_per_thread),
        )
        efficiency = min(1.0, occ.occupancy_fraction * 2.0)
        flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
        compute_seconds = work.batch * flops / (
            self.device.peak_sp_flops * efficiency
        )
        return max(bw_seconds, compute_seconds)

    def gflops(self, work: Workload) -> float:
        flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
        return flops * work.batch / self.seconds(work) / 1e9
