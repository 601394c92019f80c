"""One-problem-per-block approach (Section V) as an :class:`Approach`.

Prices a workload with its device kernel's cost program
(:mod:`repro.kernels.device`), run on a fresh block without the
numerics.  Unobserved, the program's column loop runs once on per-step
arrays and its charges are folded in charge order
(:meth:`repro.gpu.simt.BlockEngine.fold`), so Figure-10 sweeps across
hundreds of sizes stay cheap; under a tracer, the sanitizer or a
:func:`~repro.kernels.device.base.block_engine_factory` override it runs
step by step.  Either way the launch is bitwise the device kernel's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np

from ..errors import LaunchConfigurationError, SharedMemoryOverflowError
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.simt import LaunchResult
from ..kernels.device.base import BlockKernel, run_program
from ..kernels.device.per_block_gj import _gauss_jordan_costs
from ..kernels.device.per_block_lstsq import _lstsq_costs
from ..kernels.device.per_block_lu import _lu_costs
from ..kernels.device.per_block_qr import _qr_costs, _qr_solve_costs
from ..model.flops import workload_flops
from .base import Approach, Workload

__all__ = ["PerBlockApproach"]


def _program(work: Workload) -> Tuple[Callable[..., None], int, int, Any, Dict]:
    """The cost program that prices ``work`` and its block:
    ``(program, m, n, dtype, params)``.  The right-hand side of a solve
    rides along as one more column."""
    dtype = np.complex64 if work.complex_dtype else np.float32
    if work.kind == "qr":
        return _qr_costs, work.m, work.n, dtype, {}
    if work.kind == "lu":
        return _lu_costs, work.m, work.n, dtype, {}
    if work.kind == "gauss_jordan":
        return _gauss_jordan_costs, work.m, work.n + 1, dtype, {}
    if work.m == work.n:  # least squares
        return _qr_solve_costs, work.m, work.n + 1, dtype, {}
    return _lstsq_costs, work.m, work.n + 1, dtype, {"ncols": work.n}


class PerBlockApproach(Approach):
    name = "per-block"

    def __init__(self, device: DeviceSpec = QUADRO_6000, fast_math: bool = True):
        self.device = device
        self.fast_math = fast_math

    def supports(self, work: Workload) -> bool:
        if work.kind in ("qr", "least_squares") and work.m < work.n:
            return False
        if work.kind in ("lu", "gauss_jordan") and work.m != work.n:
            return False
        # A block must fit on an SM with the shared vectors it allocates.
        _, m, n, dtype, _ = _program(work)
        try:
            BlockKernel(m, n, dtype, device=self.device, fast_math=self.fast_math)
        except (LaunchConfigurationError, SharedMemoryOverflowError):
            return False
        return True

    def launch(self, work: Workload) -> LaunchResult:
        """Run the workload's cost program; return the per-block timing."""
        program, m, n, dtype, params = _program(work)
        flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
        return run_program(
            program, m, n, dtype, flops_per_problem=flops, params=params,
            device=self.device, fast_math=self.fast_math,
        )

    def gflops(self, work: Workload) -> float:
        return self.launch(work).throughput_gflops(work.batch)
