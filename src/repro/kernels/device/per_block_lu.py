"""One-problem-per-block LU (no pivoting) on the SIMT engine.

The Section V implementation: the matrix lives in 2D-cyclic register
tiles; each column step scales ``l`` by the reciprocal of the pivot
(computed by the diagonal thread and published through shared memory,
Listing 5), shares ``l`` and ``u`` through shared memory (Listing 6), and
applies the Listing-7 rank-1 update to the trailing tiles.  The factors
come from :func:`repro.kernels.batched.lu.lu_factor`; the cost program
charges every hardware event of that mapping to the block engine, which
gives the "measured" cycle counts of Table V / Figure 9.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import lu_flops
from ..batched.lu import lu_factor
from .base import BlockKernel, DeviceKernelResult, as_problems, launch

__all__ = ["per_block_lu"]


def _lu_costs(kernel: BlockKernel) -> None:
    eng = kernel.engine
    n, cost, credit = kernel.n, kernel.cost, kernel.credit
    for j in kernel.steps(n - 1):
        panel = kernel.panel(j)
        N = kernel.column_tile_rows(j)
        below = n - 1 - j  # rows (and columns) past the pivot
        with eng.phase("Column Op", panel):
            # Diagonal thread computes the scale factor (Listing 5):
            # one division, a shared write, and a synchronization.
            kernel.sh_scalar.write(0, 0)
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)  # write and read the scale factor
            eng.sync()

            # Scale l below the pivot and publish l and u to shared
            # memory (Listing 6): N gamma + 2N beta + a sync.
            kernel.sh_scalar.read(0)
            kernel.sh_col.write(kernel.rows, 0)
            kernel.sh_row.write(kernel.cols, 0)
            eng.charge_flops(N * cost, useful_flops=credit / 2 * below)
            eng.charge_shared(2 * N, writes=True)
            eng.sync()

        with eng.phase("Rank-1 Update", panel):
            # Trailing update: read l & u from shared (2N beta), N^2
            # FMAs per thread, one synchronization (Listing 7).
            kernel.sh_col.read(kernel.rows)
            kernel.sh_row.read(kernel.cols)
            eng.charge_shared(2 * N)
            eng.charge_flops(N * N * cost, useful_flops=credit * below * below)
            eng.sync()
    kernel.store()


def per_block_lu(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Factor a batch of square matrices, one problem per thread block.

    Returns the packed LU (L strictly lower, unit-implicit; U upper) in
    ``output`` and the per-problem singularity flags in ``extra``.
    """
    a = as_problems(a)
    _, m, n = a.shape
    if m != n:
        raise ValueError("LU expects square matrices")
    result = lu_factor(a, fast_math=fast_math)
    return launch(
        _lu_costs, m, n, a.dtype, result.lu, result.not_solved,
        flops_per_problem=(4 if np.iscomplexobj(a) else 1) * lu_flops(n),
        device=device, config=config, fast_math=fast_math,
        account_overhead=account_overhead,
    )
