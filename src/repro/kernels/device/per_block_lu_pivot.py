"""One-problem-per-block LU *with* partial pivoting: the price of stability.

The paper deliberately does not pivot ("we do not pivot for stability")
and evaluates on diagonally dominant matrices where pivoting is
unnecessary.  This extension quantifies what that choice bought: a
pivoted per-block LU pays, per column,

* a max-magnitude **pivot search** down the column -- per-thread partials
  plus the same serial sqrt(p)-thread reduction as a norm, plus the
  argmax bookkeeping;
* a **row swap** through shared memory -- both rows traverse the
  scratchpad (2 x WREG accesses per owning thread) with a synchronization
  on each side, because the swap is a cross-thread permutation of
  register-resident data.

The ``bench_ablation_pivoting`` benchmark reports the resulting slowdown:
roughly **2x** at the paper's sizes (the pivot search + swap machinery is
comparable to LU's own per-column work when N is this small), shrinking
slowly as the O(N^2) rank-1 update grows.  That factor is the concrete
cost the paper's "we do not pivot" choice avoided -- and the quantitative
justification for it.

Numerics: like every per-block kernel, the factors come from the
batched routine (:func:`repro.kernels.batched.lu.lu_factor_pivot`); the
cost program charges the distributed implementation's events.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import lu_flops
from ..batched.lu import lu_factor_pivot
from .base import BlockKernel, DeviceKernelResult, as_problems, launch

__all__ = ["per_block_lu_pivot"]


def _lu_pivot_costs(kernel: BlockKernel) -> None:
    eng = kernel.engine
    n, cost, credit = kernel.n, kernel.cost, kernel.credit
    for j in kernel.steps(n - 1):
        panel = kernel.panel(j)
        N = kernel.column_tile_rows(j)
        with eng.phase("Pivot Search", panel):
            # |A[i][j]| partials per owning thread (N compares ~ N ops),
            # then the serial cross-thread max reduction with its argmax
            # bookkeeping (one extra op per step), published + sync.
            eng.charge_flops(N * cost, useful_flops=0)
            kernel.serial_reduction()
            eng.charge_flops(kernel.r, useful_flops=0)  # argmax bookkeeping
            eng.charge_shared(2)
            eng.sync()

        with eng.phase("Row Swap", panel):
            # Rows j and piv trade places through shared memory: each
            # owning thread writes its WREG elements of both rows and
            # reads the other's, with syncs separating the two halves.
            eng.charge_shared(2 * kernel.wreg, writes=True)
            eng.sync()
            eng.charge_shared(2 * kernel.wreg)
            eng.sync()

        with eng.phase("Column Op", panel):
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)
            eng.sync()
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (n - 1 - j))
            eng.charge_shared(2 * N, writes=True)
            eng.sync()

        with eng.phase("Rank-1 Update", panel):
            eng.charge_shared(2 * N)
            eng.charge_flops(
                N * N * cost, useful_flops=credit * (n - 1 - j) * (n - 1 - j)
            )
            eng.sync()
    kernel.store()


def per_block_lu_pivot(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Partial-pivoting LU, one problem per block.

    ``output`` is the packed pivoted LU; ``extra`` the permutation array
    ``(batch, n)`` (row order, as in
    :func:`repro.kernels.batched.lu.lu_factor_pivot`).
    """
    a = as_problems(a)
    _, m, n = a.shape
    if m != n:
        raise ValueError("LU expects square matrices")
    result = lu_factor_pivot(a, fast_math=fast_math)
    return launch(
        _lu_pivot_costs, m, n, a.dtype, result.lu, result.perm,
        flops_per_problem=(4 if np.iscomplexobj(a) else 1) * lu_flops(n),
        device=device, config=config, fast_math=fast_math,
        account_overhead=account_overhead,
    )
