"""One-problem-per-block Cholesky factorization.

Not in the paper's evaluation, but the natural fourth member of the
family: Hermitian positive-definite systems (e.g. STAP covariance
matrices, normal equations) factor with half LU's flops and no pivoting
concerns at all.  The mapping mirrors the LU kernel: the diagonal thread
computes ``1/sqrt(pivot)`` (one rsqrt -- cheaper than LU's divide plus
QR's sqrt+divides), the scaled column is published through shared memory,
and the trailing Hermitian update touches only the lower triangle, which
is why its per-column estimate is about half of LU's rank-1 cost.  The
factors come from
:func:`repro.kernels.batched.alternatives.cholesky_factor_flagged`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ..batched.alternatives import cholesky_factor_flagged
from .base import BlockKernel, DeviceKernelResult, as_problems, launch

__all__ = ["per_block_cholesky", "cholesky_flops"]


def cholesky_flops(n: int) -> float:
    """1/3 n^3, the usual convention (half of LU's 2/3 n^3)."""
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    return float(n) ** 3 / 3.0


def _cholesky_costs(kernel: BlockKernel) -> None:
    eng = kernel.engine
    n, cost, credit = kernel.n, kernel.cost, kernel.credit
    for j in kernel.steps(n):
        panel = kernel.panel(j)
        N = kernel.column_tile_rows(j)
        with eng.phase("Column Op", panel):
            # Diagonal thread: pivot = A[j][j] (real for HPD), rsqrt,
            # publish the inverse square root.
            kernel.sh_scalar.write(0, 0)
            eng.charge_sqrt(1, useful_flops=0)
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)
            eng.sync()

            # Scale the column: L[j:, j] = A[j:, j] / sqrt(pivot), and
            # publish it for the trailing update.
            kernel.sh_scalar.read(0)
            kernel.sh_col.write(kernel.rows, 0)
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (n - j))
            eng.charge_shared(N, writes=True)
            eng.sync()

        with eng.phase("Hermitian Update", panel):
            # A[j+1:, j+1:] -= l l^H, lower triangle only: each thread
            # reads l once and does ~N^2/2 FMAs.
            kernel.sh_col.read(kernel.rows)
            eng.charge_shared(N)
            eng.charge_flops(
                N * N * cost / 2.0,
                useful_flops=credit / 2 * (n - 1 - j) * (n - 1 - j),
            )
            eng.sync()
    kernel.store()


def per_block_cholesky(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Factor an HPD batch: ``A = L L^H``, one problem per block.

    ``output`` holds L in the lower triangle (upper triangle zeroed);
    ``extra`` flags problems that were not positive definite (their
    ``output`` is NaN).
    """
    a = as_problems(a)
    _, m, n = a.shape
    if m != n:
        raise ValueError("Cholesky expects square matrices")
    result = cholesky_factor_flagged(a, fast_math=fast_math)
    return launch(
        _cholesky_costs, m, n, a.dtype, result.lower, result.not_hpd,
        flops_per_problem=(4 if np.iscomplexobj(a) else 1) * cholesky_flops(n),
        device=device, config=config, fast_math=fast_math,
        account_overhead=account_overhead,
    )
