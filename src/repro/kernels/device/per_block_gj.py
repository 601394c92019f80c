"""One-problem-per-block Gauss-Jordan solver on the SIMT engine.

Section III-A's algorithm in the Section V mapping: the right-hand side
is attached to the matrix, and each column step scales the pivot row by
the reciprocal of the diagonal (Listing 5 verbatim -- including the
``notsolved`` flag) and applies an outer-product update to *every* other
row.  Unlike LU, rows never drop out, so the per-thread tile height N
stays at HREG for the whole sweep; that is why Gauss-Jordan performs
``n^3`` FLOPs against LU's ``2/3 n^3``.  The solution comes from
:func:`repro.kernels.batched.gauss_jordan.gauss_jordan_solve`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import gauss_jordan_flops
from ..batched.gauss_jordan import gauss_jordan_solve
from .base import BlockKernel, DeviceKernelResult, as_problems, as_rhs, launch

__all__ = ["per_block_gauss_jordan"]


def _gauss_jordan_costs(kernel: BlockKernel) -> None:
    eng = kernel.engine
    n, n_aug = kernel.m, kernel.n  # n + nrhs columns
    cost, credit = kernel.cost, kernel.credit
    N = kernel.hreg  # rows never drop out in Gauss-Jordan
    for j in kernel.steps(n):
        panel = kernel.panel(j)
        with eng.phase("Column Op", panel):
            # Listing 5: the diagonal thread publishes 1/A[j,j] (or flags
            # the problem as unsolvable on a zero pivot).
            kernel.sh_scalar.write(0, 0)
            eng.charge_div(1, useful_flops=0)
            eng.charge_shared(2)
            eng.sync()

            # Scale the pivot row (columns j..end, including the RHS) and
            # publish it, together with the pivot column, to shared.
            kernel.sh_scalar.read(0)
            kernel.sh_row.write(kernel.cols, 0)
            kernel.sh_col.write(kernel.rows, 0)
            eng.charge_flops(N * cost, useful_flops=credit / 2 * (n_aug - j))
            eng.charge_shared(2 * N, writes=True)
            eng.sync()

        with eng.phase("Rank-1 Update", panel):
            # Every row i != j: A[i, j:] -= A[i, j] * scaled_row[j:].
            kernel.sh_col.read(kernel.rows)
            kernel.sh_row.read(kernel.cols)
            eng.charge_shared(2 * N)
            eng.charge_flops(
                N * N * cost, useful_flops=credit / 2 * (n - 1) * (n_aug - j)
            )
            eng.sync()

    with eng.phase("gather-x"):
        pass  # the owning threads read x out of their tiles: no charged event

    # Only the solution vector returns to DRAM, not the reduced matrix.
    with eng.phase("store"):
        eng.charge_global(n * (8 if kernel.complex else 4), kind="copy")


def per_block_gauss_jordan(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Solve square systems by Gauss-Jordan, one problem per block.

    ``output`` is the solution batch ``(batch, n)`` for the first
    right-hand side; ``extra`` the per-problem ``not_solved`` flags (zero
    pivot encountered).
    """
    a = as_problems(a)
    if a.shape[1] != a.shape[2]:
        raise ValueError("Gauss-Jordan expects square systems")
    b_arr = as_rhs(b, a, "systems")
    _, n, nrhs = b_arr.shape
    result = gauss_jordan_solve(a, b_arr, fast_math=fast_math)
    factor = 4 if np.iscomplexobj(a) else 1
    return launch(
        _gauss_jordan_costs, n, n + nrhs, a.dtype, result.x[..., 0],
        result.not_solved,
        flops_per_problem=factor * gauss_jordan_flops(n), device=device,
        config=config, fast_math=fast_math, account_overhead=account_overhead,
    )
