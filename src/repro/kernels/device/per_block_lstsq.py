"""One-problem-per-block least squares (Section III-D on the engine).

Tall ``min ||Ax - b||`` problems solved the paper's way: append ``b`` to
the right of the matrix, run the Householder sweep over the first ``n``
columns (the RHS column collects ``Q^H b`` for free), then back-
substitute the top ``n x n`` triangle.  The block also extracts the
residual norm from the tail of ``Q^H b`` -- the least-squares freebie.
The solution comes from :func:`repro.kernels.batched.least_squares`.
"""

from __future__ import annotations

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.flops import least_squares_flops
from ..batched.least_squares import least_squares
from .base import BlockKernel, DeviceKernelResult, as_problems, as_rhs, launch
from .per_block_qr import back_substitution_costs, householder_costs

__all__ = ["per_block_least_squares"]


def _lstsq_costs(kernel: BlockKernel, ncols: int) -> None:
    eng = kernel.engine
    m, cost, credit = kernel.m, kernel.cost, kernel.credit
    householder_costs(kernel, ncols)
    with eng.phase("back-substitution"):
        back_substitution_costs(kernel, ncols)
        # Residual norm from the tail of Q^H b (free in the factored basis).
        if m > ncols:
            eng.charge_flops(
                kernel.column_tile_rows(ncols - 1) * cost,
                useful_flops=credit / 2 * (m - ncols),
            )
            eng.charge_sqrt(1, useful_flops=0)
    with eng.phase("store"):
        eng.charge_global((ncols + 1) * (8 if kernel.complex else 4), kind="copy")


def per_block_least_squares(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
) -> DeviceKernelResult:
    """Solve tall least-squares problems, one per thread block.

    ``a``: ``(batch, m, n)`` with ``m >= n``; ``b``: ``(batch, m)``.
    ``output`` is the solution batch ``(batch, n)``; ``extra`` the
    per-problem residual 2-norms (both for the first right-hand side).
    """
    a = as_problems(a)
    _, m, n = a.shape
    if m < n:
        raise ValueError(
            f"least squares expects tall (batch, m, n) input, got {a.shape}"
        )
    b_arr = as_rhs(b, a, "problems")
    result = least_squares(a, b_arr, fast_math=fast_math)
    factor = 4 if np.iscomplexobj(a) else 1
    return launch(
        _lstsq_costs, m, n + b_arr.shape[2], a.dtype,
        result.x[..., 0], result.residual_norms[..., 0],
        flops_per_problem=factor * least_squares_flops(m, n),
        device=device, fast_math=fast_math,
        account_overhead=account_overhead, ncols=n,
    )
