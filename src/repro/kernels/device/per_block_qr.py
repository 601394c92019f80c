"""One-problem-per-block Householder QR on the SIMT engine.

The Section V QR: per column, the owning threads compute the column norm
with per-thread partials and a serial sqrt(p)-thread reduction (done by
thread 0), the diagonal thread forms the scale factor (one sqrt, two
divides), the scaled Householder vector is published through shared
memory, and the trailing update runs as matrix-vector multiply (with its
own reduction) followed by a rank-1 update -- the three operations of
Figure 8.  Costs are charged per Table VI's rows, plus the engine's
bookkeeping overhead (the "Meas. Overhead" wedge).  The factors come
from :mod:`repro.kernels.batched.qr`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...model.block_config import BlockConfig
from ...model.flops import qr_flops, qr_flops_complex
from ..batched.qr import qr_factor, qr_solve_with_taus
from .base import BlockKernel, DeviceKernelResult, as_problems, as_rhs, launch

__all__ = ["per_block_qr", "per_block_qr_solve"]


def householder_costs(kernel: BlockKernel, ncols: int) -> None:
    """Charge the Householder sweep of the first ``ncols`` columns.

    Trailing updates span the full tile width, so right-hand-side columns
    appended past ``ncols`` accumulate ``Q^H b`` for free (Section III-D).
    """
    eng = kernel.engine
    m, n = kernel.m, kernel.n
    cost, credit = kernel.cost, kernel.credit
    steps = ncols if m > ncols else ncols - 1  # no reflector for a 1-row tail
    for j in kernel.steps(steps):
        panel = kernel.panel(j)
        N = kernel.column_tile_rows(j)
        # Per-thread ops on the column and on the trailing matrix, and
        # the block's FLOP credit for each.
        column_ops, update_ops = N * cost, N * N * cost
        column_flops = credit / 2 * (m - j)
        update_flops = credit * (m - j) * (n - 1 - j)
        with eng.phase("Form HH Vector", panel):
            # Column norm: per-thread partials (N gamma) + serial
            # reduction across the sqrt(p) threads of the column.
            eng.charge_flops(column_ops, useful_flops=column_flops)
            kernel.serial_reduction()

            # Diagonal thread: beta, tau, 1/(alpha - beta) -- one sqrt,
            # two divides, two flops, scale factor through shared memory.
            eng.charge_sqrt(1, useful_flops=0)
            eng.charge_div(2, useful_flops=0)
            eng.charge_flops(2 * cost, useful_flops=0)
            eng.charge_shared(2)  # write + read the scale factor

            # Scale the column into v (v0 = 1) and publish it.
            kernel.sh_col.write(kernel.rows, 0)
            eng.charge_flops(column_ops, useful_flops=column_flops)
            eng.charge_shared(N, writes=True)
            eng.sync()

        with eng.phase("Matrix-Vector Multiply", panel):
            # w = conj(tau) (v^H A[j:, j+1:]): read v (N beta), N^2 FMAs,
            # then the cross-thread reduction bracketed by two syncs.
            kernel.sh_col.read(kernel.rows)
            eng.charge_shared(N)
            eng.charge_flops(update_ops, useful_flops=update_flops)
            eng.sync()
            kernel.serial_reduction()
            # w must be published before the closing barrier: the rank-1
            # phase reads it from shared, and a write->read in one sync
            # epoch is a race (the sanitizer flags it).
            kernel.sh_row.write(kernel.cols, 0)
            eng.sync()

        with eng.phase("Rank-1 Update", panel):
            # A[j:, j+1:] -= v w: read w (N beta), N^2 FMAs, one sync.
            kernel.sh_row.read(kernel.cols)
            eng.charge_shared(N)
            eng.charge_flops(update_ops, useful_flops=update_flops)
            eng.sync()


def back_substitution_costs(kernel: BlockKernel, n: int) -> None:
    """Charge ``R x = Q^H b`` on the top ``n x n`` triangle: one divide
    by the diagonal plus a broadcast axpy per row, innermost rows first."""
    eng = kernel.engine
    for j in kernel.steps(n):
        i = n - 1 - j
        N = kernel.column_tile_rows(i)
        eng.charge_div(1, useful_flops=kernel.credit / 2)
        eng.charge_shared(2)
        eng.charge_flops(N * kernel.cost, useful_flops=kernel.credit * (n - 1 - i))
        eng.sync()


def _qr_costs(kernel: BlockKernel) -> None:
    householder_costs(kernel, kernel.n)
    kernel.store()


def _qr_solve_costs(kernel: BlockKernel) -> None:
    n = kernel.m  # the system is square; its right-hand sides follow
    householder_costs(kernel, n)
    with kernel.engine.phase("back-substitution"):
        back_substitution_costs(kernel, n)
    with kernel.engine.phase("store"):
        kernel.engine.charge_global(n * (8 if kernel.complex else 4), kind="copy")


def per_block_qr(
    a: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
    config: Optional[BlockConfig] = None,
) -> DeviceKernelResult:
    """Householder-QR a batch, one problem per block.

    ``output`` is the packed factorization (R upper, reflectors below),
    ``extra`` the taus -- the same packing as
    :func:`repro.kernels.batched.qr.qr_factor`.
    """
    a = as_problems(a)
    _, m, n = a.shape
    if m < n:
        raise ValueError("QR expects m >= n")
    factors = qr_factor(a, fast_math=fast_math)
    flops = qr_flops_complex(m, n) if np.iscomplexobj(a) else qr_flops(m, n)
    return launch(
        _qr_costs, m, n, a.dtype, factors.packed, factors.taus,
        flops_per_problem=flops, device=device, config=config,
        fast_math=fast_math, account_overhead=account_overhead,
    )


def per_block_qr_solve(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    account_overhead: bool = True,
) -> DeviceKernelResult:
    """Solve square systems with QR + back substitution, per block.

    This is the Figure 7 / Figure 12 workload: the right-hand side rides
    along as an appended matrix column, and the resulting triangular
    system is solved with row operations inside the block.  ``output`` is
    the solution batch ``(batch, n)`` for the first right-hand side;
    ``extra`` the taus.
    """
    a = as_problems(a)
    if a.shape[1] != a.shape[2]:
        raise ValueError("QR solve expects square systems")
    b_arr = as_rhs(b, a, "systems")
    _, n, nrhs = b_arr.shape
    x, taus = qr_solve_with_taus(a, b_arr, fast_math=fast_math)
    flops = (
        qr_flops_complex(n, n) + 4 * n * n
        if np.iscomplexobj(a)
        else qr_flops(n, n) + n * n
    )
    return launch(
        _qr_solve_costs, n, n + nrhs, a.dtype, x[..., 0], taus,
        flops_per_problem=flops, device=device, fast_math=fast_math,
        account_overhead=account_overhead,
    )
