"""Layout comparison for the QR linear-system solver (Figure 7).

The paper measures 10,000 single-precision QR solves under the three
layouts and finds

* **2D cyclic dominates everywhere** -- it splits both row and column
  operations sqrt(p) ways at the price of sqrt(p)-thread reductions;
* **1D column cyclic beats 1D row cyclic** -- Householder QR is built
  from column operations (norms, scaled columns), which are local to a
  column's owner under a column layout but need full ``p``-thread
  reductions under a row layout;
* 1D layouts also suffer the load imbalance of left-to-right
  factorizations (owners of finished columns/rows drop out).

This module prices one QR solve under each layout with the same
accounting style as Table VI (gamma per dependent FLOP, the shared
latency per shared access, alpha_sync per barrier), then converts to
whole-chip GFLOPS through the occupancy calculator.  The 2D line's
factorization is :func:`repro.model.per_block_model.predict_per_block`'s
QR estimate on the same launch shape, so Figure 7 is consistent with
Figure 9, and each layout's register tile is its layout class's.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

from ..gpu.instructions import costs_for
from ..gpu.occupancy import occupancy
from ..gpu.registers import registers_for_matrix
from ..model.block_config import BlockConfig
from ..model.flops import qr_flops
from ..model.parameters import ModelParameters
from ..model.per_block_model import predict_per_block
from .column_cyclic import ColumnCyclic
from .cyclic2d import Cyclic2D
from .row_cyclic import RowCyclic

__all__ = ["LayoutKind", "LayoutCostEstimate", "estimate_qr_solve", "compare_layouts"]

LayoutKind = Literal["cyclic2d", "column_cyclic", "row_cyclic"]


@dataclasses.dataclass(frozen=True)
class LayoutCostEstimate:
    layout: str
    n: int
    threads: int
    cycles: float
    gflops: float


def _qr_solve_cycles_2d(params: ModelParameters, n: int, p: int, fast: bool) -> float:
    """2D cyclic: the per-block model's QR factorization (Table VI's QR
    rows) plus the triangular solve."""
    config = BlockConfig(n, n, p)
    total = predict_per_block(
        params, "qr", n, config=config, fast_math=fast
    ).compute_cycles
    costs = costs_for(params.device)
    beta, gamma = params.alpha_sh, params.gamma
    sync = params.sync_latency(p)
    # Back substitution: n rows, each a broadcast + local update.
    for j in range(n):
        N = config.column_tile_rows(j)
        total += costs.div(fast) + 2 * beta + N * gamma + N * beta + sync
    return total


def _qr_solve_cycles_column(
    params: ModelParameters, n: int, p: int, fast: bool
) -> float:
    """1D column cyclic: column ops are local to the owner (serial over
    the full column height), trailing updates are column-local, but the
    Householder vector must cross shared memory to every thread."""
    costs = costs_for(params.device)
    beta, gamma = params.alpha_sh, params.gamma
    sync = params.sync_latency(p)
    total = 0.0
    for j in range(n - 1):
        h = n - j  # active column height
        cols_left = n - j - 1
        per_thread_cols = -(-cols_left // p)
        # Owner computes the norm and scales its column serially.
        total += h * gamma + costs.sqrt(fast) + 2 * costs.div(fast) + 2 * gamma
        total += h * gamma  # scale
        total += h * beta + sync  # publish v to shared memory
        # Every thread: dot(v, own columns) then rank-1 on own columns.
        total += h * beta  # read v
        total += per_thread_cols * (2 * h * gamma)  # dot + axpy per column
        total += per_thread_cols * beta + sync  # publish dot results
        total += sync
    for j in range(n):  # back substitution, owner-serial
        total += costs.div(fast) + 2 * beta + gamma + sync
    return total


def _qr_solve_cycles_row(params: ModelParameters, n: int, p: int, fast: bool) -> float:
    """1D row cyclic: row ops are local, but every column norm and every
    matrix-vector product needs a reduction across all p threads."""
    costs = costs_for(params.device)
    beta, gamma = params.alpha_sh, params.gamma
    sync = params.sync_latency(p)
    full_reduction = (1 + p) * beta + p * gamma  # serial across ALL threads
    total = 0.0
    for j in range(n - 1):
        h = n - j
        rows_per_thread = max(1, -(-h // p))
        cols_left = n - j - 1
        # Column norm: local partials then a p-thread reduction.
        total += rows_per_thread * gamma + full_reduction
        total += costs.sqrt(fast) + 2 * costs.div(fast) + 2 * gamma
        total += rows_per_thread * gamma + rows_per_thread * beta + sync  # scale+share
        # MV multiply: one p-thread reduction per batch of p trailing
        # columns (each thread drives one column's reduction).
        reduction_rounds = -(-cols_left // p)
        total += rows_per_thread * cols_left * gamma
        total += reduction_rounds * full_reduction + 2 * sync
        # Rank-1 update: local.
        total += rows_per_thread * cols_left * gamma + cols_left * beta + sync
    for j in range(n):
        total += costs.div(fast) + 2 * beta + gamma + sync
    return total


#: Each layout's class (its per-thread register tile) and cycle estimate.
_LAYOUTS = {
    "cyclic2d": (Cyclic2D, _qr_solve_cycles_2d),
    "column_cyclic": (ColumnCyclic, _qr_solve_cycles_column),
    "row_cyclic": (RowCyclic, _qr_solve_cycles_row),
}


def estimate_qr_solve(
    params: ModelParameters,
    layout: LayoutKind,
    n: int,
    threads: int = 64,
    fast_math: bool = True,
) -> LayoutCostEstimate:
    """Cycles and whole-chip GFLOPS of one n x n QR solve under ``layout``."""
    try:
        layout_cls, cycles_fn = _LAYOUTS[layout]
    except KeyError:
        raise ValueError(f"unknown layout: {layout!r}") from None
    if n < 2:
        raise ValueError("need at least a 2x2 system")
    # Same register/occupancy accounting for all layouts: storage per
    # thread is the layout's tile, capped at the architectural limit.
    tile = layout_cls(n, n, threads).elements_per_thread()
    cycles = cycles_fn(params, n, threads, fast_math)
    requested = registers_for_matrix(tile, 1)
    limit = params.device.max_registers_per_thread
    regs = min(requested, limit)
    # Tiles past the register file spill: every spilled-operand access
    # trades a register read for an L1-throughput access.  Unlike the
    # per-block *model* (which ignores spilling by design), the layout
    # comparison covers n up to 96 with 64 threads, where all three
    # layouts spill and the comparison would otherwise be meaningless.
    if requested > limit:
        spill_fraction = (requested - limit) / requested
        cycles *= 1.0 + spill_fraction * 24.0 / params.gamma
    occ = occupancy(params.device, threads, regs, shared_bytes_per_block=4 * 2 * n + 64)
    # DRAM in/out, fair-shared, as in the per-block model.
    dram = params.device.seconds_to_cycles(
        2 * n * n * 4 * occ.blocks_per_chip / params.global_bandwidth
    )
    cycles += dram
    flops = qr_flops(n, n) + n * n  # factorization + triangular solve
    gflops = (
        flops * occ.blocks_per_chip
        / params.device.cycles_to_seconds(cycles)
        / 1e9
    )
    return LayoutCostEstimate(
        layout=layout, n=n, threads=threads, cycles=cycles, gflops=gflops
    )


def compare_layouts(
    params: ModelParameters, n: int, threads: int = 64
) -> dict[str, LayoutCostEstimate]:
    """All three layouts at one problem size -- one x-slice of Figure 7."""
    return {
        kind: estimate_qr_solve(params, kind, n, threads) for kind in _LAYOUTS
    }
