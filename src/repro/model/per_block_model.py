"""Analytic model of the one-problem-per-block approach (Table VI).

The paper estimates LU and QR cost by counting, per column operation and
per trailing-matrix update, the FLOPs (``gamma`` each, FMA = 1), shared
memory accesses (``beta`` each, where ``beta`` is the per-access shared
latency), and synchronizations (``alpha_sync`` each).  Reductions are
serial across the sqrt(p) threads of a column: ``(1 + sqrt(p)) beta +
sqrt(p) gamma``.  This module writes Table VI's counts once, as the
unweighted event totals of its ``_count_*`` functions, and prices them
with Eq. 2's latencies (:func:`_price`), generalized to

* non-square matrices (N follows the shrinking row panels),
* complex arithmetic (one complex FMA = 4 dependent real instructions,
  8 flops of credit -- the Section VII STAP runs), and
* precise-vs-fast division/square root (the 30% penalty quoted in
  Section V-C).

Whole-chip GFLOPS adds the DRAM read+write of the matrix at the achieved
global bandwidth, fair-shared across the resident blocks given by the
occupancy calculator -- exactly the recipe of Section V-D.  Register
spilling is deliberately NOT modelled: Figure 9's "false predictions at
64 and above 112" are the reproduction target, and the divergence from
the engine-measured curves is the evidence.
"""

from __future__ import annotations

import dataclasses
from typing import Literal, NamedTuple

from ..gpu.instructions import costs_for
from ..gpu.occupancy import Occupancy, occupancy
from .block_config import BlockConfig, block_config
from .flops import matrix_bytes, workload_flops
from .parameters import ModelParameters

__all__ = [
    "OpEstimate",
    "ColumnEstimate",
    "OpCounts",
    "BlockCounts",
    "COUNT_KINDS",
    "PerBlockPrediction",
    "estimate_lu_column",
    "estimate_qr_column",
    "predict_per_block",
    "per_block_counts",
    "panel_breakdown",
]

Kind = Literal["qr", "lu", "gauss_jordan", "least_squares"]

#: Display names for the per-operation breakdown, as in Figure 8.
QR_OPS = ("Form HH Vector", "Matrix-Vector Multiply", "Rank-1 Update")
LU_OPS = ("Column Op", "Rank-1 Update")


class OpEstimate(NamedTuple):
    """Cycles of one named operation within a column step."""

    name: str
    flops_cycles: float
    shared_cycles: float
    sync_cycles: float

    @property
    def total(self) -> float:
        return self.flops_cycles + self.shared_cycles + self.sync_cycles


class ColumnEstimate(NamedTuple):
    """All operations of one column step (column op + trailing update)."""

    column: int
    n_tile: int
    ops: tuple[OpEstimate, ...]

    @property
    def total(self) -> float:
        return sum(op.total for op in self.ops)


def _latencies(
    params: ModelParameters, config: BlockConfig, fast_math: bool
) -> tuple[float, float, float, float, float]:
    """Eq. 2's per-event cycles for ``config``'s launch: gamma, divide,
    square root, shared access (Table VI's beta) and alpha_sync.  A
    complex divide or square root takes twice the real latency."""
    costs = costs_for(params.device)
    scale = 2 if config.complex_dtype else 1
    return (
        params.gamma,
        costs.div(fast_math) * scale,
        costs.sqrt(fast_math) * scale,
        params.alpha_sh,
        params.sync_latency(config.threads),
    )


def _price(
    ops: tuple[OpCounts, ...], latencies: tuple[float, float, float, float, float]
) -> tuple[OpEstimate, ...]:
    """Weight one column step's Table VI counts by Eq. 2's latencies."""
    gamma, div, sqrt, beta, sync = latencies
    return tuple(
        OpEstimate(
            op.name,
            op.flop_ops * gamma + op.divs * div + op.sqrts * sqrt,
            op.shared * beta,
            op.syncs * sync,
        )
        for op in ops
    )


def estimate_lu_column(
    params: ModelParameters,
    config: BlockConfig,
    column: int,
    fast_math: bool = True,
) -> ColumnEstimate:
    """Table VI, LU rows, for one column step."""
    n_tile = config.column_tile_rows(column)
    ops = _count_lu_column(n_tile, 2 if config.complex_dtype else 1)
    return ColumnEstimate(
        column, n_tile, _price(ops, _latencies(params, config, fast_math))
    )


def estimate_qr_column(
    params: ModelParameters,
    config: BlockConfig,
    column: int,
    fast_math: bool = True,
) -> ColumnEstimate:
    """Table VI, QR rows, for one column step."""
    n_tile = config.column_tile_rows(column)
    ops = _count_qr_column(n_tile, config.rdim, 2 if config.complex_dtype else 1)
    return ColumnEstimate(
        column, n_tile, _price(ops, _latencies(params, config, fast_math))
    )


@dataclasses.dataclass(frozen=True)
class PerBlockPrediction:
    """Model output for one problem shape."""

    kind: str
    config: BlockConfig
    columns: tuple[ColumnEstimate, ...]
    compute_cycles: float
    dram_cycles: float
    flops_per_problem: float
    occupancy: Occupancy

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.dram_cycles

    @property
    def gflops(self) -> float:
        """Whole-chip throughput, Section V-D's recipe."""
        blocks = self.occupancy.blocks_per_chip
        seconds = self.occupancy.device.cycles_to_seconds(self.total_cycles)
        return self.flops_per_problem * blocks / seconds / 1e9


def predict_per_block(
    params: ModelParameters,
    kind: Kind,
    m: int,
    n: int | None = None,
    *,
    complex_dtype: bool = False,
    fast_math: bool = True,
    config: BlockConfig | None = None,
) -> PerBlockPrediction:
    """Full Table-VI prediction for an m x n problem.

    ``n`` defaults to ``m`` (square).  ``config`` overrides the paper's
    launch-shape rule (used by the Figure-7 layout comparison).
    """
    n = m if n is None else n
    if kind not in ("qr", "lu", "gauss_jordan", "least_squares"):
        raise ValueError(f"unknown factorization kind: {kind!r}")
    # Gauss-Jordan runs n steps on the augmented [A | b] launch, as its
    # kernel and per_block_counts do; the factorizations run n - 1 steps.
    gauss_jordan = kind == "gauss_jordan"
    width = n + 1 if gauss_jordan else n
    cfg = config or block_config(m, width, complex_dtype=complex_dtype)
    # Least squares = QR on [A|b] plus a triangular solve whose cost the
    # paper folds into the same column machinery.
    qr = kind in ("qr", "least_squares")
    cost = 2 if cfg.complex_dtype else 1
    latencies = _latencies(params, cfg, fast_math)
    # A column's estimate depends on its N alone, so each N is priced once.
    priced: dict[int, tuple[OpEstimate, ...]] = {}
    columns = []
    for j in range(n if gauss_jordan else n - 1):
        if gauss_jordan:
            n_tile = cfg.hreg  # rows never drop out in Gauss-Jordan
        else:
            n_tile = cfg.column_tile_rows(j)
        ops = priced.get(n_tile)
        if ops is None:
            if qr:
                counts = _count_qr_column(n_tile, cfg.rdim, cost)
            else:
                counts = _count_lu_column(n_tile, cost)
            ops = priced[n_tile] = _price(counts, latencies)
        columns.append(ColumnEstimate(j, n_tile, ops))
    compute = sum(c.total for c in columns)

    # Occupancy: the model caps registers at the architectural limit and
    # ignores spilling entirely (Section V-D / Figure 9 caption).
    regs = min(cfg.registers_per_thread, params.device.max_registers_per_thread)
    shared_bytes = 4 * (cfg.m + cfg.n) * (2 if complex_dtype else 1) + 64
    occ = occupancy(params.device, cfg.threads, regs, shared_bytes)

    # DRAM: read + write the matrix, fair-shared across resident blocks.
    nbytes = 2 * matrix_bytes(m, n, complex_dtype)
    dram_seconds = nbytes * occ.blocks_per_chip / params.global_bandwidth
    dram_cycles = params.device.seconds_to_cycles(dram_seconds)

    return PerBlockPrediction(
        kind=kind,
        config=cfg,
        columns=tuple(columns),
        compute_cycles=compute,
        dram_cycles=dram_cycles,
        flops_per_problem=workload_flops(kind, m, n, complex_dtype),
        occupancy=occ,
    )


# ----------------------------------------------------------------------
# Closed-form hardware-event counts
#
# Table VI is written once, here, as *unweighted* event totals -- exactly
# what the engine's charge_* accumulators record when the corresponding
# kernel in ``repro.kernels.device`` runs; the cycle estimates above are
# these counts weighted by :func:`_price`.  ``repro.analyze.costcheck``
# certifies the equality over the whole kernel registry, so any kernel
# edit that changes its cost profile must update these formulas in the
# same change.
# ----------------------------------------------------------------------

COUNT_KINDS = (
    "lu",
    "lu_pivot",
    "qr",
    "qr_solve",
    "gauss_jordan",
    "cholesky",
    "least_squares",
)


class OpCounts(NamedTuple):
    """Hardware-event counts of one named operation (charge_* units)."""

    name: str
    #: Dependent FP ops per thread (``charge_flops`` units; FMA = 1).
    flop_ops: float = 0.0
    divs: int = 0
    sqrts: int = 0
    #: Shared words per thread (``charge_shared`` units), total and the
    #: write subset.
    shared: float = 0.0
    shared_writes: float = 0.0
    syncs: int = 0


@dataclasses.dataclass(frozen=True)
class BlockCounts:
    """Closed-form static footprint of one per-block kernel launch."""

    kind: str
    m: int
    n: int
    config: BlockConfig
    ops: tuple[OpCounts, ...]
    load_bytes: float
    store_bytes: float

    @property
    def flop_ops(self) -> float:
        return sum(op.flop_ops for op in self.ops)

    @property
    def divs(self) -> int:
        return sum(op.divs for op in self.ops)

    @property
    def sqrts(self) -> int:
        return sum(op.sqrts for op in self.ops)

    @property
    def shared(self) -> float:
        return sum(op.shared for op in self.ops)

    @property
    def shared_writes(self) -> float:
        return sum(op.shared_writes for op in self.ops)

    @property
    def syncs(self) -> int:
        return sum(op.syncs for op in self.ops)

    @property
    def global_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    @property
    def shared_bytes(self) -> int:
        """Engine scratchpad footprint: sh_col + sh_row + sh_scalar."""
        cfg = self.config
        words = cfg.hreg * cfg.rdim + cfg.wreg * cfg.rdim + 4
        return 4 * words * (2 if cfg.complex_dtype else 1)

    @property
    def registers_per_thread(self) -> int:
        return self.config.registers_per_thread


def _count_lu_column(n_tile: int, cost: int) -> tuple[OpCounts, ...]:
    """One LU column step with N = ``n_tile``: Listing 5/6 column op +
    Listing 7 update.  A Gauss-Jordan step is the same at N = HREG."""
    col = OpCounts(
        name=LU_OPS[0],
        flop_ops=n_tile * cost,
        divs=1,
        shared=2 + 2 * n_tile,
        shared_writes=2 * n_tile,
        syncs=2,
    )
    trailing = OpCounts(
        name=LU_OPS[1],
        flop_ops=n_tile * n_tile * cost,
        shared=2 * n_tile,
        syncs=1,
    )
    return (col, trailing)


def _count_qr_column(n_tile: int, rdim: int, cost: int) -> tuple[OpCounts, ...]:
    """One Householder column with N = ``n_tile`` on a ``rdim``-wide
    thread grid: the three operations of Figure 8."""
    form_hh = OpCounts(
        name=QR_OPS[0],
        # norm partials + serial reduction + scale-factor arithmetic +
        # column scale (the sqrt and the two divides are counted apart)
        flop_ops=(2 * n_tile + rdim + 2) * cost,
        divs=2,
        sqrts=1,
        shared=n_tile + rdim + 3,
        shared_writes=n_tile,
        syncs=1,
    )
    mv = OpCounts(
        name=QR_OPS[1],
        flop_ops=n_tile * n_tile * cost + rdim * cost,
        shared=n_tile + rdim + 1,
        syncs=2,
    )
    rank1 = OpCounts(
        name=QR_OPS[2],
        flop_ops=n_tile * n_tile * cost,
        shared=n_tile,
        syncs=1,
    )
    return (form_hh, mv, rank1)


def _qr_steps(m: int, ncols: int) -> int:
    """Reflector columns of a Householder sweep (no tail reflector when
    the last column has a single row)."""
    return ncols if m > ncols else ncols - 1


def _count_back_substitution(
    cfg: BlockConfig, n: int, cost: int
) -> tuple[OpCounts, ...]:
    """Row-wise triangular solve: one divide + broadcast axpy per row."""
    return tuple(
        OpCounts(
            name="Back Substitution",
            flop_ops=cfg.column_tile_rows(i) * cost,
            divs=1,
            shared=2,
            syncs=1,
        )
        for i in range(n - 1, -1, -1)
    )


def per_block_counts(
    kind: str,
    m: int,
    n: int | None = None,
    *,
    complex_dtype: bool = False,
) -> BlockCounts:
    """Static hardware-event counts for an m x n per-block launch.

    Mirrors every ``charge_*`` call of the matching device kernel --
    including the augmented launch shape of the solve variants
    (``gauss_jordan``/``qr_solve`` append the right-hand side,
    ``least_squares`` appends it to a tall matrix) and their
    solution-only store traffic.  ``repro.analyze.costcheck`` holds this
    equal to the abstract interpreter's measurements.
    """
    n = m if n is None else n
    if kind not in COUNT_KINDS:
        raise ValueError(f"unknown factorization kind: {kind!r}")
    if kind in ("lu", "lu_pivot", "cholesky", "gauss_jordan", "qr_solve") and m != n:
        raise ValueError(f"{kind} expects square matrices, got {m}x{n}")
    if kind in ("qr", "least_squares") and m < n:
        raise ValueError(f"{kind} expects m >= n, got {m}x{n}")
    cost = 2 if complex_dtype else 1
    word = 8 if complex_dtype else 4

    if kind in ("gauss_jordan", "qr_solve"):
        cfg = block_config(n, n + 1, complex_dtype=complex_dtype)
    elif kind == "least_squares":
        cfg = block_config(m, n + 1, complex_dtype=complex_dtype)
    else:
        cfg = block_config(m, n, complex_dtype=complex_dtype)

    rdim = cfg.rdim
    ops: list[OpCounts] = []
    if kind == "lu":
        for j in range(n - 1):
            ops.extend(_count_lu_column(cfg.column_tile_rows(j), cost))
        load, store = m * n * word, m * n * word
    elif kind == "lu_pivot":
        for j in range(n - 1):
            n_tile = cfg.column_tile_rows(j)
            ops.append(
                OpCounts(
                    name="Pivot Search",
                    # magnitude partials + serial max reduction + the
                    # unscaled argmax bookkeeping op per reduction step
                    flop_ops=n_tile * cost + rdim * cost + rdim,
                    shared=rdim + 3,
                    syncs=1,
                )
            )
            ops.append(
                OpCounts(
                    name="Row Swap",
                    shared=4 * cfg.wreg,
                    shared_writes=2 * cfg.wreg,
                    syncs=2,
                )
            )
            ops.extend(_count_lu_column(n_tile, cost))
        load, store = m * n * word, m * n * word
    elif kind == "qr":
        for j in range(_qr_steps(m, n)):
            ops.extend(_count_qr_column(cfg.column_tile_rows(j), rdim, cost))
        load, store = m * n * word, m * n * word
    elif kind == "qr_solve":
        for j in range(_qr_steps(n, n)):
            ops.extend(_count_qr_column(cfg.column_tile_rows(j), rdim, cost))
        ops.extend(_count_back_substitution(cfg, n, cost))
        load, store = n * (n + 1) * word, n * word
    elif kind == "gauss_jordan":
        for _ in range(n):
            # rows never drop out in Gauss-Jordan
            ops.extend(_count_lu_column(cfg.hreg, cost))
        load, store = n * (n + 1) * word, n * word
    elif kind == "cholesky":
        for j in range(n):
            n_tile = cfg.column_tile_rows(j)
            ops.append(
                OpCounts(
                    name=LU_OPS[0],
                    flop_ops=n_tile * cost,
                    divs=1,
                    sqrts=1,
                    shared=2 + n_tile,
                    shared_writes=n_tile,
                    syncs=2,
                )
            )
            ops.append(
                OpCounts(
                    name="Hermitian Update",
                    flop_ops=n_tile * n_tile * cost / 2.0,
                    shared=n_tile,
                    syncs=1,
                )
            )
        load, store = n * n * word, n * n * word
    else:  # least_squares
        for j in range(_qr_steps(m, n)):
            ops.extend(_count_qr_column(cfg.column_tile_rows(j), rdim, cost))
        ops.extend(_count_back_substitution(cfg, n, cost))
        if m > n:
            ops.append(
                OpCounts(
                    name="Residual Norm",
                    flop_ops=cfg.column_tile_rows(n - 1) * cost,
                    sqrts=1,
                )
            )
        load, store = m * (n + 1) * word, (n + 1) * word

    return BlockCounts(
        kind=kind,
        m=m,
        n=n,
        config=cfg,
        ops=tuple(ops),
        load_bytes=float(load),
        store_bytes=float(store),
    )


def panel_breakdown(prediction: PerBlockPrediction) -> list[dict[str, float]]:
    """Per-panel cycles per operation -- the right half of Figure 8.

    Returns one dict per panel mapping operation name to cycles.
    """
    cfg = prediction.config
    panels: list[dict[str, float]] = []
    for p in range(cfg.panels):
        agg: dict[str, float] = {}
        for col in prediction.columns[p * cfg.rdim : (p + 1) * cfg.rdim]:
            for op in col.ops:
                agg[op.name] = agg.get(op.name, 0.0) + op.total
        if agg:
            panels.append(agg)
    return panels
