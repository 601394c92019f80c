"""Sequential tiled QR for problems too tall for one block (Section VII).

"The larger size does not fit in a single thread block so we employ a
sequential tiled QR factorization algorithm similar to the approach in
the PLASMA multicore linear algebra library."

The matrix is cut into row tiles of ``tile_rows`` rows; GEQRT factors the
top tile and each TSQRT stage couples the next tile into the running R.
Right-hand sides ride along through every stage, so least-squares (the
STAP weight solve) costs nothing extra.  Each stage launches as a
one-problem-per-block kernel at the stacked tile's shape, and the stage
timings are summed -- including the register-spill penalty the paper
observes for 240 x 66 ("some of the register file space is being
wasted").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..approaches.base import Workload
from ..approaches.per_block import PerBlockApproach
from ..errors import ShapeError
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.simt import LaunchResult
from ..model.flops import qr_flops, qr_flops_complex
from .tile_kernels import geqrt, tsqrt

__all__ = ["TiledQrResult", "tiled_qr", "tiled_qr_timing", "choose_tile_rows"]


def _stage_shapes(m: int, n: int, tile_rows: int) -> list[tuple[int, int]]:
    shapes = [(min(tile_rows, m), n)]
    row = min(tile_rows, m)
    while row < m:
        rows = min(tile_rows, m - row)
        shapes.append((n + rows, n))
        row += rows
    return shapes


def choose_tile_rows(
    m: int,
    n: int,
    complex_dtype: bool,
    device: DeviceSpec,
    batch: int = 128,
) -> int:
    """Autotune the row-tile height with the per-block charge replay.

    Taller tiles mean fewer stages (less redundant coupling work) but
    more register spilling per stage; the sweet spot moves with the
    matrix shape, so every candidate height is priced with the same cost
    engine the stages will actually run on.  The paper notes the 240x66
    case "does not fit well in our block sizes so some of the register
    file space is being wasted" -- the tuner minimizes, but cannot
    eliminate, that waste.
    """
    if m <= 0 or n <= 0:
        raise ShapeError("matrix dimensions must be positive")
    if m <= n:
        return m
    replay = PerBlockApproach(device=device)
    best_rows, best_time = m, float("inf")
    step = 16  # 256-thread blocks: tile heights in whole row panels
    candidates = sorted({min(m, h) for h in range(max(n, step), m + step, step)})
    for tile_rows in candidates:
        total = 0.0
        for rows, cols in _stage_shapes(m, n, tile_rows):
            launch = replay.launch(Workload("qr", rows, cols, batch, complex_dtype))
            total += launch.batch_seconds(batch)
        if total < best_time:
            best_rows, best_time = tile_rows, total
    return best_rows


@dataclasses.dataclass(frozen=True)
class TiledQrResult:
    """R factor, per-stage launches, and aggregate timing."""

    r: np.ndarray
    carried: np.ndarray | None
    stage_shapes: tuple[tuple[int, int], ...]
    launches: tuple[LaunchResult, ...]
    batch: int
    flops_per_problem: float
    device: DeviceSpec

    @property
    def seconds(self) -> float:
        """Wall time for the whole batch: stages run back to back, each
        processing the batch in resident-block waves."""
        total = 0.0
        for launch in self.launches:
            total += launch.batch_seconds(self.batch)
        return total

    @property
    def gflops(self) -> float:
        return self.flops_per_problem * self.batch / self.seconds / 1e9


def tiled_qr(
    a: np.ndarray,
    b: np.ndarray | None = None,
    tile_rows: int | None = None,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
) -> TiledQrResult:
    """Tiled QR of a tall batch, with optional carried right-hand sides.

    Returns the n x n R factor and, if ``b`` was given, ``Q^H b``'s top
    n rows (ready for a triangular solve).
    """
    a = np.asarray(a)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or a.shape[1] < a.shape[2]:
        raise ShapeError(f"tiled QR expects tall (batch, m, n) input, got {a.shape}")
    batch, m, n = a.shape
    complex_dtype = np.iscomplexobj(a)
    if tile_rows is None:
        tile_rows = choose_tile_rows(m, n, complex_dtype, device)
    if tile_rows < n:
        raise ShapeError(f"tile_rows ({tile_rows}) must be at least n ({n})")

    b_arr = None
    if b is not None:
        b_arr = np.asarray(b, dtype=a.dtype)
        if b_arr.ndim == 2:
            b_arr = b_arr[..., None]
        if b_arr.shape[:2] != (batch, m):
            raise ShapeError(
                f"rhs shape {np.asarray(b).shape} does not match problems {a.shape}"
            )

    replay = PerBlockApproach(device=device, fast_math=fast_math)
    launches: list[LaunchResult] = []
    shapes: list[tuple[int, int]] = []

    # Stage 0: GEQRT on the top tile.
    top = min(tile_rows, m)
    carried = b_arr[:, :top] if b_arr is not None else None
    stage = geqrt(a[:, :top], carried=carried, fast_math=fast_math)
    shapes.append((top, n))
    launches.append(replay.launch(Workload("qr", top, n, batch, complex_dtype)))

    r = stage.r[:, :n, :]
    carried_top = stage.carried[:, :n] if stage.carried is not None else None

    # Coupling stages: TSQRT of [R; next tile].
    row = top
    while row < m:
        rows = min(tile_rows, m - row)
        tile = a[:, row : row + rows]
        carried_stack = None
        if b_arr is not None:
            carried_stack = np.concatenate(
                [carried_top, b_arr[:, row : row + rows]], axis=1
            )
        stage = tsqrt(r, tile, carried=carried_stack, fast_math=fast_math)
        shapes.append((n + rows, n))
        launches.append(
            replay.launch(Workload("qr", n + rows, n, batch, complex_dtype))
        )
        r = stage.r
        if stage.carried is not None:
            carried_top = stage.carried[:, :n]
        row += rows

    flops = qr_flops_complex(m, n) if complex_dtype else qr_flops(m, n)
    return TiledQrResult(
        r=r,
        carried=carried_top,
        stage_shapes=tuple(shapes),
        launches=tuple(launches),
        batch=batch,
        flops_per_problem=flops,
        device=device,
    )


def tiled_qr_timing(
    m: int,
    n: int,
    batch: int,
    complex_dtype: bool = False,
    tile_rows: int | None = None,
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
) -> tuple[tuple[tuple[int, int], ...], tuple[LaunchResult, ...], float]:
    """Timing-only tiled QR: stage shapes, launches, and wall seconds.

    The numerics-free twin of :func:`tiled_qr`, for approach sweeps and
    real-time budgeting where only the cost matters.
    """
    if m < n:
        raise ShapeError(f"tiled QR expects m >= n, got {m}x{n}")
    if tile_rows is None:
        tile_rows = choose_tile_rows(m, n, complex_dtype, device, batch)
    if tile_rows < n:
        raise ShapeError(f"tile_rows ({tile_rows}) must be at least n ({n})")
    replay = PerBlockApproach(device=device, fast_math=fast_math)
    shapes = tuple(_stage_shapes(m, n, tile_rows))
    launches = tuple(
        replay.launch(Workload("qr", rows, cols, batch, complex_dtype))
        for rows, cols in shapes
    )
    seconds = 0.0
    for launch in launches:
        seconds += launch.batch_seconds(batch)
    return shapes, launches, seconds
