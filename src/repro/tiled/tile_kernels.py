"""Tile kernels for the sequential tiled QR (Section VII).

Problems too tall for one thread block's register file (the RT_STAP
240 x 66 case) are factored PLASMA-style: the top tile is QR-factored
(GEQRT), then each further row tile is *coupled* against the current R
(TSQRT -- the QR of an upper triangle stacked on a dense tile).  Both
kernels are expressed with the batched Householder sweep, so numerics
stay identical to the rest of the library; their cycle cost comes from
the per-block charge replay at the stacked tile's shape.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ShapeError
from ..kernels.batched.qr import _householder_sweep

__all__ = ["TileFactor", "geqrt", "tsqrt"]


@dataclasses.dataclass(frozen=True)
class TileFactor:
    """Result of one tile kernel: the updated R and the reflectors."""

    r: np.ndarray  # (batch, n, n) upper triangular
    v: np.ndarray  # (batch, rows, n) packed reflectors (below-R part)
    taus: np.ndarray
    #: Q^H applied to any carried right-hand-side columns.
    carried: np.ndarray | None = None


def _sweep(stacked: np.ndarray, ncols: int, carried, fast_math: bool):
    if carried is not None:
        c = np.asarray(carried, dtype=stacked.dtype)
        if c.ndim == 2:
            c = c[..., None]
        if c.shape[:2] != stacked.shape[:2]:
            raise ShapeError(
                f"carried RHS shape {c.shape} does not match tile {stacked.shape}"
            )
        stacked = np.concatenate([stacked, c], axis=2)
    swept, taus = _householder_sweep(stacked, ncols, fast_math)
    carried_out = swept[:, :, ncols:] if carried is not None else None
    return swept[:, :, :ncols], taus, carried_out


def geqrt(
    tile: np.ndarray, carried: np.ndarray | None = None, fast_math: bool = True
) -> TileFactor:
    """QR-factor the top tile: (batch, mb, n) with mb >= n."""
    tile = np.asarray(tile)
    if tile.ndim == 2:
        tile = tile[None]
    if tile.ndim != 3 or tile.shape[1] < tile.shape[2]:
        raise ShapeError(f"GEQRT expects tall (batch, mb, n) tiles, got {tile.shape}")
    n = tile.shape[2]
    swept, taus, carried_out = _sweep(tile, n, carried, fast_math)
    r = np.triu(swept[:, :n, :])
    v = swept.copy()
    return TileFactor(r=r, v=v, taus=taus, carried=carried_out)


def tsqrt(
    r: np.ndarray,
    tile: np.ndarray,
    carried: np.ndarray | None = None,
    fast_math: bool = True,
) -> TileFactor:
    """Couple a new row tile into R: QR of ``[R; tile]`` stacked.

    ``r``: (batch, n, n) upper triangular from the previous stage;
    ``tile``: (batch, mb, n).  Returns the updated R and the reflectors
    of the stacked factorization.
    """
    r = np.asarray(r)
    tile = np.asarray(tile)
    if r.ndim == 2:
        r = r[None]
    if tile.ndim == 2:
        tile = tile[None]
    if r.shape[1] != r.shape[2]:
        raise ShapeError(f"TSQRT expects square R, got {r.shape}")
    if tile.shape[2] != r.shape[2] or tile.shape[0] != r.shape[0]:
        raise ShapeError(
            f"tile shape {tile.shape} does not match R {r.shape}"
        )
    n = r.shape[2]
    stacked = np.concatenate([r, tile], axis=1)
    swept, taus, carried_out = _sweep(stacked, n, carried, fast_math)
    return TileFactor(
        r=np.triu(swept[:, :n, :]), v=swept, taus=taus, carried=carried_out
    )
