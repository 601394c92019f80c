"""2D cyclic layout -- the layout the paper's kernels use.

Thread ``(ti, tj)`` of an ``r x r`` grid owns elements
``A[ti + ii*r, tj + jj*r]`` -- Listing 4's load loop.  Matrices whose
dimensions are not multiples of ``r`` are zero-padded up to the tile
grid; zero padding is invariant under the factorizations' updates, so
kernels can ignore it until the final gather.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..model.block_config import BlockConfig
from .base import Layout

__all__ = ["Cyclic2D"]


class Cyclic2D(Layout):
    """2D cyclic distribution over a square thread grid."""

    def __init__(self, m: int, n: int, threads: int) -> None:
        super().__init__(m, n, threads)
        # One geometry with the kernels: BlockConfig rejects non-square grids.
        cfg = BlockConfig(m, n, threads)
        self.rdim, self.hreg, self.wreg = cfg.rdim, cfg.hreg, cfg.wreg

    # ------------------------------------------------------------------
    def owner(self, i: int, j: int) -> int:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ShapeError(f"element ({i}, {j}) out of range")
        return (i % self.rdim) * self.rdim + (j % self.rdim)

    def owner_coords(self, i: int, j: int) -> tuple[int, int]:
        """(tid, col) grid coordinates, the paper's naming in Listing 5."""
        return i % self.rdim, j % self.rdim

    def local_index(self, i: int, j: int) -> tuple[int, int]:
        """(ii, jj) register-tile indices of element ``(i, j)``."""
        return i // self.rdim, j // self.rdim

    def elements_per_thread(self) -> int:
        return self.hreg * self.wreg

    # ------------------------------------------------------------------
    def scatter(self, matrices: np.ndarray) -> np.ndarray:
        """(batch, m, n) -> (batch, rdim, rdim, hreg, wreg) register tiles."""
        arr = self._check_input(matrices)
        batch = arr.shape[0]
        r = self.rdim
        padded = np.zeros((batch, self.hreg * r, self.wreg * r), dtype=arr.dtype)
        padded[:, : self.m, : self.n] = arr
        # padded[b, ti + ii*r, tj + jj*r] -> tiles[b, ti, tj, ii, jj]
        tiles = padded.reshape(batch, self.hreg, r, self.wreg, r)
        return np.ascontiguousarray(tiles.transpose(0, 2, 4, 1, 3))

    def gather(self, storage: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`scatter`."""
        tiles = np.asarray(storage)
        r = self.rdim
        expected = (r, r, self.hreg, self.wreg)
        if tiles.ndim == 4:
            tiles = tiles[None]
        if tiles.ndim != 5 or tiles.shape[1:] != expected:
            raise ShapeError(
                f"expected (batch, {', '.join(map(str, expected))}) tiles, "
                f"got {tiles.shape}"
            )
        batch = tiles.shape[0]
        padded = tiles.transpose(0, 3, 1, 4, 2).reshape(
            batch, self.hreg * r, self.wreg * r
        )
        return np.ascontiguousarray(padded[:, : self.m, : self.n])
