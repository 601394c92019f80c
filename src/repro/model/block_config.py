"""Launch-shape selection for the one-problem-per-block approach.

The 2D cyclic layout requires a perfect-square thread count (Section V:
"the number of threads must be a perfect square").  The paper uses 64
threads (an 8x8 grid) for matrices narrower than 80 columns and 256
threads (16x16) from 80 up -- the switch is the sharp performance step in
Figure 9.  :func:`block_config` encodes that rule so the analytic model,
the device kernels, and the benchmarks all agree on the launch shape.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from ..errors import LaunchConfigurationError
from ..gpu.device import DeviceSpec
from ..gpu.registers import registers_for_matrix

__all__ = ["BlockConfig", "block_config"]

#: Column count at which the paper switches from 64 to 256 threads.
THREAD_SWITCH_AT = 80


@dataclasses.dataclass(frozen=True)
class BlockConfig:
    """One-problem-per-block launch shape for an m x n matrix."""

    m: int
    n: int
    threads: int
    complex_dtype: bool = False

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise LaunchConfigurationError("matrix dimensions must be positive")
        if self.threads < 1:
            raise LaunchConfigurationError("a block needs at least one thread")
        root = math.isqrt(self.threads)
        if root * root != self.threads:
            raise LaunchConfigurationError(
                f"2D cyclic layout needs a square thread count, got {self.threads}"
            )

    @functools.cached_property
    def rdim(self) -> int:
        """sqrt(p): the side of the thread grid (RDIM in Listing 4)."""
        return math.isqrt(self.threads)

    @functools.cached_property
    def hreg(self) -> int:
        """Rows of the per-thread register tile (HREG)."""
        return -(-self.m // self.rdim)

    @functools.cached_property
    def wreg(self) -> int:
        """Columns of the per-thread register tile (WREG)."""
        return -(-self.n // self.rdim)

    @property
    def registers_per_thread(self) -> int:
        return registers_for_matrix(
            self.hreg, self.wreg, complex_dtype=self.complex_dtype
        )

    @property
    def panels(self) -> int:
        """Column panels: each panel holds sqrt(p) columns."""
        return self.wreg

    def column_tile_rows(self, column: int) -> int:
        """N for ``column``: per-thread rows of the active column.

        The active part of the matrix shrinks by one row-panel and one
        column-panel per panel, so N = HREG - (panel index), floored at 1.
        """
        if not 0 <= column < self.n:
            raise ValueError(f"column {column} out of range for n={self.n}")
        return max(1, self.hreg - column // self.rdim)


def block_config(
    m: int, n: int, complex_dtype: bool = False, device: DeviceSpec | None = None
) -> BlockConfig:
    """The paper's launch-shape rule for an m x n problem."""
    threads = 64 if n < THREAD_SWITCH_AT else 256
    return BlockConfig(m=m, n=n, threads=threads, complex_dtype=complex_dtype)
