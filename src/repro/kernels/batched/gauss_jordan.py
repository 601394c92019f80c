"""Batched Gauss-Jordan linear-system solver (Section III-A).

Follows the paper's algorithm exactly: the right-hand side is attached to
the right of the matrix, and the augmented system is swept left to right
-- each pivot row is scaled by the reciprocal of its diagonal element and
an outer-product update clears the pivot column everywhere else, driving
``A`` to reduced row echelon form.  **No pivoting** is performed; a zero
pivot sets the per-problem ``not_solved`` flag, mirroring Listing 5's
``*notsolved = 1``.

The batch dimension is fully vectorized: every problem executes the same
left-to-right schedule (the kernels are branch-free on the GPU for the
same reason).
"""

from __future__ import annotations

import dataclasses
from typing import Literal

import numpy as np

from ...errors import ShapeError, SingularMatrixError
from ._arith import arithmetic_mode
from .validate import as_batch, check_square_batch

__all__ = ["GaussJordanResult", "gauss_jordan_solve"]


@dataclasses.dataclass(frozen=True)
class GaussJordanResult:
    """Solution batch plus per-problem singularity flags."""

    x: np.ndarray
    not_solved: np.ndarray

    @property
    def all_solved(self) -> bool:
        return not bool(self.not_solved.any())


def gauss_jordan_solve(
    a: np.ndarray,
    b: np.ndarray,
    fast_math: bool = True,
    on_singular: Literal["flag", "raise"] = "flag",
) -> GaussJordanResult:
    """Solve ``A x = b`` for a batch of square systems, without pivoting.

    ``a``: ``(batch, n, n)``; ``b``: ``(batch, n)`` or ``(batch, n, nrhs)``.
    Problems that hit an exactly-zero pivot are flagged (their ``x`` is
    NaN) or, with ``on_singular="raise"``, abort the whole batch.
    """
    a = as_batch(a)
    check_square_batch(a)
    batch, n, _ = a.shape
    b_arr = np.asarray(b, dtype=a.dtype)
    squeeze = b_arr.ndim == 2
    if squeeze:
        b_arr = b_arr[..., None]
    if b_arr.shape[0] != batch or b_arr.shape[1] != n or b_arr.ndim != 3:
        raise ShapeError(
            f"rhs shape {np.asarray(b).shape} does not match systems {a.shape}"
        )

    mode = arithmetic_mode(fast_math)
    aug = np.concatenate([a, b_arr], axis=2)  # the paper attaches b to A
    not_solved = np.zeros(batch, dtype=bool)
    one = np.asarray(1.0, dtype=a.dtype)

    for j in range(n):
        diag = aug[:, j, j].copy()
        singular = diag == 0
        not_solved |= singular
        safe = np.where(singular, one, diag)
        scale = mode.divide(one, safe)
        # Scale the pivot row (only columns j..end change).
        aug[:, j, j:] = aug[:, j, j:] * scale[:, None]
        # Eliminate the pivot column from every other row.
        col = aug[:, :, j].copy()
        col[:, j] = 0
        aug[:, :, j:] -= np.einsum("bi,bj->bij", col, aug[:, j, j:])

    if on_singular == "raise" and not_solved.any():
        raise SingularMatrixError(
            f"{int(not_solved.sum())} of {batch} systems hit a zero pivot"  # noqa: RPR001 -- boolean count; integer accumulation is order-free
        )

    x = aug[:, :, n:]
    if not_solved.any():
        x = x.copy()
        x[not_solved] = np.nan
    if squeeze:
        x = x[..., 0]
    return GaussJordanResult(x=x, not_solved=not_solved)

