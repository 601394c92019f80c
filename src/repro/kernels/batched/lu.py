"""Batched LU factorization (Section III-B).

The paper's LU does **not pivot**: "the output of the factorization is
simply the lower triangular L and the upper triangular U written over the
original matrix A".  The sweep scales each column below the diagonal by
the reciprocal of the pivot and applies a rank-1 Schur-complement update
-- exactly the column-operation / trailing-update split the per-block
kernel and the Table-VI model use.

Layout rule: :func:`lu_factor` sweeps a private ``(n, n, batch)`` copy
and writes the factors back as ``(batch, n, n)``.  With the problem
index innermost -- Section IV's one problem per thread, every lane
running the same column step on its own matrix -- each NumPy loop runs
over the whole batch instead of one short strided row per problem.
The bits are those of a batch-first loop because each operation keeps
its loop shape: the column scale multiplies through the ``(batch, r)``
view and the rank-1 update stays an einsum outer product
(``tests/kernels/test_reference_numerics.py`` compares the two byte
for byte).

A partial-pivoting variant (:func:`lu_factor_pivot`) is provided as the
stability extension the paper defers; it is what MKL/MAGMA do in the
Figure-11 comparison.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

import numpy as np

from ...errors import SingularMatrixError
from ._arith import arithmetic_mode
from .trsm import solve_lower_unit, solve_upper
from .validate import as_batch, batch_last, check_square_batch

__all__ = [
    "LuResult",
    "PivotedLuResult",
    "lu_factor",
    "lu_solve",
    "lu_factor_pivot",
    "lu_solve_pivot",
]


@dataclasses.dataclass(frozen=True)
class LuResult:
    """Packed LU factors (L strictly below the diagonal, unit-implicit)."""

    lu: np.ndarray
    not_solved: np.ndarray

    @property
    def all_solved(self) -> bool:
        return not bool(self.not_solved.any())

    def lower(self) -> np.ndarray:
        n = self.lu.shape[1]
        return np.tril(self.lu, -1) + np.eye(n, dtype=self.lu.dtype)

    def upper(self) -> np.ndarray:
        return np.triu(self.lu)


@dataclasses.dataclass(frozen=True)
class PivotedLuResult(LuResult):
    """LU with a row-permutation: ``P A = L U`` (``perm`` row order)."""

    perm: np.ndarray = None  # type: ignore[assignment]


def lu_factor(
    a: np.ndarray,
    fast_math: bool = True,
    on_singular: Literal["flag", "raise"] = "flag",
) -> LuResult:
    """Unpivoted LU of a square batch, L and U packed over A."""
    a = as_batch(a)
    check_square_batch(a)
    batch, n, _ = a.shape
    mode = arithmetic_mode(fast_math)
    not_solved = np.zeros(batch, dtype=bool)
    one = np.asarray(1.0, dtype=a.dtype)
    t = batch_last(a)  # (n, n, batch)

    for j in range(n - 1):
        pivot = t[j, j].copy()
        singular = pivot == 0
        not_solved |= singular
        safe = np.where(singular, one, pivot)
        scale = mode.divide(one, safe)
        # Column operation: l = A[j+1:, j] / pivot, multiplied through
        # the (batch, r) view so complex products keep their bits.
        col = t[j + 1 :, j]
        col.T[...] = col.T * scale[:, None]
        # Trailing update: Schur complement -= outer(l, u).  einsum's
        # outer-product loop runs about twice as fast as a broadcast
        # multiply at n >= 32.
        t[j + 1 :, j + 1 :] -= np.einsum("ib,jb->ijb", col, t[j, j + 1 :])

    not_solved |= t[n - 1, n - 1] == 0
    a[...] = t.transpose(2, 0, 1)
    if on_singular == "raise" and not_solved.any():
        raise SingularMatrixError(
            f"{int(not_solved.sum())} of {batch} matrices hit a zero pivot"  # noqa: RPR001 -- boolean count; integer accumulation is order-free
        )
    return LuResult(lu=a, not_solved=not_solved)


def lu_solve(result: LuResult, b: np.ndarray, fast_math: bool = True) -> np.ndarray:
    """Solve ``A x = b`` from packed unpivoted factors (forward + back)."""
    y = solve_lower_unit(result.lu, b)
    return solve_upper(result.lu, y, fast_math=fast_math)


def lu_factor_pivot(a: np.ndarray, fast_math: bool = True) -> PivotedLuResult:
    """LU with partial (row) pivoting: the paper's deferred extension.

    Row swaps are data-dependent, which is why the paper's register-file
    kernels avoid them; here the batch is vectorized with per-problem
    ``argmax`` pivot selection.
    """
    a = as_batch(a)
    check_square_batch(a)
    batch, n, _ = a.shape
    mode = arithmetic_mode(fast_math)
    perm = np.tile(np.arange(n), (batch, 1))
    rows = np.arange(batch)
    not_solved = np.zeros(batch, dtype=bool)
    one = np.asarray(1.0, dtype=a.dtype)

    for j in range(n - 1):
        # Per-problem pivot row: largest magnitude at or below the diagonal.
        piv = j + np.abs(a[:, j:, j]).argmax(axis=1)
        # Swap rows j and piv in every problem (no-op where piv == j).
        row_j = a[rows, j, :].copy()
        a[rows, j, :] = a[rows, piv, :]
        a[rows, piv, :] = row_j
        perm_j = perm[rows, j].copy()
        perm[rows, j] = perm[rows, piv]
        perm[rows, piv] = perm_j
        pivot = a[:, j, j].copy()
        singular = pivot == 0
        not_solved |= singular
        safe = np.where(singular, one, pivot)
        scale = mode.divide(one, safe)
        a[:, j + 1 :, j] = a[:, j + 1 :, j] * scale[:, None]
        a[:, j + 1 :, j + 1 :] -= a[:, j + 1 :, j, None] * a[:, j, None, j + 1 :]

    not_solved |= a[:, n - 1, n - 1] == 0
    return PivotedLuResult(lu=a, not_solved=not_solved, perm=perm)


def lu_solve_pivot(
    result: PivotedLuResult, b: np.ndarray, fast_math: bool = True
) -> np.ndarray:
    """Solve ``A x = b`` from pivoted factors (apply P, then L, then U)."""
    b_arr = np.asarray(b)
    squeeze = b_arr.ndim == 2
    if squeeze:
        b_arr = b_arr[..., None]
    permuted = np.take_along_axis(b_arr, result.perm[:, :, None], axis=1)
    y = solve_lower_unit(result.lu, permuted)
    x = solve_upper(result.lu, y, fast_math=fast_math)
    return x[..., 0] if squeeze else x
