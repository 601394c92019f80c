"""Alternative QR algorithms (Section III-C's rejected candidates).

The paper: "one could use any of the following algorithms: Cholesky QR,
Gram-Schmidt, Givens rotations, or Householder reflectors.
Unfortunately, Cholesky QR and Gram-Schmidt are numerically unstable, so
we are limited to using either Givens rotations or Householder
reflectors."

This module implements all four so the claim is *testable* (see
``tests/kernels/test_alternatives.py``): on ill-conditioned batches the
orthogonality error of Cholesky-QR grows like kappa^2 and classical
Gram-Schmidt like kappa, while Givens and Householder stay at machine
precision.  A batched Cholesky factorization is included as the
Cholesky-QR building block (and a useful kernel in its own right).

All routines are batched/vectorized like the rest of the library and
honour the ``fast_math`` switch.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...errors import SingularMatrixError
from ._arith import arithmetic_mode
from .trsm import solve_lower
from .validate import as_batch, check_square_batch, check_tall_batch

__all__ = [
    "CholeskyResult",
    "cholesky_factor",
    "cholesky_factor_flagged",
    "cholesky_qr",
    "gram_schmidt_qr",
    "modified_gram_schmidt_qr",
    "givens_qr",
    "QrExplicit",
]


@dataclasses.dataclass(frozen=True)
class QrExplicit:
    """Explicit thin-QR output shared by the alternative algorithms."""

    q: np.ndarray
    r: np.ndarray


@dataclasses.dataclass(frozen=True)
class CholeskyResult:
    """Lower Cholesky factors plus per-problem not-HPD flags."""

    #: ``L`` with ``A = L L^H`` (upper triangle zero); NaN where flagged.
    lower: np.ndarray
    #: Problems that hit a non-positive pivot.
    not_hpd: np.ndarray


def cholesky_factor(a: np.ndarray, fast_math: bool = True) -> np.ndarray:
    """Batched Cholesky: lower L with ``A = L L^H`` for HPD matrices.

    Raises :class:`SingularMatrixError` if any matrix is not positive
    definite (non-positive pivot); :func:`cholesky_factor_flagged` flags
    such problems one by one instead.
    """
    result = cholesky_factor_flagged(a, fast_math=fast_math)
    if result.not_hpd.any():
        raise SingularMatrixError(
            f"{int(np.count_nonzero(result.not_hpd))} of {len(result.not_hpd)} "
            "matrices are not positive definite"
        )
    return result.lower


def cholesky_factor_flagged(a: np.ndarray, fast_math: bool = True) -> CholeskyResult:
    """Batched Cholesky that flags non-HPD problems instead of raising.

    Left-looking column sweep, vectorized over the batch.  A problem
    whose pivot is not positive is flagged in ``not_hpd`` and its factor
    is NaN; every other problem's factor is exactly what it would be in
    a batch without it.
    """
    a = as_batch(a)
    check_square_batch(a)
    mode = arithmetic_mode(fast_math)
    batch, n, _ = a.shape
    chol = np.zeros_like(a)
    not_hpd = np.zeros(batch, dtype=bool)
    one = np.ones((), dtype=a.real.dtype)
    for j in range(n):
        if j:
            row = chol[:, j, :j]
            diag_acc = a[:, j, j].real - np.einsum(  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
                "bk,bk->b", row, row.conj()
            ).real
        else:
            diag_acc = a[:, j, j].real
        bad = diag_acc <= 0
        not_hpd |= bad
        pivot = mode.sqrt(np.where(bad, one, diag_acc).astype(a.real.dtype))
        chol[:, j, j] = pivot.astype(a.dtype)
        if j + 1 < n:
            if j:
                lower = a[:, j + 1 :, j] - np.einsum(  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
                    "bik,bk->bi", chol[:, j + 1 :, :j], chol[:, j, :j].conj()
                )
            else:
                lower = a[:, j + 1 :, j]
            chol[:, j + 1 :, j] = mode.divide(lower, pivot[:, None]).astype(a.dtype)
    chol[not_hpd] = np.nan
    return CholeskyResult(lower=chol, not_hpd=not_hpd)


def cholesky_qr(a: np.ndarray, fast_math: bool = True) -> QrExplicit:
    """Cholesky QR: ``R = chol(A^H A)^H``, ``Q = A R^{-1}``.

    One GEMM, one small Cholesky, one triangular solve -- beautifully
    GPU-friendly and, as the paper says, numerically unstable: the Gram
    matrix squares the condition number, so orthogonality degrades like
    kappa(A)^2.
    """
    a = as_batch(a)
    check_tall_batch(a)
    gram = np.einsum("bki,bkj->bij", a.conj(), a)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
    chol = cholesky_factor(gram, fast_math=fast_math)
    r = np.swapaxes(chol.conj(), 1, 2)
    # Q = A R^{-1}: transpose to R^T Q^T = A^T with lower-triangular R^T.
    qt = solve_lower(np.swapaxes(r, 1, 2), np.swapaxes(a, 1, 2), fast_math=fast_math)
    q = np.swapaxes(qt, 1, 2)
    return QrExplicit(q=np.ascontiguousarray(q), r=r)


def gram_schmidt_qr(a: np.ndarray, fast_math: bool = True) -> QrExplicit:
    """Classical Gram-Schmidt: project against all previous columns at
    once.  Orthogonality degrades like kappa(A) -- the paper's other
    rejected candidate."""
    a = as_batch(a)
    check_tall_batch(a)
    mode = arithmetic_mode(fast_math)
    batch, m, n = a.shape
    q = np.zeros_like(a)
    r = np.zeros((batch, n, n), dtype=a.dtype)
    for j in range(n):
        v = a[:, :, j].copy()
        if j:
            coeffs = np.einsum("bmk,bm->bk", q[:, :, :j].conj(), a[:, :, j])  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
            r[:, :j, j] = coeffs
            v = v - np.einsum("bmk,bk->bm", q[:, :, :j], coeffs)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
        norm = _norm(v, mode)
        r[:, j, j] = norm.astype(a.dtype)
        q[:, :, j] = mode.divide(v, _safe(norm)[:, None]).astype(a.dtype)
    return QrExplicit(q=q, r=r)


def modified_gram_schmidt_qr(a: np.ndarray, fast_math: bool = True) -> QrExplicit:
    """Modified Gram-Schmidt: project sequentially (loses only ~kappa
    against CGS's kappa in the constant; still not backward stable)."""
    a = as_batch(a)
    check_tall_batch(a)
    mode = arithmetic_mode(fast_math)
    batch, m, n = a.shape
    v = a.copy()
    q = np.zeros_like(a)
    r = np.zeros((batch, n, n), dtype=a.dtype)
    for j in range(n):
        norm = _norm(v[:, :, j], mode)
        r[:, j, j] = norm.astype(a.dtype)
        q[:, :, j] = mode.divide(v[:, :, j], _safe(norm)[:, None]).astype(a.dtype)
        if j + 1 < n:
            coeffs = np.einsum("bm,bmk->bk", q[:, :, j].conj(), v[:, :, j + 1 :])  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
            r[:, j, j + 1 :] = coeffs
            v[:, :, j + 1 :] -= q[:, :, j][:, :, None] * coeffs[:, None, :]
    return QrExplicit(q=q, r=r)


def givens_qr(a: np.ndarray, fast_math: bool = True) -> QrExplicit:
    """Givens-rotation QR: zero the subdiagonal one rotation at a time.

    Numerically stable like Householder (each rotation is exactly
    orthogonal to rounding), at the price of ~50% more flops -- the
    trade the paper notes before choosing Householder for LAPACK
    compatibility.
    """
    a = as_batch(a)
    check_tall_batch(a)
    mode = arithmetic_mode(fast_math)
    batch, m, n = a.shape
    r = a.copy()
    q = np.zeros((batch, m, m), dtype=a.dtype)
    idx = np.arange(m)
    q[:, idx, idx] = 1
    for j in range(n):
        for i in range(m - 1, j, -1):
            f = r[:, i - 1, j]
            g = r[:, i, j]
            c, s = _givens_coeffs(f, g, mode)
            _apply_rotation(r, i - 1, i, c, s, col_start=j)
            _apply_rotation(q, i - 1, i, c, s, col_start=0)
    qthin = np.ascontiguousarray(np.swapaxes(q.conj(), 1, 2)[:, :, :n])
    return QrExplicit(q=qthin, r=np.triu(r[:, :n, :]))


def _norm(v: np.ndarray, mode) -> np.ndarray:
    sq = (v.real * v.real + v.imag * v.imag) if np.iscomplexobj(v) else v * v
    return mode.sqrt(sq.sum(axis=1).astype(v.real.dtype))


def _safe(x: np.ndarray) -> np.ndarray:
    return np.where(x == 0, np.ones_like(x), x)


def _givens_coeffs(f: np.ndarray, g: np.ndarray, mode):
    """(c, s) zeroing g against f: [c s; -conj(s) c]^H [f; g] = [r; 0]."""
    denom = _norm(np.stack([f, g], axis=1), mode)
    live = denom != 0
    safe = _safe(denom)
    c = mode.divide(np.abs(f), safe)
    c = np.where(live, c, np.ones_like(c))
    phase = np.where(f == 0, np.ones_like(f), f) / _safe(np.abs(f))
    s = mode.divide(phase * g.conj(), safe.astype(f.dtype))
    s = np.where(live, s, np.zeros_like(s))
    return c.astype(f.real.dtype), s.astype(f.dtype)


def _apply_rotation(mat: np.ndarray, i: int, k: int, c, s, col_start: int) -> None:
    """Left-apply the rotation to rows (i, k) of ``mat`` in place."""
    row_i = mat[:, i, col_start:].copy()
    row_k = mat[:, k, col_start:].copy()
    mat[:, i, col_start:] = c[:, None] * row_i + s[:, None] * row_k
    mat[:, k, col_start:] = -s.conj()[:, None] * row_i + c[:, None] * row_k
