"""Batch-first reference loops for the batched LU and Householder sweeps.

These are the column loops ``repro.kernels.batched`` ran before its
sweeps moved to a batch-innermost ``(m, k, batch)`` copy: each column
step works on ``(batch, ...)`` slices of the caller's layout.  The
library must reproduce them byte for byte
(``tests/kernels/test_reference_numerics.py``), so they keep every
operation's shape: the einsum outer product and contraction, the
broadcast reflector update, the pairwise column-norm sum and the
``(batch, r)`` column scale.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batched._arith import arithmetic_mode
from repro.kernels.batched.trsm import solve_upper
from repro.kernels.batched.validate import as_batch


def lu_factor(a: np.ndarray, fast_math: bool = True):
    """Unpivoted packed LU: ``(lu, not_solved)``."""
    a = as_batch(a)
    batch, n, _ = a.shape
    mode = arithmetic_mode(fast_math)
    not_solved = np.zeros(batch, dtype=bool)
    one = np.asarray(1.0, dtype=a.dtype)

    for j in range(n - 1):
        pivot = a[:, j, j].copy()
        singular = pivot == 0
        not_solved |= singular
        safe = np.where(singular, one, pivot)
        scale = mode.divide(one, safe)
        a[:, j + 1 :, j] = a[:, j + 1 :, j] * scale[:, None]
        a[:, j + 1 :, j + 1 :] -= np.einsum(
            "bi,bj->bij", a[:, j + 1 :, j], a[:, j, j + 1 :]
        )

    not_solved |= a[:, n - 1, n - 1] == 0
    return a, not_solved


def _column_norms(x: np.ndarray, mode) -> np.ndarray:
    """2-norms over axis 1 of a ``(batch, r)`` column slice."""
    sq = (x.real * x.real + x.imag * x.imag) if np.iscomplexobj(x) else x * x
    return mode.sqrt(sq.sum(axis=1).astype(x.real.dtype))


def householder_sweep(aug: np.ndarray, ncols: int, fast_math: bool):
    """Factor the first ``ncols`` columns of ``aug`` in place: ``(aug, taus)``."""
    batch, m, _ = aug.shape
    dtype = aug.dtype
    real_dtype = aug.real.dtype
    mode = arithmetic_mode(fast_math)
    taus = np.zeros((batch, ncols), dtype=dtype)
    complex_input = np.iscomplexobj(aug)

    steps = ncols if m > ncols else ncols - 1
    for j in range(steps):
        x = aug[:, j:, j]
        alpha = x[:, 0].copy()
        norm = _column_norms(x, mode)
        live = norm != 0

        sign = np.where(alpha.real >= 0, 1.0, -1.0).astype(real_dtype)
        beta = (-sign * norm).astype(real_dtype)
        denom = np.where(live, (alpha - beta).astype(dtype), np.asarray(1, dtype))
        beta_safe = np.where(live, beta, np.asarray(1, real_dtype))
        tau = np.where(live, ((beta - alpha) / beta_safe).astype(dtype), 0)
        taus[:, j] = tau

        v = mode.divide(x, denom[:, None]).astype(dtype)
        v[:, 0] = 1
        if not complex_input:
            v = v.real.astype(dtype)

        trailing = aug[:, j:, j + 1 :]
        w = np.einsum("bi,bij->bj", v.conj(), trailing)
        trailing -= tau.conj()[:, None, None] * v[:, :, None] * w[:, None, :]

        aug[:, j, j] = np.where(live, beta.astype(dtype), alpha)
        aug[:, j + 1 :, j] = np.where(live[:, None], v[:, 1:], x[:, 1:])
    return aug, taus


def qr_factor(a: np.ndarray, fast_math: bool = True):
    """Packed Householder QR: ``(packed, taus)``."""
    a = as_batch(a)
    return householder_sweep(a, a.shape[2], fast_math)


def _swept_rhs(a: np.ndarray, b: np.ndarray, fast_math: bool):
    """Sweep ``[A | b]``: ``(x, Q^H b, taus)`` for a ``(batch, m)`` rhs."""
    a = as_batch(a)
    n = a.shape[2]
    aug = np.concatenate([a, np.asarray(b, dtype=a.dtype)[..., None]], axis=2)
    aug, taus = householder_sweep(aug, n, fast_math)
    qtb = aug[:, :, n:]
    x = solve_upper(np.triu(aug[:, :n, :n]), qtb[:, :n], fast_math=fast_math)
    return x[..., 0], qtb, taus


def qr_solve_with_taus(a: np.ndarray, b: np.ndarray, fast_math: bool = True):
    """QR solve of a ``(batch, m)`` rhs: ``(x, taus)``."""
    x, _, taus = _swept_rhs(a, b, fast_math)
    return x, taus


def least_squares(a: np.ndarray, b: np.ndarray, fast_math: bool = True):
    """Least squares of a ``(batch, m)`` rhs: ``(x, residual_norms)``."""
    x, qtb, _ = _swept_rhs(a, b, fast_math)
    batch, m, n = np.shape(a)
    if m > n:
        residual_norms = np.linalg.norm(qtb[:, n:, :], axis=1)
    else:
        residual_norms = np.zeros((batch, 1), dtype=x.real.dtype)
    return x, residual_norms[..., 0]
