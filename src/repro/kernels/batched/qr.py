"""Batched Householder QR (Section III-C).

The paper uses Householder reflectors "because it is consistent with
LAPACK" (Cholesky-QR and Gram-Schmidt being unstable, Givens an
alternative).  This is the LAPACK ``geqrf`` formulation, vectorized over
the batch:

for each column j:
  * ``beta = -sign(Re(a_jj)) * ||A[j:, j]||``  (beta is real),
  * ``tau = (beta - a_jj) / beta``,
  * ``v = A[j:, j] / (a_jj - beta)`` with ``v_0 = 1`` implicit,
  * trailing update ``A[j:, j+1:] -= tau * v (v^H A[j:, j+1:])``,
  * store ``beta`` on the diagonal and ``v[1:]`` below it.

Norms and scale factors go through the fast-math (22-mantissa-bit) path
when ``fast_math=True``, matching the ``--use_fast_math`` builds of the
paper.  Real and complex single/double precision are supported.

Layout rule: the sweep behind :func:`qr_factor`, :func:`qr_solve` and
least squares works on a private ``(m, k, batch)`` copy and returns
the result as ``(batch, m, k)``.  With the problem index innermost
(Section IV's one problem per thread), each NumPy loop runs over the
whole batch instead of one short strided row per problem.  The bits are
those of a batch-first loop because each reduction and complex product
keeps its loop shape: the column norm sums a contiguous ``(batch, r)``
copy (NumPy's pairwise sum; a sum over the batch-last axis would be a
left fold), ``v^H A`` stays an einsum contraction, and the rank-1
update stays a broadcast product
(``tests/kernels/test_reference_numerics.py`` compares the two byte
for byte).  :func:`qr_unpack` and :func:`apply_qt` loop batch-first.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._arith import arithmetic_mode
from .trsm import solve_upper
from .validate import as_batch, batch_last, check_tall_batch

__all__ = [
    "QrFactors",
    "qr_factor",
    "qr_unpack",
    "apply_qt",
    "qr_solve",
    "qr_solve_with_taus",
]


@dataclasses.dataclass(frozen=True)
class QrFactors:
    """Packed QR: R in the upper triangle, reflectors below, taus aside."""

    packed: np.ndarray
    taus: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.packed.shape

    def r(self) -> np.ndarray:
        """The (batch, n, n) upper-triangular factor."""
        n = self.packed.shape[2]
        return np.triu(self.packed[:, :n, :])

    def q(self) -> np.ndarray:
        """The thin (batch, m, n) orthonormal factor."""
        return qr_unpack(self)


def _column_norms(x: np.ndarray, mode) -> np.ndarray:
    """2-norms over axis 1, with the paper's fast square root if chosen."""
    sq = (x.real * x.real + x.imag * x.imag) if np.iscomplexobj(x) else x * x
    return mode.sqrt(sq.sum(axis=1).astype(x.real.dtype))


def qr_factor(a: np.ndarray, fast_math: bool = True) -> QrFactors:
    """Householder QR of a (batch, m, n) tall batch, packed LAPACK-style."""
    a = as_batch(a)
    check_tall_batch(a)
    aug, taus = _householder_sweep(a, a.shape[2], fast_math)
    return QrFactors(packed=aug, taus=taus)


def _householder_sweep(
    aug: np.ndarray, ncols: int, fast_math: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Factor the first ``ncols`` columns of a copy of ``aug``.

    Reflector j is applied to *all* trailing columns of ``aug`` --
    including any right-hand sides appended past ``ncols`` (the
    least-squares trick of Section III-D).  Returns the factored
    ``(batch, m, k)`` array and the taus; ``aug`` is left as it was.
    """
    batch, m, _ = aug.shape
    dtype = aug.dtype
    real_dtype = aug.real.dtype
    mode = arithmetic_mode(fast_math)
    taus = np.zeros((batch, ncols), dtype=dtype)
    complex_input = np.iscomplexobj(aug)
    t = batch_last(aug)  # (m, k, batch)

    steps = ncols if m > ncols else ncols - 1  # no reflector for a 1-row tail
    for j in range(steps):
        x = t[j:, j]
        alpha = x[0].copy()
        # A contiguous (batch, r) copy keeps NumPy's pairwise sum; a sum
        # over the batch-last axis would be a plain left fold.
        norm = _column_norms(np.ascontiguousarray(x.T), mode)
        live = norm != 0  # zero columns keep tau = 0

        sign = np.where(alpha.real >= 0, 1.0, -1.0).astype(real_dtype)
        beta = (-sign * norm).astype(real_dtype)
        denom = np.where(live, (alpha - beta).astype(dtype), np.asarray(1, dtype))
        beta_safe = np.where(live, beta, np.asarray(1, real_dtype))
        tau = np.where(live, ((beta - alpha) / beta_safe).astype(dtype), 0)
        taus[:, j] = tau

        # v = x / (alpha - beta), v0 = 1 implicit.
        v = mode.divide(x, denom).astype(dtype)
        v[0] = 1
        if not complex_input:
            v = v.real.astype(dtype)

        # Trailing update (and appended RHS columns) applies H^H =
        # I - conj(tau) v v^H, so that R = Q^H A with Q = H_0 ... H_{k-1}.
        trailing = t[j:, j + 1 :]
        w = np.einsum("ib,ijb->jb", v.conj(), trailing)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
        trailing -= (tau.conj() * v)[:, None, :] * w[None, :, :]

        # Store the packed factor: beta on the diagonal, v below it.
        t[j, j] = np.where(live, beta.astype(dtype), alpha)
        t[j + 1 :, j] = np.where(live, v[1:], x[1:])
    return np.ascontiguousarray(t.transpose(2, 0, 1)), taus


def qr_unpack(factors: QrFactors) -> np.ndarray:
    """Form the thin Q (batch, m, n) by applying reflectors to I."""
    packed, taus = factors.packed, factors.taus
    batch, m, n = packed.shape
    q = np.zeros((batch, m, n), dtype=packed.dtype)
    idx = np.arange(n)
    q[:, idx, idx] = 1
    # Columns without a reflector carry tau = 0, so applying every j is safe.
    for j in range(n - 1, -1, -1):
        tau = taus[:, j]
        v = np.empty((batch, m - j), dtype=packed.dtype)
        v[:, 0] = 1
        v[:, 1:] = packed[:, j + 1 :, j]
        block = q[:, j:, j:]
        w = np.einsum("bi,bij->bj", v.conj(), block)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
        block -= tau[:, None, None] * v[:, :, None] * w[:, None, :]
    return q


def apply_qt(factors: QrFactors, b: np.ndarray) -> np.ndarray:
    """Compute ``Q^H b`` from the packed reflectors (no explicit Q)."""
    packed, taus = factors.packed, factors.taus
    batch, m, n = packed.shape
    b_arr = np.asarray(b, dtype=packed.dtype)
    squeeze = b_arr.ndim == 2
    if squeeze:
        b_arr = b_arr[..., None]
    out = b_arr.copy()
    for j in range(n):
        tau = taus[:, j]
        v = np.empty((batch, m - j), dtype=packed.dtype)
        v[:, 0] = 1
        v[:, 1:] = packed[:, j + 1 :, j]
        block = out[:, j:, :]
        w = np.einsum("bi,bij->bj", v.conj(), block)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
        block -= tau.conj()[:, None, None] * v[:, :, None] * w[:, None, :]
    return out[..., 0] if squeeze else out


def qr_solve(a: np.ndarray, b: np.ndarray, fast_math: bool = True) -> np.ndarray:
    """Solve square systems (or least squares for tall ``a``) via QR.

    Implements Section III-D: append ``b``, factor, and back-substitute
    ``R x = Q^H b``.
    """
    return qr_solve_with_taus(a, b, fast_math)[0]


def qr_solve_with_taus(
    a: np.ndarray, b: np.ndarray, fast_math: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`qr_solve` that also returns the reflectors' taus."""
    a = as_batch(a)
    check_tall_batch(a)
    batch, m, n = a.shape
    b_arr = np.asarray(b, dtype=a.dtype)
    squeeze = b_arr.ndim == 2
    if squeeze:
        b_arr = b_arr[..., None]
    aug = np.concatenate([a, b_arr], axis=2)
    aug, taus = _householder_sweep(aug, n, fast_math)
    r = aug[:, :n, :n]
    qtb = aug[:, :n, n:]
    x = solve_upper(np.triu(r), qtb, fast_math=fast_math)
    return (x[..., 0] if squeeze else x), taus
