"""Input validation and numerical-quality checks for batched kernels.

The residual helpers are the acceptance criteria used throughout the test
suite and the examples: factorizations are verified by reconstruction
(``||A - QR||``, ``||A - LU||``), orthogonality (``||Q^H Q - I||``), and
solve residuals (``||Ax - b||``), all relative and batch-reduced to the
worst problem.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError

__all__ = [
    "as_batch",
    "batch_last",
    "working_dtype",
    "check_square_batch",
    "check_tall_batch",
    "qr_reconstruction_error",
    "orthogonality_error",
    "lu_reconstruction_error",
    "solve_residual",
    "triangular_error",
]

_SUPPORTED = (np.float32, np.float64, np.complex64, np.complex128)

#: Problems per block of :func:`batch_last`'s copy.  Copying a whole
#: chunk at once reads one element per problem at the problem stride (4 KB
#: at n = 32 float32) and thrashes the cache; 64 problems at a time keep
#: the source rows in cache while each destination run is written.
COPY_BLOCK = 64


def working_dtype(dtype: np.dtype) -> np.dtype:
    """The dtype :func:`as_batch` turns ``dtype`` input into: integers
    widen to float64, every other dtype stays."""
    return np.dtype(np.float64) if dtype.kind in "iu" else dtype


def as_batch(matrices: np.ndarray) -> np.ndarray:
    """Coerce to a ``(batch, m, n)`` array of a supported dtype (copy)."""
    arr = np.asarray(matrices)
    dtype = working_dtype(arr.dtype)
    if dtype not in [np.dtype(d) for d in _SUPPORTED]:
        raise ShapeError(f"unsupported dtype: {arr.dtype}")
    if dtype != arr.dtype:
        arr = arr.astype(dtype)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ShapeError(f"expected (batch, m, n) matrices, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ShapeError(f"empty batch or matrix: shape {arr.shape}")
    return arr.copy()


def batch_last(arr: np.ndarray) -> np.ndarray:
    """A C-ordered ``(m, n, batch)`` copy of a ``(batch, m, n)`` array.

    The same bytes as ``arr.transpose(1, 2, 0).copy()``, copied
    :data:`COPY_BLOCK` problems at a time.
    """
    out = np.empty(arr.shape[1:] + arr.shape[:1], dtype=arr.dtype)
    for start in range(0, arr.shape[0], COPY_BLOCK):
        block = arr[start : start + COPY_BLOCK]
        out[..., start : start + COPY_BLOCK] = block.transpose(1, 2, 0)
    return out


def check_square_batch(arr: np.ndarray) -> None:
    if arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"expected square matrices, got {arr.shape[1]}x{arr.shape[2]}")


def check_tall_batch(arr: np.ndarray) -> None:
    if arr.shape[1] < arr.shape[2]:
        raise ShapeError(
            f"expected m >= n matrices, got {arr.shape[1]}x{arr.shape[2]}"
        )


def _relative(err: np.ndarray, ref: np.ndarray) -> float:
    scale = np.maximum(ref, np.finfo(err.dtype).tiny)
    return float((err / scale).max())


def qr_reconstruction_error(a: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Worst relative ``||A - QR||_F / ||A||_F`` over the batch."""
    a, q, r = (np.asarray(x) for x in (a, q, r))
    err = np.linalg.norm(a - q @ r, axis=(1, 2))
    return _relative(err, np.linalg.norm(a, axis=(1, 2)))


def orthogonality_error(q: np.ndarray) -> float:
    """Worst ``||Q^H Q - I||_F`` over the batch (absolute; I has norm sqrt(n))."""
    q = np.asarray(q)
    n = q.shape[2]
    eye = np.eye(n, dtype=q.dtype)
    gram = np.swapaxes(q.conj(), 1, 2) @ q
    return float(np.linalg.norm(gram - eye, axis=(1, 2)).max())


def lu_reconstruction_error(a: np.ndarray, lu: np.ndarray) -> float:
    """Worst relative ``||A - L U||`` from a packed LU factor."""
    a, lu = np.asarray(a), np.asarray(lu)
    n = lu.shape[1]
    lower = np.tril(lu, -1) + np.eye(n, dtype=lu.dtype)
    upper = np.triu(lu)
    err = np.linalg.norm(a - lower @ upper, axis=(1, 2))
    return _relative(err, np.linalg.norm(a, axis=(1, 2)))


def solve_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Worst relative ``||Ax - b|| / ||b||`` over the batch."""
    a, x, b = (np.asarray(v) for v in (a, x, b))
    if x.ndim == 2:
        x = x[..., None]
    if b.ndim == 2:
        b = b[..., None]
    err = np.linalg.norm(a @ x - b, axis=(1, 2))
    return _relative(err, np.linalg.norm(b, axis=(1, 2)))


def triangular_error(r: np.ndarray, lower: bool = False) -> float:
    """Largest magnitude found in the zero triangle of ``r``."""
    r = np.asarray(r)
    k = 1 if lower else -1
    tri = np.tril(r, -1) if not lower else np.triu(r, 1)
    return float(np.abs(tri).max()) if tri.size else 0.0
