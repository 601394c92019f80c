"""FLOP counts for each factorization, following the paper's conventions.

Section III gives the counts the paper uses throughout; we keep them
verbatim (including the least-squares expression of Section III-D) so
GFLOPS figures are comparable:

* Gauss-Jordan solve:          ``n^3``
* LU (no pivoting):            ``2/3 n^3``
* Householder QR (real):       ``2 m n^2 - 2/3 n^3``
* Householder QR (complex):    ``8 m n^2 - 8/3 n^3``  (Section VII)
* Least squares via QR:        ``2 m n^2 - 2/3 n^3 + 1/3 n^3``
* Matrix multiply (m,k)x(k,n): ``2 m k n``

Sanity anchor: Section IV's worked example evaluates a 7x7 QR to 457
FLOPs, which is exactly ``2 m n^2 - 2/3 n^3`` at m = n = 7.
"""

from __future__ import annotations

__all__ = [
    "gauss_jordan_flops",
    "lu_flops",
    "qr_flops",
    "qr_flops_complex",
    "least_squares_flops",
    "workload_flops",
    "matmul_flops",
    "matrix_words",
    "matrix_bytes",
]


def _check_dims(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")


def gauss_jordan_flops(n: int) -> float:
    """FLOPs to solve ``Ax = b`` by Gauss-Jordan elimination (n^3)."""
    _check_dims(n, n)
    return float(n) ** 3


def lu_flops(n: int) -> float:
    """FLOPs of an unpivoted LU factorization (2/3 n^3)."""
    _check_dims(n, n)
    return 2.0 / 3.0 * float(n) ** 3


def qr_flops(m: int, n: int) -> float:
    """FLOPs of a real Householder QR of an m x n matrix."""
    _check_dims(m, n)
    if m < n:
        raise ValueError("QR expects m >= n")
    return 2.0 * m * n * n - 2.0 / 3.0 * float(n) ** 3


def qr_flops_complex(m: int, n: int) -> float:
    """FLOPs of a complex Householder QR (Section VII: 8mn^2 - 8/3 n^3)."""
    _check_dims(m, n)
    if m < n:
        raise ValueError("QR expects m >= n")
    return 8.0 * m * n * n - 8.0 / 3.0 * float(n) ** 3


def least_squares_flops(m: int, n: int) -> float:
    """FLOPs of least squares via QR (Section III-D)."""
    _check_dims(m, n)
    if m < n:
        raise ValueError("least squares expects m >= n")
    return 2.0 * m * n * n - 2.0 / 3.0 * float(n) ** 3 + 1.0 / 3.0 * float(n) ** 3


def workload_flops(kind: str, m: int, n: int, complex_dtype: bool = False) -> float:
    """FLOPs of one ``m x n`` problem of an approach-layer workload kind.

    ``kind`` is ``qr``, ``lu``, ``gauss_jordan`` or ``least_squares``.
    Complex QR uses the Section VII count; the other complex kinds count
    four real FLOPs per complex one.
    """
    if kind == "qr":
        return qr_flops_complex(m, n) if complex_dtype else qr_flops(m, n)
    factor = 4 if complex_dtype else 1
    if kind == "lu":
        return factor * lu_flops(n)
    if kind == "gauss_jordan":
        return factor * gauss_jordan_flops(n)
    if kind == "least_squares":
        return factor * least_squares_flops(m, n)
    raise ValueError(f"unknown factorization kind: {kind!r}")


def matmul_flops(m: int, k: int, n: int) -> float:
    """FLOPs of a real (m,k) x (k,n) matrix multiply."""
    if m < 1 or k < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    return 2.0 * m * k * n


def matrix_words(m: int, n: int, complex_dtype: bool = False) -> int:
    """32-bit words occupied by an m x n single-precision matrix."""
    _check_dims(m, n)
    return m * n * (2 if complex_dtype else 1)


def matrix_bytes(m: int, n: int, complex_dtype: bool = False) -> int:
    """Bytes occupied by an m x n single-precision matrix."""
    return 4 * matrix_words(m, n, complex_dtype)
