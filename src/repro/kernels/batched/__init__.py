"""Batched numerics: the algorithms of Section III, vectorized over the
problem dimension, plus the motivating-application extensions (batched
GEMM for speech, Jacobi eigensolver for MRI).

For executing a large batch for real -- sharded across worker processes
with merged counters and warm calibration caches -- use
:func:`run_batched` (re-exported from :mod:`repro.runtime`)::

    from repro.kernels.batched import run_batched

    report = run_batched("lu", matrices, workers=4)
"""

from .alternatives import (
    CholeskyResult,
    QrExplicit,
    cholesky_factor,
    cholesky_factor_flagged,
    cholesky_qr,
    givens_qr,
    gram_schmidt_qr,
    modified_gram_schmidt_qr,
)
from .diagnostics import condition_estimate, lu_growth_factor
from .eigen import EighResult, jacobi_eigh
from .gauss_jordan import GaussJordanResult, gauss_jordan_solve
from .least_squares import LeastSquaresResult, least_squares
from .lu import (
    LuResult,
    PivotedLuResult,
    lu_factor,
    lu_factor_pivot,
    lu_solve,
    lu_solve_pivot,
)
from .matmul import batched_matmul
from .problems import (
    diagonally_dominant_batch,
    hermitian_batch,
    random_batch,
    rhs_batch,
)
from .qr import QrFactors, apply_qt, qr_factor, qr_solve, qr_unpack
from .trsm import solve_lower, solve_lower_unit, solve_upper
from .validate import (
    lu_reconstruction_error,
    orthogonality_error,
    qr_reconstruction_error,
    solve_residual,
    triangular_error,
)

__all__ = [
    "CholeskyResult",
    "QrExplicit",
    "cholesky_factor",
    "cholesky_factor_flagged",
    "cholesky_qr",
    "givens_qr",
    "gram_schmidt_qr",
    "modified_gram_schmidt_qr",
    "condition_estimate",
    "lu_growth_factor",
    "EighResult",
    "jacobi_eigh",
    "GaussJordanResult",
    "gauss_jordan_solve",
    "LeastSquaresResult",
    "least_squares",
    "LuResult",
    "PivotedLuResult",
    "lu_factor",
    "lu_factor_pivot",
    "lu_solve",
    "lu_solve_pivot",
    "batched_matmul",
    "diagonally_dominant_batch",
    "hermitian_batch",
    "random_batch",
    "rhs_batch",
    "QrFactors",
    "apply_qt",
    "qr_factor",
    "qr_solve",
    "qr_unpack",
    "solve_lower",
    "solve_lower_unit",
    "solve_upper",
    "lu_reconstruction_error",
    "orthogonality_error",
    "qr_reconstruction_error",
    "solve_residual",
    "triangular_error",
    # lazily loaded from repro.runtime (see __getattr__)
    "run_batched",
]


def __getattr__(name: str):
    # The runtime imports the device kernels, which import this package;
    # loading it on first access keeps the import graph acyclic.
    if name == "run_batched":
        from ...runtime.executor import run_batched

        globals()[name] = run_batched
        return run_batched
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
