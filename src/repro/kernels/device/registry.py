"""The device-kernel table: one :class:`KernelInfo` per kernel.

:data:`KERNELS` is the single declaration of the device-kernel surface:
the seven per-block kernels of Section V and this repo's extensions, and
the two per-thread factorizations of Section IV.  Everything that walks
that surface derives from it -- the sharded runtime's op dispatch and
numerical quarantine (:data:`RUNTIME_KERNELS`), the case list the
sanitizer race-checks and the cost certifier certifies
(:mod:`repro.analyze.registry`), the experiment engine's op axis, and
the device launches of ``benchmarks/baselines/launch_results.json``.

Each entry's samples are seeded float32 batches; tall kernels sample
``(n + 4) x n`` so their tall path is exercised, and pivoted LU samples
reversed rows so it swaps them.  Every entry runs all
four dtypes, and each slot of a batched launch equals its batch-1 launch
bitwise, so the table carries no dtype or closeness rule.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..batched.problems import diagonally_dominant_batch, rhs_batch
from .per_block_cholesky import per_block_cholesky
from .per_block_gj import per_block_gauss_jordan
from .per_block_lstsq import per_block_least_squares
from .per_block_lu import per_block_lu
from .per_block_lu_pivot import per_block_lu_pivot
from .per_block_qr import per_block_qr, per_block_qr_solve
from .per_thread import per_thread_factor

__all__ = ["KERNELS", "KernelInfo", "RUNTIME_KERNELS", "nonfinite_breakdowns"]

Sample = Tuple[np.ndarray, Optional[np.ndarray]]


def nonfinite_breakdowns(output: np.ndarray, extra=None) -> Dict[int, str]:
    """Default detector: flag problems whose output holds Inf/NaN.

    A factorization that produced a non-finite entry is unusable no
    matter which algorithm ran, so this is the floor every per-op
    detector builds on.
    """
    flat = np.asarray(output).reshape(output.shape[0], -1)
    bad = ~np.isfinite(flat).all(axis=1)
    return {int(i): "non-finite" for i in np.nonzero(bad)[0]}


def _lu_breakdowns(output: np.ndarray, extra) -> dict:
    """``extra`` is the kernel's zero-pivot flag array."""
    found = nonfinite_breakdowns(output)
    if extra is not None:
        for i in np.nonzero(np.asarray(extra, dtype=bool))[0]:
            found[int(i)] = "zero-pivot"
    return found


def _lu_pivot_breakdowns(output: np.ndarray, extra) -> dict:
    """A zero on U's diagonal means rank deficiency.

    ``extra`` is the permutation (not a flag array), so singularity is
    read off the packed factor itself: partial pivoting only leaves a
    zero pivot when the whole remaining column was zero.
    """
    found = nonfinite_breakdowns(output)
    diag = np.diagonal(np.asarray(output), axis1=-2, axis2=-1)
    for i in np.nonzero((diag == 0).any(axis=-1))[0]:
        found[int(i)] = "zero-pivot"
    return found


def _qr_breakdowns(output: np.ndarray, extra) -> dict:
    """Non-finite factors *or* taus fail the slot.

    Householder QR has no pivot to hit zero -- a breakdown surfaces as
    Inf/NaN from an overflowed norm or a degenerate reflector.
    """
    found = nonfinite_breakdowns(output)
    if extra is not None:
        taus = np.asarray(extra).reshape(extra.shape[0], -1)
        for i in np.nonzero(~np.isfinite(taus).all(axis=1))[0]:
            found.setdefault(int(i), "non-finite")
    return found


def _cholesky_breakdowns(output: np.ndarray, extra) -> dict:
    """``extra`` flags problems that were not HPD."""
    found = nonfinite_breakdowns(output)
    if extra is not None:
        for i in np.nonzero(np.asarray(extra, dtype=bool))[0]:
            found[int(i)] = "not-positive-definite"
    return found


# Sample generators: ``(m, n, seed, batch) -> (a, b)``; the square ones
# use ``n`` alone.


def _square(m: int, n: int, seed: int, batch: int) -> Sample:
    """Diagonally dominant systems with one right-hand side each."""
    a = diagonally_dominant_batch(batch, n, seed=seed)
    b = rhs_batch(batch, n, seed=seed + 1)
    return a, b


def _reversed(m: int, n: int, seed: int, batch: int) -> Sample:
    """:func:`_square`'s systems with their rows reversed, so partial
    pivoting swaps rows."""
    a, b = _square(m, n, seed, batch)
    return np.ascontiguousarray(a[:, ::-1]), np.ascontiguousarray(b[:, ::-1])


def _hpd(m: int, n: int, seed: int, batch: int) -> Sample:
    """Well-conditioned symmetric positive-definite matrices, no rhs."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((batch, n, n)).astype(np.float32)
    a = g @ g.transpose(0, 2, 1) + n * np.eye(n, dtype=np.float32)
    return a.astype(np.float32), None


def _tall(m: int, n: int, seed: int, batch: int) -> Sample:
    """Gaussian ``m x n`` matrices with one length-``m`` rhs each."""
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((batch, m, n)).astype(np.float32),
        rng.standard_normal((batch, m)).astype(np.float32),
    )


@dataclasses.dataclass(frozen=True)
class KernelInfo:
    """One device kernel: its names, entry point, samples and detector."""

    #: Case name, e.g. ``"per_block_lu"`` (the sanitizer/certifier key).
    name: str
    #: Runtime op and analytic-count key: the :func:`repro.model.per_block_counts`
    #: kind of a per-block kernel, the ``per_thread_factor`` kind otherwise.
    op: str
    #: ``"per_block"`` or ``"per_thread"``.
    family: str
    #: The entry point, called as ``kernel(a, **kwargs)`` or, with
    #: :attr:`rhs`, ``kernel(a, b, **kwargs)``.
    kernel: Callable[..., Any]
    #: ``generate(m, n, seed, batch)`` -> float32 ``(a, b)``.
    generate: Callable[[int, int, int, int], Sample]
    #: Whether the entry point takes a right-hand side ``b``.
    rhs: bool = False
    #: Whether :func:`repro.runtime.run_batched` accepts :attr:`op`.
    runtime: bool = False
    #: ``detector(output, extra)`` -> ``{batch index: reason}`` for every
    #: problem whose factorization broke down; the runtime's quarantine
    #: masks those slots instead of failing the batch.
    detector: Callable[..., Dict[int, str]] = nonfinite_breakdowns

    @property
    def tall(self) -> bool:
        """Whether samples are tall, ``(n + 4) x n``."""
        return self.generate is _tall

    def shape(self, n: int) -> Tuple[int, int]:
        """The ``(m, n)`` problem shape sampled at size ``n``."""
        return (n + 4 if self.tall else n, n)

    def sample(self, n: int, seed: int, batch: int) -> Sample:
        """Seeded float32 inputs ``(a, b)`` for ``batch`` problems."""
        return self.generate(*self.shape(n), seed, batch)

    def call(self, a, b=None, **kwargs):
        """Run the kernel on ``a`` (and ``b``, if it takes one)."""
        if self.rhs:
            return self.kernel(a, b, **kwargs)
        return self.kernel(a, **kwargs)


KERNELS: Tuple[KernelInfo, ...] = (
    KernelInfo(
        "per_block_lu", "lu", "per_block", per_block_lu, _square,
        runtime=True, detector=_lu_breakdowns,
    ),
    KernelInfo(
        "per_block_lu_pivot", "lu_pivot", "per_block", per_block_lu_pivot,
        _reversed, runtime=True, detector=_lu_pivot_breakdowns,
    ),
    KernelInfo(
        "per_block_qr", "qr", "per_block", per_block_qr, _tall,
        runtime=True, detector=_qr_breakdowns,
    ),
    KernelInfo(
        "per_block_qr_solve", "qr_solve", "per_block", per_block_qr_solve,
        _square, rhs=True,
    ),
    KernelInfo(
        "per_block_gauss_jordan", "gauss_jordan", "per_block",
        per_block_gauss_jordan, _square, rhs=True,
    ),
    KernelInfo(
        "per_block_cholesky", "cholesky", "per_block", per_block_cholesky, _hpd,
        runtime=True, detector=_cholesky_breakdowns,
    ),
    KernelInfo(
        "per_block_least_squares", "least_squares", "per_block",
        per_block_least_squares, _tall, rhs=True,
    ),
    KernelInfo(
        "per_thread_qr", "qr", "per_thread",
        functools.partial(per_thread_factor, kind="qr"), _square,
    ),
    KernelInfo(
        "per_thread_lu", "lu", "per_thread",
        functools.partial(per_thread_factor, kind="lu"), _square,
    ),
)

#: Runtime op -> entry, for every op :func:`repro.runtime.run_batched` accepts.
RUNTIME_KERNELS: Dict[str, KernelInfo] = {
    info.op: info for info in KERNELS if info.runtime
}
