"""Blocked (WY / compact-WY) Householder QR.

Section IV sketches the path not taken: "We could extend the
one-problem-per-thread approach to larger problems ... by using blocked
algorithms within a thread [13]" (the Level-3 BLAS citation).  This is
that algorithm, batched: panels of ``nb`` columns are factored with the
unblocked sweep, their reflectors aggregated into the compact-WY form
``Q = I - V T V^H``, and the trailing matrix updated with two
matrix-matrix products instead of 2*nb rank-1 updates.

Same factors as :func:`~repro.kernels.batched.qr.qr_factor` (identical
reflectors and taus -- the blocking only reorganizes the *updates*), so
the equality is a strong cross-check of both implementations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...errors import ShapeError
from .qr import QrFactors, _householder_sweep
from .validate import as_batch, check_tall_batch

__all__ = ["BlockedQrFactors", "blocked_qr_factor", "build_t_factor"]


@dataclasses.dataclass(frozen=True)
class BlockedQrFactors(QrFactors):
    """Packed factors plus the per-panel T matrices of the WY form."""

    t_factors: tuple[np.ndarray, ...] = ()
    panel_width: int = 0


def build_t_factor(v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The upper-triangular T with ``Q = I - V T V^H`` (LAPACK larft).

    ``v``: ``(batch, m, nb)`` unit-lower-trapezoidal reflectors;
    ``taus``: ``(batch, nb)``.  Built column by column:
    ``T[:j, j] = -tau_j * T[:j, :j] (V[:, :j]^H v_j)``, ``T[j, j] = tau_j``.
    """
    v = np.asarray(v)
    taus = np.asarray(taus)
    batch, _, nb = v.shape
    t = np.zeros((batch, nb, nb), dtype=v.dtype)
    for j in range(nb):
        tau = taus[:, j]
        t[:, j, j] = tau
        if j:
            z = np.einsum("bmk,bm->bk", v[:, :, :j].conj(), v[:, :, j])  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
            t[:, :j, j] = -tau[:, None] * np.einsum("bkl,bl->bk", t[:, :j, :j], z)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
    return t


def _panel_v(panel: np.ndarray) -> np.ndarray:
    """Unit-lower-trapezoidal V from a factored panel (reflectors below
    the diagonal, R above -- only the strict lower part is V)."""
    batch, rows, nb = panel.shape
    v = np.zeros((batch, rows, nb), dtype=panel.dtype)
    for k in range(nb):
        if k < rows:
            v[:, k, k] = 1
            v[:, k + 1 :, k] = panel[:, k + 1 :, k]
    return v


def blocked_qr_factor(
    a: np.ndarray, panel_width: int = 4, fast_math: bool = True
) -> BlockedQrFactors:
    """Blocked Householder QR of a tall batch.

    ``panel_width`` (nb) is the blocking factor; nb = n degenerates to
    the unblocked sweep.  Returns the same packing as ``qr_factor`` plus
    the T factors for applying ``Q``/``Q^H`` in block form.
    """
    a = as_batch(a)
    check_tall_batch(a)
    if panel_width < 1:
        raise ShapeError("panel width must be positive")
    batch, m, n = a.shape
    taus = np.zeros((batch, n), dtype=a.dtype)
    t_factors: list[np.ndarray] = []

    col = 0
    while col < n:
        nb = min(panel_width, n - col)
        # Factor the panel with the unblocked sweep (rows col..m).
        panel, panel_taus = _householder_sweep(
            a[:, col:, col : col + nb], nb, fast_math
        )
        a[:, col:, col : col + nb] = panel
        taus[:, col : col + nb] = panel_taus

        # Aggregate the panel's reflectors and update the trailing matrix
        # with two GEMMs:  A -= V T^H (V^H A)   (applying Q^H).
        v = _panel_v(a[:, col:, col : col + nb])
        t = build_t_factor(v, panel_taus)
        t_factors.append(t)
        if col + nb < n:
            trailing = a[:, col:, col + nb :]
            w = np.einsum("bmk,bmj->bkj", v.conj(), trailing)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
            w = np.einsum("bkl,blj->bkj", np.swapaxes(t.conj(), 1, 2), w)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
            trailing -= np.einsum("bmk,bkj->bmj", v, w)  # noqa: RPR001 -- contracts a fixed per-problem axis; chunking the batch cannot reorder it
        col += nb

    return BlockedQrFactors(
        packed=a,
        taus=taus,
        t_factors=tuple(t_factors),
        panel_width=panel_width,
    )
