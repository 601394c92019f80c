"""Communication-volume analysis of the distributed layouts.

Independent of the cycle model, the layouts can be compared by *words
communicated* per factorization -- the classic distributed-memory metric
the paper's Section V-A reasoning rests on: "The traditional advantages
of 1D layouts are that either row or column operations ... can be carried
out within a thread without any communication", versus the 2D layout's
sqrt(p)-thread reductions.

A word counts as communicated when it crosses a thread boundary through
shared memory: broadcast payloads are counted once per distinct reader,
reduction traffic once per hop of the serial chain.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

from .cyclic2d import Cyclic2D

__all__ = ["CommVolume", "qr_communication_volume", "compare_volumes"]

LayoutKind = Literal["cyclic2d", "column_cyclic", "row_cyclic"]


@dataclasses.dataclass(frozen=True)
class CommVolume:
    """Words crossing thread boundaries during one n x n Householder QR."""

    layout: str
    n: int
    threads: int
    broadcast_words: float
    reduction_words: float

    @property
    def total_words(self) -> float:
        return self.broadcast_words + self.reduction_words

    @property
    def words_per_flop(self) -> float:
        flops = 2.0 * self.n**3 - 2.0 / 3.0 * self.n**3
        return self.total_words / flops


def qr_communication_volume(
    layout: LayoutKind, n: int, threads: int = 64
) -> CommVolume:
    """Count the shared-memory words one QR factorization moves."""
    if n < 2:
        raise ValueError("need at least a 2x2 matrix")
    if threads < 1:
        raise ValueError("need at least one thread")

    broadcast = 0.0
    reduction = 0.0
    if layout == "cyclic2d":
        r = Cyclic2D(n, n, threads).rdim
        for j in range(n - 1):
            h = n - j
            # Householder vector published once, read by the r column
            # groups that update the trailing matrix.
            broadcast += h * 2  # write + read by consumers (amortized)
            # Norm reduction + matrix-vector reduction across r threads.
            reduction += 2 * (r + 1)
            # w row published and read back.
            broadcast += 2 * (n - 1 - j)
    elif layout == "column_cyclic":
        for j in range(n - 1):
            h = n - j
            # v computed locally by the owner, broadcast to all threads.
            broadcast += h * 2
            # No cross-thread reductions: column dots are owner-local.
    elif layout == "row_cyclic":
        for j in range(n - 1):
            h = n - j
            cols_left = n - 1 - j
            # Column norm: a full p-thread reduction.
            reduction += threads + 1
            # Every trailing column's dot product crosses all p threads.
            reduction += cols_left * (threads + 1) / max(1, threads) * threads
            # Scaled column elements published back.
            broadcast += h
    else:
        raise ValueError(f"unknown layout: {layout!r}")

    return CommVolume(
        layout=layout,
        n=n,
        threads=threads,
        broadcast_words=broadcast,
        reduction_words=reduction,
    )


def compare_volumes(n: int, threads: int = 64) -> dict[str, CommVolume]:
    """All three layouts' volumes at one size."""
    return {
        kind: qr_communication_volume(kind, n, threads)
        for kind in ("cyclic2d", "column_cyclic", "row_cyclic")
    }
