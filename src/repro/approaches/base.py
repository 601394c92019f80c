"""Common interface for the five solution approaches the paper compares.

An :class:`Approach` answers two questions for a batched factorization
workload ``(kind, m, n, batch, dtype)``:

* :meth:`Approach.gflops` -- the aggregate throughput its cost model (or
  engine) attributes to the workload, and
* :meth:`Approach.supports` -- whether the approach applies at all
  (e.g. one-problem-per-thread needs the matrix to be register-sized).

The five implementations are the axes of Figures 10-12:
per-thread, per-block, hybrid CPU+GPU blocked (MAGMA-like), CUBLAS +
streams, and the multicore-CPU MKL baseline.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Literal, get_args

__all__ = ["Approach", "Workload"]

Kind = Literal["qr", "lu", "gauss_jordan", "least_squares"]
_KINDS = get_args(Kind)


@dataclasses.dataclass(frozen=True)
class Workload:
    """A batched-factorization job description."""

    kind: Kind
    m: int
    n: int
    batch: int
    complex_dtype: bool = False

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.batch < 1:
            raise ValueError("batch must be positive")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown factorization kind: {self.kind!r}")

    @classmethod
    def square(cls, kind: Kind, n: int, batch: int, complex_dtype: bool = False):
        return cls(kind=kind, m=n, n=n, batch=batch, complex_dtype=complex_dtype)


class Approach(abc.ABC):
    """One way of mapping the workload onto the machine."""

    #: Short identifier used in reports and the dispatcher.
    name: str = "abstract"

    @abc.abstractmethod
    def supports(self, work: Workload) -> bool:
        """Whether this approach can run the workload at all."""

    @abc.abstractmethod
    def gflops(self, work: Workload) -> float:
        """Aggregate GFLOP/s over the whole batch."""

    def seconds(self, work: Workload) -> float:
        """Wall time implied by :meth:`gflops` and the FLOP convention."""
        from ..model.flops import workload_flops

        flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
        rate = self.gflops(work) * 1e9
        if rate <= 0:
            raise ArithmeticError(f"{self.name} reported non-positive throughput")
        return flops * work.batch / rate
