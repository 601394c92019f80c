"""One-problem-per-thread execution (Section IV).

Each thread register-allocates its entire matrix and factors it
serially; there is no inter-thread communication at all.  The regime is
therefore:

* performance is bounded by DRAM traffic (read + write of the batch) at
  the achieved copy bandwidth -- the arithmetic-intensity roofline;
* FLOPs are effectively free while enough threads are in flight to hide
  both the memory and the pipeline latency;
* once the per-thread matrix (plus workspace) exceeds the 63 usable
  registers, the spilled slots live in L1/DRAM and are *re-touched* on
  every column sweep, multiplying the traffic -- the post-n=8 collapse of
  Figure 4 that the roofline model deliberately ignores.

Numerics run through the batched kernels (a thread's serial loop computes
exactly the same values); the timing model here prices the launch.
"""

from __future__ import annotations

import dataclasses
from typing import Literal, NamedTuple

import numpy as np

from ...gpu.device import QUADRO_6000, DeviceSpec
from ...gpu.memory_system import MemorySystem
from ...gpu.occupancy import Occupancy, occupancy
from ...gpu.registers import RegisterAllocation, registers_for_matrix
from ...model.flops import matrix_bytes, workload_flops
from ..batched.lu import lu_factor
from ..batched.qr import qr_factor
from ..batched.validate import as_batch, check_square_batch

__all__ = [
    "PerThreadCost",
    "PerThreadResult",
    "per_thread_cost",
    "per_thread_factor",
    "per_thread_placement",
    "spill_touches",
]

Kind = Literal["qr", "lu"]


def spill_touches(n: int) -> int:
    """Times a spilled slot is re-read/re-written during a factorization.

    Each of the n column sweeps touches the trailing matrix once, and a
    given element sits in the trailing matrix for about half of them.
    """
    return max(1, n // 2)


def per_thread_placement(
    n: int,
    device: DeviceSpec = QUADRO_6000,
    complex_dtype: bool = False,
    threads_per_block: int = 256,
) -> tuple[RegisterAllocation, Occupancy]:
    """The registers and resident blocks of a per-thread launch at ``n``.

    Each thread asks for its whole ``n x n`` matrix in registers, capped
    at the per-thread limit (the rest spills).  Raises
    :class:`~repro.errors.LaunchConfigurationError` when not even one
    block of ``threads_per_block`` threads fits on an SM -- on a small
    register file, already at single-digit ``n``.
    """
    regs = RegisterAllocation(
        device, registers_for_matrix(n, n, complex_dtype=complex_dtype)
    )
    occ = occupancy(
        device,
        threads_per_block,
        min(regs.granted(), device.max_registers_per_thread),
    )
    return regs, occ


class PerThreadCost(NamedTuple):
    """The price of one per-thread launch."""

    seconds: float
    dram_bytes: float
    flops_per_problem: float
    registers: RegisterAllocation
    #: Spill re-touch bytes per problem, in the data's word size.
    spill_bytes: float


def per_thread_cost(
    kind: str,
    n: int,
    batch: int,
    device: DeviceSpec = QUADRO_6000,
    complex_dtype: bool = False,
    threads_per_block: int = 256,
) -> PerThreadCost:
    """Price ``batch`` per-thread ``n x n`` problems from their shape alone.

    ``kind`` is any :func:`~repro.model.flops.workload_flops` kind.  The
    launch is the slower of its DRAM roofline and its occupancy-derated
    compute bound.  Raises as :func:`per_thread_placement` does.
    """
    regs, occ = per_thread_placement(n, device, complex_dtype, threads_per_block)
    flops = workload_flops(kind, n, n, complex_dtype)
    memory = MemorySystem(device)

    # DRAM traffic: the matrix in and out, plus spill re-touches.  The
    # spilled fraction of the matrix bounces through L1 to DRAM (the L1
    # is far too small for a full batch) spill_touches(n) times.
    base = 2 * matrix_bytes(n, n, complex_dtype)
    spill = regs.spill_fraction * spill_touches(n) * matrix_bytes(n, n, complex_dtype)
    per_problem_bytes = base + spill
    bw_seconds = batch * per_problem_bytes / memory.stream_bandwidth("copy")

    # Compute bound: all FPUs at peak, derated by the occupancy the
    # register demand allows (latency is hidden by multithreading).
    efficiency = min(1.0, occ.occupancy_fraction * 2.0)  # >=50% occupancy is enough
    compute_seconds = batch * flops / (device.peak_sp_flops * efficiency)

    return PerThreadCost(
        max(bw_seconds, compute_seconds), batch * per_problem_bytes, flops, regs, spill
    )


@dataclasses.dataclass(frozen=True)
class PerThreadResult:
    """Numerics plus the per-thread launch timing."""

    output: np.ndarray
    extra: np.ndarray
    kind: str
    batch: int
    n: int
    device: DeviceSpec
    flops_per_problem: float
    seconds: float
    dram_bytes: float
    registers: RegisterAllocation
    spill_bytes: float

    @property
    def gflops(self) -> float:
        return self.flops_per_problem * self.batch / self.seconds / 1e9

    @property
    def spilled(self) -> bool:
        return self.registers.spills


def per_thread_factor(
    a: np.ndarray,
    kind: Kind = "qr",
    device: DeviceSpec = QUADRO_6000,
    fast_math: bool = True,
    threads_per_block: int = 256,
) -> PerThreadResult:
    """Factor a batch with one problem per thread.

    ``output``/``extra`` are the packed factors exactly as the batched
    kernels return them (QR: packed + taus; LU: packed + flags).  A
    launch that places no block (:func:`per_thread_placement`) raises
    before the numerics run; :func:`per_thread_cost` prices the launch.
    """
    a = as_batch(a)
    check_square_batch(a)
    batch, n, _ = a.shape
    if kind not in ("qr", "lu"):
        raise ValueError(f"unknown factorization kind: {kind!r}")
    cost = per_thread_cost(
        kind, n, batch, device, np.iscomplexobj(a), threads_per_block
    )
    if kind == "qr":
        factors = qr_factor(a, fast_math=fast_math)
        output, extra = factors.packed, factors.taus
    else:
        result = lu_factor(a, fast_math=fast_math)
        output, extra = result.lu, result.not_solved
    return PerThreadResult(output, extra, kind, batch, n, device, **cost._asdict())
