"""Device kernels: the Section IV/V implementations on the SIMT engine.

Each per-block kernel takes its numerics from :mod:`repro.kernels.batched`
and pairs them with a shape-only *cost program* that charges every
hardware event of one thread block to the block engine -- the source of
this repo's "measured" curves.  A cost program's launch is memoized per
shape (see :func:`repro.kernels.device.base.launch`).  The per-thread
kernels take their numerics from the same routines and price the launch
with a DRAM-traffic and register-spill model.  :data:`KERNELS` lists
every kernel once (see :mod:`repro.kernels.device.registry`).
"""

from .base import BlockKernel, DeviceKernelResult
from .per_block_cholesky import cholesky_flops, per_block_cholesky
from .per_block_gj import per_block_gauss_jordan
from .per_block_lstsq import per_block_least_squares
from .per_block_lu import per_block_lu
from .per_block_lu_pivot import per_block_lu_pivot
from .per_block_qr import per_block_qr, per_block_qr_solve
from .per_thread import PerThreadResult, per_thread_factor
from .registry import KERNELS, KernelInfo, nonfinite_breakdowns
from .thread_program import (
    Instruction,
    ThreadInterpreter,
    ThreadProgram,
    build_lu_program,
    build_qr_program,
)

__all__ = [
    "BlockKernel",
    "DeviceKernelResult",
    "KERNELS",
    "KernelInfo",
    "nonfinite_breakdowns",
    "cholesky_flops",
    "per_block_cholesky",
    "per_block_gauss_jordan",
    "per_block_least_squares",
    "per_block_lu",
    "per_block_lu_pivot",
    "per_block_qr",
    "per_block_qr_solve",
    "PerThreadResult",
    "per_thread_factor",
    "Instruction",
    "ThreadInterpreter",
    "ThreadProgram",
    "build_lu_program",
    "build_qr_program",
]
