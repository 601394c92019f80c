"""One-problem-per-block approach (Section V) as an :class:`Approach`.

Replays the exact charge sequence of the device kernels
(:mod:`repro.kernels.device`) against a block engine *without* the
numerics, so Figure-10 sweeps across hundreds of sizes are instant.  A
consistency test asserts this replay matches the device kernels' measured
cycles on real data.
"""

from __future__ import annotations

import numpy as np

from ..errors import LaunchConfigurationError, SharedMemoryOverflowError
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.simt import BlockEngine, LaunchResult
from ..model.block_config import BlockConfig, block_config
from ..model.flops import matrix_bytes, workload_flops
from .base import Approach, Workload

__all__ = ["PerBlockApproach"]

#: Kinds whose right-hand side rides along as one more matrix column.
_RHS_COLUMN_KINDS = ("gauss_jordan", "least_squares")


class PerBlockApproach(Approach):
    name = "per-block"

    def __init__(self, device: DeviceSpec = QUADRO_6000, fast_math: bool = True):
        self.device = device
        self.fast_math = fast_math

    def supports(self, work: Workload) -> bool:
        if work.kind in ("qr", "least_squares") and work.m < work.n:
            return False
        if work.kind in ("lu", "gauss_jordan") and work.m != work.n:
            return False
        # A block must fit on an SM with the shared vectors launch() allocates.
        try:
            self._engine(work)[0].occupancy
        except (LaunchConfigurationError, SharedMemoryOverflowError):
            return False
        return True

    # ------------------------------------------------------------------
    def _config(self, m: int, n: int, complex_dtype: bool) -> BlockConfig:
        """The launch shape: the paper's thread-count rule."""
        return block_config(m, n, complex_dtype=complex_dtype)

    def _engine(self, work: Workload) -> tuple[BlockEngine, BlockConfig]:
        extra_cols = 1 if work.kind in _RHS_COLUMN_KINDS else 0
        cfg = self._config(work.m, work.n + extra_cols, work.complex_dtype)
        dtype = np.complex64 if work.complex_dtype else np.float32
        engine = BlockEngine(
            self.device,
            threads_per_block=cfg.threads,
            registers_per_thread=cfg.registers_per_thread,
            dtype=dtype,
            fast_math=self.fast_math,
        )
        engine.allocate_shared(cfg.hreg * cfg.rdim)
        engine.allocate_shared(cfg.wreg * cfg.rdim)
        engine.allocate_shared(4)
        return engine, cfg

    # The column loops below bind the charge methods and the per-launch
    # constants once: they run hundreds of thousands of times per figure.
    def _charge_qr(
        self, engine: BlockEngine, cfg: BlockConfig, work: Workload, ncols: int
    ) -> None:
        hreg, rdim = cfg.hreg, cfg.rdim
        cost = 2 if work.complex_dtype else 1
        # Serial cross-thread reduction: (1 + sqrt p) beta + sqrt p gamma.
        reduce_words, reduce_ops = rdim + 1, rdim * cost
        charge_flops, charge_shared = engine.charge_flops, engine.charge_shared
        charge_div, charge_sqrt = engine.charge_div, engine.charge_sqrt
        sync = engine.sync
        steps = ncols if work.m > ncols else ncols - 1
        for j in range(steps):
            N = max(1, hreg - j // rdim)
            charge_flops(N * cost, useful_flops=0)
            charge_shared(reduce_words)
            charge_flops(reduce_ops, useful_flops=0)
            charge_sqrt(1, useful_flops=0)
            charge_div(2, useful_flops=0)
            charge_flops(2 * cost, useful_flops=0)
            charge_shared(2)
            charge_flops(N * cost, useful_flops=0)
            charge_shared(N, writes=True)
            sync()
            charge_shared(N)
            charge_flops(N * N * cost, useful_flops=0)
            sync()
            charge_shared(reduce_words)
            charge_flops(reduce_ops, useful_flops=0)
            sync()
            charge_shared(N)
            charge_flops(N * N * cost, useful_flops=0)
            sync()

    def _charge_elimination(
        self, engine: BlockEngine, cfg: BlockConfig, work: Workload
    ) -> None:
        """LU's n - 1 shrinking column steps, or Gauss-Jordan's n full-height ones."""
        gauss_jordan = work.kind == "gauss_jordan"
        hreg, rdim = cfg.hreg, cfg.rdim
        cost = 2 if work.complex_dtype else 1
        charge_flops, charge_shared = engine.charge_flops, engine.charge_shared
        charge_div, sync = engine.charge_div, engine.sync
        for j in range(work.n if gauss_jordan else work.n - 1):
            N = hreg if gauss_jordan else max(1, hreg - j // rdim)
            charge_div(1, useful_flops=0)
            charge_shared(2)
            sync()
            charge_flops(N * cost, useful_flops=0)
            charge_shared(2 * N, writes=True)
            sync()
            charge_shared(2 * N)
            charge_flops(N * N * cost, useful_flops=0)
            sync()

    def _charge_back_substitution(
        self, engine: BlockEngine, cfg: BlockConfig, work: Workload
    ) -> None:
        hreg, rdim = cfg.hreg, cfg.rdim
        cost = 2 if work.complex_dtype else 1
        charge_flops, charge_shared = engine.charge_flops, engine.charge_shared
        charge_div, sync = engine.charge_div, engine.sync
        for i in range(work.n):
            N = max(1, hreg - i // rdim)
            charge_div(1, useful_flops=0)
            charge_shared(2)
            charge_flops(N * cost, useful_flops=0)
            sync()

    # ------------------------------------------------------------------
    def launch(self, work: Workload) -> LaunchResult:
        """Charge-replay the workload; return the per-block timing."""
        word = 8 if work.complex_dtype else 4
        in_bytes = matrix_bytes(work.m, work.n, work.complex_dtype)
        engine, cfg = self._engine(work)
        if work.kind == "qr":
            engine.charge_global(in_bytes, kind="copy")
            self._charge_qr(engine, cfg, work, work.n)
            engine.charge_global(in_bytes, kind="copy")
        elif work.kind == "lu":
            engine.charge_global(in_bytes, kind="copy")
            self._charge_elimination(engine, cfg, work)
            engine.charge_global(in_bytes, kind="copy")
        elif work.kind == "gauss_jordan":
            engine.charge_global(in_bytes + work.n * word, kind="copy")
            self._charge_elimination(engine, cfg, work)
            engine.charge_global(work.n * word, kind="copy")
        elif work.kind == "least_squares":
            engine.charge_global(in_bytes + work.m * word, kind="copy")
            self._charge_qr(engine, cfg, work, work.n)
            self._charge_back_substitution(engine, cfg, work)
            engine.charge_global(work.n * word, kind="copy")
        else:  # pragma: no cover - Workload validates kinds
            raise ValueError(f"unknown factorization kind: {work.kind!r}")
        flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
        return engine.result(flops_per_block=flops)

    def gflops(self, work: Workload) -> float:
        return self.launch(work).throughput_gflops(work.batch)
