"""Tiled QR as an :class:`Approach` (the Section VII fallback).

Problems too tall for one block's register file go through the
sequential tiled QR; this adapter exposes its cost model behind the
common interface so the dispatcher and the real-time analysis can choose
it for RT_STAP-sized workloads.
"""

from __future__ import annotations

from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.registers import RegisterAllocation
from ..model.block_config import block_config
from ..model.flops import workload_flops
from .base import Approach, Workload

__all__ = ["TiledQrApproach"]


class TiledQrApproach(Approach):
    name = "tiled-qr"

    def __init__(self, device: DeviceSpec = QUADRO_6000, fast_math: bool = True):
        self.device = device
        self.fast_math = fast_math

    def supports(self, work: Workload) -> bool:
        return work.kind == "qr" and work.m >= work.n

    def spills_single_block(self, work: Workload) -> bool:
        """Whether the untiled per-block kernel would spill registers."""
        cfg = block_config(work.m, work.n, complex_dtype=work.complex_dtype)
        return RegisterAllocation(self.device, cfg.registers_per_thread).spills

    def seconds(self, work: Workload) -> float:
        from ..tiled.tiled_qr import tiled_qr_timing

        _, _, seconds = tiled_qr_timing(
            work.m,
            work.n,
            work.batch,
            complex_dtype=work.complex_dtype,
            device=self.device,
            fast_math=self.fast_math,
        )
        return seconds

    def gflops(self, work: Workload) -> float:
        flops = workload_flops(work.kind, work.m, work.n, work.complex_dtype)
        return flops * work.batch / self.seconds(work) / 1e9
