"""The Table VII experiment: RT_STAP complex QR sizes.

The official MITRE RT_STAP benchmark specifies the complex QR sizes; the
paper adds the 192 x 96 size from the Imagine stream-processor study.
Table VII reports GPU GFLOPS, MKL GFLOPS, and the speedup for:

====== ========== ===========  ==========  =======
size   # matrices GPU GFLOPS   MKL GFLOPS  speedup
====== ========== ===========  ==========  =======
80x16  384        134          5.4         25x
240x66 128        99           36          2.8x
192x96 128        98           27          3.6x
====== ========== ===========  ==========  =======

``run_stap_case`` factors real synthetic training data: the 80 x 16 case
fits one thread block; the taller cases go through the sequential tiled
QR, exactly as in Section VII.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..approaches.base import Workload
from ..approaches.baselines import CpuLapackApproach
from ..gpu.device import QUADRO_6000, DeviceSpec
from ..kernels.device.per_block_qr import per_block_qr
from ..model.flops import qr_flops_complex
from ..tiled.tiled_qr import tiled_qr
from .datacube import RadarScenario, generate_datacube
from .doppler import training_matrices

__all__ = ["StapCase", "StapResult", "RT_STAP_CASES", "run_stap_case", "run_table7"]


@dataclasses.dataclass(frozen=True)
class StapCase:
    """One row of Table VII."""

    rows: int
    cols: int
    num_matrices: int
    label: str

    @property
    def flops_per_problem(self) -> float:
        return qr_flops_complex(self.rows, self.cols)


#: The three sizes of Table VII.
RT_STAP_CASES = (
    StapCase(rows=80, cols=16, num_matrices=384, label="RT_STAP 80x16"),
    StapCase(rows=240, cols=66, num_matrices=128, label="RT_STAP 240x66"),
    StapCase(rows=192, cols=96, num_matrices=128, label="Imagine 192x96"),
)


@dataclasses.dataclass(frozen=True)
class StapResult:
    """Paper-style Table VII row."""

    case: StapCase
    gpu_gflops: float
    mkl_gflops: float
    r: np.ndarray
    method: str

    @property
    def speedup(self) -> float:
        return self.gpu_gflops / self.mkl_gflops


def _training_batch(case: StapCase, numeric_batch: int) -> np.ndarray:
    """Synthetic training matrices with the case's shape."""
    channels = max(2, case.cols // 8)
    pulses = -(-case.cols // channels)
    scenario = RadarScenario(
        channels=channels,
        pulses=pulses,
        ranges=max(512, 2 * case.rows),
        seed=7 * case.rows + case.cols,
    )
    cube = generate_datacube(scenario)
    return training_matrices(cube, numeric_batch, case.rows, case.cols)


def run_stap_case(
    case: StapCase,
    device: DeviceSpec = QUADRO_6000,
    numeric_batch: int = 4,
    fast_math: bool = True,
) -> StapResult:
    """Factor one Table-VII case and report both sides of the comparison.

    ``numeric_batch`` matrices are actually factored (cost accounting is
    batch-independent); throughput is reported for the case's full
    ``num_matrices``, like the paper.
    """
    batch = case.num_matrices
    training = _training_batch(case, numeric_batch)

    # Fits a single block? (the paper: 80x16 does; the others are tiled)
    from ..model.block_config import block_config
    from ..gpu.registers import RegisterAllocation

    cfg = block_config(case.rows, case.cols, complex_dtype=True)
    fits = not RegisterAllocation(device, cfg.registers_per_thread).spills
    if fits:
        res = per_block_qr(training, device=device, fast_math=fast_math)
        gpu_gflops = res.launch.throughput_gflops(batch)
        r = np.triu(res.output[:, : case.cols, :])
        method = "one-problem-per-block"
    else:
        res = tiled_qr(training, device=device, fast_math=fast_math)
        seconds = 0.0
        for launch in res.launches:
            seconds += launch.batch_seconds(batch)
        gpu_gflops = case.flops_per_problem * batch / seconds / 1e9
        r = res.r
        method = f"tiled ({len(res.launches)} stages)"

    mkl = CpuLapackApproach().gflops(
        Workload("qr", case.rows, case.cols, batch, complex_dtype=True)
    )
    return StapResult(
        case=case, gpu_gflops=gpu_gflops, mkl_gflops=mkl, r=r, method=method
    )


def run_table7(
    device: DeviceSpec = QUADRO_6000, numeric_batch: int = 2
) -> list[StapResult]:
    """All three rows of Table VII."""
    return [run_stap_case(c, device, numeric_batch) for c in RT_STAP_CASES]
