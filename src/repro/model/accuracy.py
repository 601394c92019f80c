"""Quantifying the model's predictive accuracy.

The paper's core claim is that the analytical model "accurately predicts
and explains our performance across different problem sizes".  This
module turns that into a number: the mean absolute percentage error
(MAPE) between the Table-VI prediction and the engine-measured
throughput, split into the region the model covers (no register
spilling) and the region it deliberately does not.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..gpu.device import QUADRO_6000, DeviceSpec
from ..gpu.registers import RegisterAllocation
from .block_config import block_config
from .parameters import ModelParameters
from .per_block_model import predict_per_block

__all__ = ["AccuracyPoint", "AccuracyReport", "model_accuracy"]


@dataclasses.dataclass(frozen=True)
class AccuracyPoint:
    n: int
    kind: str
    measured_gflops: float
    predicted_gflops: float
    spills: bool

    @property
    def error(self) -> float:
        """Signed relative error of the prediction."""
        return (self.predicted_gflops - self.measured_gflops) / self.measured_gflops


@dataclasses.dataclass(frozen=True)
class AccuracyReport:
    points: tuple[AccuracyPoint, ...]

    def _mape(self, points: Sequence[AccuracyPoint]) -> float:
        if not points:
            return float("nan")
        return sum(abs(p.error) for p in points) / len(points)

    @property
    def mape_no_spill(self) -> float:
        """MAPE where the model claims validity (no register spilling)."""
        return self._mape([p for p in self.points if not p.spills])

    @property
    def mape_spill(self) -> float:
        """MAPE where the model knowingly ignores spilling (Figure 9's
        'false predictions')."""
        return self._mape([p for p in self.points if p.spills])

    @property
    def worst_no_spill(self) -> float:
        vals = [abs(p.error) for p in self.points if not p.spills]
        return max(vals) if vals else float("nan")


def model_accuracy(
    kinds: Sequence[str] = ("qr", "lu"),
    sizes: Sequence[int] = tuple(range(8, 145, 8)),
    device: DeviceSpec = QUADRO_6000,
    batch: int = 8000,
    params: ModelParameters | None = None,
) -> AccuracyReport:
    """Compare prediction vs engine measurement across a size sweep."""
    # The approaches run the device kernels, which import this package.
    from ..approaches import PerBlockApproach, Workload

    params = params or ModelParameters.paper_table_iv()
    replay = PerBlockApproach(device)
    points = []
    for kind in kinds:
        for n in sizes:
            cfg = block_config(n, n)
            spills = RegisterAllocation(device, cfg.registers_per_thread).spills
            measured = replay.launch(Workload.square(kind, n, batch)).throughput_gflops(
                batch
            )
            predicted = predict_per_block(params, kind, n).gflops
            points.append(
                AccuracyPoint(
                    n=n,
                    kind=kind,
                    measured_gflops=measured,
                    predicted_gflops=predicted,
                    spills=spills,
                )
            )
    return AccuracyReport(points=tuple(points))
