"""The three certification checks: model, occupancy, dynamic.

For each registry case the certifier holds the interpreter-derived
:class:`~repro.analyze.costcheck.footprint.Footprint` against

1. the analytic model -- closed-form counts from
   :func:`repro.model.per_block_counts` (per-block family) or the
   Section IV roofline inputs from
   :func:`repro.model.per_thread_model.predict_per_thread` (per-thread
   family), term by term, exactly;
2. the occupancy calculator -- the certified register and scratchpad
   footprint must admit at least one resident block on the paper's
   device, via :func:`repro.gpu.occupancy.occupancy`;
3. a dynamic traced run -- the kernel re-runs at a batch size neither
   witness used, under :func:`repro.observe.tracer.tracing`, and the
   live hardware counters must equal the static footprint.

Any disagreement increments ``repro_costcheck_mismatch_total`` (labelled
by kernel, term, and check) so the alert engine can page on drift.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ...errors import LaunchConfigurationError
from ...gpu.device import QUADRO_6000, DeviceSpec
from ...gpu.occupancy import occupancy
from ...gpu.registers import RegisterAllocation
from ...kernels.device.per_block_cholesky import cholesky_flops
from ...model.flops import (
    gauss_jordan_flops,
    least_squares_flops,
    lu_flops,
    qr_flops,
)
from ...model.parameters import ModelParameters
from ...model.per_block_model import per_block_counts
from ...model.per_thread_model import predict_per_thread
from ...observe.metrics import counter_inc
from ...observe.tracer import tracing
from ..registry import CostCase, cost_cases
from .footprint import Footprint, diff_terms
from .interp import interpret

__all__ = [
    "CaseReport",
    "analytic_flops",
    "certify_case",
    "model_terms",
    "run_costcheck",
]

#: Batch size for the dynamic check -- different from both witness
#: batches, so agreement is evidence of batch-independence, not replay.
DYNAMIC_BATCH = 5
DYNAMIC_SEED_STRIDE = 29

#: Tracer counter name -> footprint term, for the dynamic cross-check.
_COUNTER_TERMS = {
    "flops.per_thread_ops": "flop_ops",
    "div.count": "divs",
    "sqrt.count": "sqrts",
    "shared.transactions": "shared",
    "shared.writes": "shared_writes",
    "sync.count": "syncs",
    "global.bytes": "global_bytes",
}


@dataclasses.dataclass
class CaseReport:
    """Outcome of certifying one case: footprint plus check results."""

    case: CostCase
    footprint: Footprint
    occupancy: Dict[str, object]
    model_mismatches: Dict[str, Tuple[float, float]]
    dynamic_mismatches: Dict[str, Tuple[float, float]]
    occupancy_violation: Optional[str] = None
    notes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            not self.model_mismatches
            and not self.dynamic_mismatches
            and self.occupancy_violation is None
        )

    def to_dict(self) -> dict:
        return {
            "kernel": self.case.name,
            "shape": self.footprint.shape,
            "ok": self.ok,
            "footprint": self.footprint.to_dict(),
            "occupancy": self.occupancy,
            "model_mismatches": {
                term: list(pair) for term, pair in self.model_mismatches.items()
            },
            "dynamic_mismatches": {
                term: list(pair) for term, pair in self.dynamic_mismatches.items()
            },
            "occupancy_violation": self.occupancy_violation,
            "notes": list(self.notes),
        }


def analytic_flops(op: str, m: int, n: int) -> float:
    """The paper-convention FLOP count each kernel must claim."""
    if op in ("lu", "lu_pivot"):
        return lu_flops(n)
    if op == "qr":
        return qr_flops(m, n)
    if op == "qr_solve":
        return qr_flops(n, n) + n * n  # back substitution rides along
    if op == "gauss_jordan":
        return gauss_jordan_flops(n)
    if op == "cholesky":
        return cholesky_flops(n)
    if op == "least_squares":
        return least_squares_flops(m, n)
    raise ValueError(f"unknown factorization kind: {op!r}")


def model_terms(case: CostCase) -> Dict[str, float]:
    """Closed-form footprint terms the analytic model predicts."""
    if case.family == "per_thread":
        pred = predict_per_thread(ModelParameters.paper_table_iv(), case.op, case.n)
        return {
            "flops_per_problem": pred.flops_per_problem,
            # the roofline deliberately ignores spill traffic, so the
            # model's DRAM bytes are the footprint's minus the spills
            "global_bytes": pred.bytes_per_problem,
        }
    counts = per_block_counts(case.op, case.m, case.n)
    return {
        "flop_ops": counts.flop_ops,
        "divs": float(counts.divs),
        "sqrts": float(counts.sqrts),
        "shared": counts.shared,
        "shared_writes": counts.shared_writes,
        "syncs": float(counts.syncs),
        "global_bytes": counts.global_bytes,
        "spill_bytes": 0.0,
        "shared_bytes": float(counts.shared_bytes),
        "registers": float(counts.registers_per_thread),
        "threads": float(counts.config.threads),
        "flops_per_problem": analytic_flops(case.op, case.m, case.n),
    }


def _check_model(case: CostCase, fp: Footprint) -> Dict[str, Tuple[float, float]]:
    ours = fp.terms()
    theirs = model_terms(case)
    if case.family == "per_thread":
        # Compare only what the Section IV model speaks to; fold the
        # spill traffic out of the measured DRAM bytes first.
        ours = {
            "flops_per_problem": ours["flops_per_problem"],
            "global_bytes": ours["global_bytes"] - ours["spill_bytes"],
        }
    return diff_terms(ours, theirs)


def _check_occupancy(
    fp: Footprint, device: DeviceSpec
) -> Tuple[Dict[str, object], Optional[str]]:
    alloc = RegisterAllocation(device=device, requested=int(fp.registers))
    row: Dict[str, object] = {
        "device": device.name,
        "registers_requested": alloc.requested,
        "registers_granted": alloc.granted(),
        "spills": alloc.spills,
        "shared_bytes": fp.shared_bytes,
    }
    try:
        occ = occupancy(
            device, int(fp.threads), alloc.granted(), int(fp.shared_bytes)
        )
    except LaunchConfigurationError as exc:
        return row, str(exc)
    row.update(
        blocks_per_sm=occ.blocks_per_sm,
        blocks_per_chip=occ.blocks_per_chip,
        limiter=occ.limiter,
        occupancy_fraction=round(occ.occupancy_fraction, 4),
    )
    return row, None


def _check_dynamic(case: CostCase, fp: Footprint) -> Dict[str, Tuple[float, float]]:
    seed = case.seed + DYNAMIC_SEED_STRIDE
    if case.family == "per_thread":
        result = case.run(DYNAMIC_BATCH, seed)
        measured = {"global_bytes": result.dram_bytes / result.batch}
        return diff_terms(measured, {"global_bytes": fp.global_bytes})
    with tracing() as tracer:
        case.run(DYNAMIC_BATCH, seed)
    measured = {
        term: tracer.counters.value(counter)
        for counter, term in _COUNTER_TERMS.items()
    }
    expected = {term: fp.terms()[term] for term in measured}
    return diff_terms(measured, expected)


def _emit_mismatch_metrics(report: CaseReport) -> None:
    for term in report.model_mismatches:
        counter_inc(
            "repro_costcheck_mismatch_total",
            kernel=report.case.name,
            term=term,
            check="model",
        )
    for term in report.dynamic_mismatches:
        counter_inc(
            "repro_costcheck_mismatch_total",
            kernel=report.case.name,
            term=term,
            check="dynamic",
        )
    if report.occupancy_violation is not None:
        counter_inc(
            "repro_costcheck_mismatch_total",
            kernel=report.case.name,
            term="resident_blocks",
            check="occupancy",
        )


def certify_case(case: CostCase, device: DeviceSpec = QUADRO_6000) -> CaseReport:
    """Interpret one case and run all three checks against its footprint."""
    interp = interpret(case)
    fp = interp.footprint
    occ_row, violation = _check_occupancy(fp, device)
    notes: List[str] = []
    if occ_row.get("spills"):
        notes.append(
            "register footprint exceeds the architectural limit; spill "
            "traffic is certified but occupancy uses the capped grant"
        )
    report = CaseReport(
        case=case,
        footprint=fp,
        occupancy=occ_row,
        model_mismatches=_check_model(case, fp),
        dynamic_mismatches=_check_dynamic(case, fp),
        occupancy_violation=violation,
        notes=tuple(notes),
    )
    _emit_mismatch_metrics(report)
    return report


def run_costcheck(
    cases: Optional[List[CostCase]] = None, device: DeviceSpec = QUADRO_6000
) -> List[CaseReport]:
    """Certify every case (or the given subset); one report per case."""
    return [
        certify_case(case, device)
        for case in (cases if cases is not None else cost_cases())
    ]
