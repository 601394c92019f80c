"""Roofline regime classification from Eq. 1/Eq. 2 term shares.

The paper's narrative is a two-regime story: the one-problem-per-thread
approach streams every operand through DRAM and rides the bandwidth
roofline (Section IV), while the one-problem-per-block approach keeps
the matrix in registers and is limited by the FP pipeline (Section V) --
with synchronization and shared-memory latency eating the difference at
small block sizes (Figure 2, Table VI).  A LogP-style model makes that
narrative *queryable*: the attribution report already splits a launch's
measured cycles across the model terms, so the dominant term names the
regime the launch actually ran in.

:func:`classify_regime` maps an
:class:`~repro.observe.attribution.AttributionReport` onto one of four
regimes and reports every regime's share of measured cycles;
:func:`record_regime` exports the result as labeled gauges on the
metrics registry so regime mix is monitorable across a fleet of runs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..gpu.clock import fold
from .attribution import AttributionReport

__all__ = [
    "REGIMES",
    "TERM_REGIME",
    "RegimeClassification",
    "classify_regime",
    "record_regime",
]

#: The four execution regimes, in tie-break priority order.
REGIMES = (
    "compute-bound",
    "dram-bandwidth-bound",
    "latency-bound",
    "sync-bound",
)

#: Eq. 1/Eq. 2 term -> the regime its measured cycles argue for.
#: Shared-memory traffic is latency-dominated at register-tile sizes
#: (alpha_sh per message, not beta_sh), so it groups with overhead under
#: "latency-bound" rather than with DRAM bandwidth.
TERM_REGIME = {
    "flops*gamma": "compute-bound",
    "msize*beta_glb": "dram-bandwidth-bound",
    "#msg*alpha_sh": "latency-bound",
    "overhead": "latency-bound",
    "nsync*alpha_sync": "sync-bound",
}


@dataclasses.dataclass(frozen=True)
class RegimeClassification:
    """One launch's regime verdict plus the full share breakdown."""

    #: Label carried over from the attribution report (e.g. the op name).
    label: str
    #: The winning regime (largest share; ties break in REGIMES order).
    regime: str
    #: Every regime's share of measured cycles (sums to 1 when any ran).
    shares: Dict[str, float]
    #: The single Eq. 1/Eq. 2 term with the most measured cycles.
    dominant_term: str
    #: Total measured cycles the shares are normalized against.
    measured_cycles: float

    def to_dict(self) -> dict:
        """Flat JSON-ready payload (for the run-history store)."""
        return {
            "label": self.label,
            "regime": self.regime,
            "shares": dict(self.shares),
            "dominant_term": self.dominant_term,
            "measured_cycles": self.measured_cycles,
        }


def classify_regime(report: AttributionReport) -> RegimeClassification:
    """Label a launch from the dominant Eq. 1/Eq. 2 term shares.

    An all-zero launch (nothing measured) degrades to ``latency-bound``
    with zero shares: with no useful work, overhead is by definition what
    the launch spent its time on.
    """
    totals = {regime: 0.0 for regime in REGIMES}
    per_term: Dict[str, float] = {}
    for term in report.terms:
        cycles = max(term.measured_cycles, 0.0)
        totals[TERM_REGIME.get(term.term, "latency-bound")] += cycles
        per_term[term.term] = cycles
    measured = fold(totals.values())
    if measured > 0:
        shares = {regime: totals[regime] / measured for regime in REGIMES}
        winner = max(REGIMES, key=lambda regime: shares[regime])
        dominant = max(per_term, key=lambda term: per_term[term])
    else:
        shares = {regime: 0.0 for regime in REGIMES}
        winner = "latency-bound"
        dominant = "overhead"
    return RegimeClassification(
        label=report.label,
        regime=winner,
        shares=shares,
        dominant_term=dominant,
        measured_cycles=measured,
    )


def record_regime(
    classification: RegimeClassification, registry=None, **labels
) -> None:
    """Export a classification as labeled metrics.

    Writes ``repro_regime_share{regime=...}`` gauges (one per regime) and
    bumps ``repro_launch_regime_total{regime=<winner>}``.  With no
    explicit ``registry`` the process default is used, respecting the
    global enable flag; passing a registry records unconditionally.
    """
    from . import metrics as _metrics

    if registry is None:
        if not _metrics.metrics_enabled():
            return
        registry = _metrics.default_registry()
    for regime, share in classification.shares.items():
        registry.set(
            "repro_regime_share",
            share,
            help="Share of measured cycles per execution regime.",
            regime=regime,
            **labels,
        )
    registry.inc(
        "repro_launch_regime_total",
        1.0,
        help="Launches classified into each execution regime.",
        regime=classification.regime,
        **labels,
    )
