"""Roofline regime classification from Eq. 1/Eq. 2 term shares."""

import numpy as np
import pytest

from repro.kernels.batched import random_batch
from repro.kernels.device import per_block_lu
from repro.microbench import calibrate
from repro.observe.attribution import (
    AttributionReport,
    TermAttribution,
    attribute_launch,
)
from repro.observe.metrics import (
    MetricsRegistry,
    set_default_registry,
    set_metrics_enabled,
)
from repro.observe.regime import (
    REGIMES,
    TERM_REGIME,
    classify_regime,
    record_regime,
)


def make_report(cycles: dict, label="launch") -> AttributionReport:
    """A synthetic report where each term measured ``cycles[term]``."""
    terms = tuple(
        TermAttribution(
            term=term, category=term, count=1.0,
            eq_cycles=value, measured_cycles=value,
        )
        for term, value in cycles.items()
    )
    return AttributionReport(label=label, threads=64, terms=terms)


class TestClassify:
    @pytest.mark.parametrize("term,regime", sorted(TERM_REGIME.items()))
    def test_dominant_term_names_the_regime(self, term, regime):
        cycles = {t: 1.0 for t in TERM_REGIME}
        cycles[term] = 100.0
        c = classify_regime(make_report(cycles))
        assert c.regime == regime
        assert c.dominant_term == term

    def test_total_is_the_same_on_every_python(self, monkeypatch):
        # Python 3.12's builtin sum() compensates float rounding; the
        # regime gauges must not move with the interpreter.
        from repro.observe import regime as regime_mod
        from tests.gpu.test_clock import compensated_sum

        monkeypatch.setattr(regime_mod, "sum", compensated_sum, raising=False)
        c = classify_regime(
            make_report({"flops*gamma": 1e16, "#msg*alpha_sh": 1.0,
                         "nsync*alpha_sync": 1.0})
        )
        assert c.measured_cycles == 1e16

    def test_shares_sum_to_one(self):
        c = classify_regime(
            make_report({"flops*gamma": 60.0, "msize*beta_glb": 40.0})
        )
        assert sum(c.shares.values()) == pytest.approx(1.0)
        assert set(c.shares) == set(REGIMES)
        assert c.shares["compute-bound"] == pytest.approx(0.6)
        assert c.measured_cycles == pytest.approx(100.0)

    def test_latency_regime_pools_shared_and_overhead(self):
        # Neither shared traffic nor overhead dominates alone, but their
        # pooled regime beats compute -- and the dominant *term* is still
        # the single largest one.
        c = classify_regime(make_report(
            {"#msg*alpha_sh": 30.0, "overhead": 30.0, "flops*gamma": 40.0}
        ))
        assert c.regime == "latency-bound"
        assert c.shares["latency-bound"] == pytest.approx(0.6)
        assert c.dominant_term == "flops*gamma"

    def test_negative_cycles_clamped(self):
        c = classify_regime(make_report(
            {"flops*gamma": -50.0, "nsync*alpha_sync": 10.0}
        ))
        assert c.regime == "sync-bound"
        assert c.shares["compute-bound"] == 0.0

    def test_all_zero_degrades_to_latency_bound(self):
        c = classify_regime(make_report({t: 0.0 for t in TERM_REGIME}))
        assert c.regime == "latency-bound"
        assert c.dominant_term == "overhead"
        assert c.measured_cycles == 0.0
        assert all(share == 0.0 for share in c.shares.values())

    def test_ties_break_in_regimes_order(self):
        c = classify_regime(make_report(
            {"flops*gamma": 50.0, "nsync*alpha_sync": 50.0}
        ))
        assert c.regime == "compute-bound"  # first in REGIMES

    def test_to_dict_is_flat(self):
        c = classify_regime(make_report({"flops*gamma": 1.0}, label="qr56"))
        doc = c.to_dict()
        assert doc["label"] == "qr56"
        assert doc["regime"] == "compute-bound"
        assert doc["dominant_term"] == "flops*gamma"
        assert set(doc["shares"]) == set(REGIMES)

    def test_classifies_real_launch(self):
        params = calibrate()
        result = per_block_lu(random_batch(4, 16, 16, dtype=np.float32, seed=0))
        c = classify_regime(
            attribute_launch(params, result.launch, label="lu16")
        )
        assert c.label == "lu16"
        assert c.regime in REGIMES
        assert sum(c.shares.values()) == pytest.approx(1.0)
        assert c.measured_cycles > 0


class TestRecord:
    def test_explicit_registry_gets_gauges_and_counter(self):
        registry = MetricsRegistry()
        c = classify_regime(make_report({"flops*gamma": 10.0}))
        record_regime(c, registry=registry, op="qr")
        for regime in REGIMES:
            assert registry.value(
                "repro_regime_share", default=-1.0, regime=regime, op="qr"
            ) == pytest.approx(c.shares[regime])
        assert registry.value(
            "repro_launch_regime_total", regime="compute-bound", op="qr"
        ) == 1.0

    def test_default_registry_honors_enable_flag(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        previous_flag = set_metrics_enabled(False)
        try:
            c = classify_regime(make_report({"flops*gamma": 10.0}))
            record_regime(c)
            assert len(registry) == 0
            set_metrics_enabled(True)
            record_regime(c)
            assert "repro_launch_regime_total" in registry
        finally:
            set_default_registry(previous)
            set_metrics_enabled(previous_flag)

    def test_explicit_registry_records_even_when_disabled(self):
        registry = MetricsRegistry()
        previous_flag = set_metrics_enabled(False)
        try:
            c = classify_regime(make_report({"nsync*alpha_sync": 5.0}))
            record_regime(c, registry=registry)
            assert registry.value(
                "repro_launch_regime_total", regime="sync-bound"
            ) == 1.0
        finally:
            set_metrics_enabled(previous_flag)
