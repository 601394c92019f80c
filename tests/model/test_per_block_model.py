"""Table-VI analytic model: per-column estimates and Figure 8/9 outputs."""

import pytest

from repro.gpu import costs_for
from repro.model import (
    ModelParameters,
    estimate_lu_column,
    estimate_qr_column,
    block_config,
    panel_breakdown,
    predict_per_block,
)
from repro.model.per_block_model import (
    LU_OPS,
    QR_OPS,
    _latencies,
    _price,
    per_block_counts,
)


@pytest.fixture(scope="module")
def params():
    return ModelParameters.paper_table_iv()


class TestColumnEstimates:
    def test_qr_column_has_three_ops(self, params):
        est = estimate_qr_column(params, block_config(56, 56), 0)
        assert tuple(op.name for op in est.ops) == QR_OPS

    def test_lu_column_has_two_ops(self, params):
        est = estimate_lu_column(params, block_config(56, 56), 0)
        assert tuple(op.name for op in est.ops) == LU_OPS

    def test_qr_column_costs_more_than_lu(self, params):
        cfg = block_config(56, 56)
        qr = estimate_qr_column(params, cfg, 0)
        lu = estimate_lu_column(params, cfg, 0)
        assert qr.total > lu.total

    def test_later_columns_are_cheaper(self, params):
        cfg = block_config(56, 56)
        first = estimate_qr_column(params, cfg, 0)
        last = estimate_qr_column(params, cfg, 54)
        assert last.total < first.total

    def test_precise_math_costs_more(self, params):
        cfg = block_config(56, 56)
        fast = estimate_qr_column(params, cfg, 0, fast_math=True)
        precise = estimate_qr_column(params, cfg, 0, fast_math=False)
        assert precise.total > fast.total

    def test_complex_column_costs_more(self, params):
        # A complex MAC costs ~2 gamma (4 FMAs on 2 independent chains),
        # so complex columns cost more but less than 2x (shared/sync
        # traffic is dtype-independent in cycles).
        real_cfg = block_config(56, 56)
        cplx_cfg = block_config(56, 56, complex_dtype=True)
        real = estimate_qr_column(params, real_cfg, 0)
        cplx = estimate_qr_column(params, cplx_cfg, 0)
        assert real.total < cplx.total < 2 * real.total


class TestPricesTheCertifiedCounts:
    """Each model op is its closed-form counts (the ones costcheck holds
    equal to the engine) weighted by Eq. 2's latencies."""

    @pytest.mark.parametrize("kind", ["lu", "qr"])
    @pytest.mark.parametrize("n, complex_dtype", [(8, False), (56, False), (80, True)])
    def test_ops_are_weighted_counts(self, params, kind, n, complex_dtype):
        pred = predict_per_block(
            params, kind, n, complex_dtype=complex_dtype, fast_math=False
        )
        counts = per_block_counts(kind, n, complex_dtype=complex_dtype).ops
        ops = [op for col in pred.columns for op in col.ops]
        assert [op.name for op in ops] == [c.name for c in counts]
        costs = costs_for(params.device)
        scale = 2 if complex_dtype else 1
        div, sqrt = scale * costs.div(False), scale * costs.sqrt(False)
        sync = params.sync_latency(pred.config.threads)
        for op, c in zip(ops, counts):
            flops = c.flop_ops * params.gamma + c.divs * div + c.sqrts * sqrt
            assert op.flops_cycles == pytest.approx(flops)
            assert op.shared_cycles == pytest.approx(c.shared * params.alpha_sh)
            assert op.sync_cycles == c.syncs * sync

    def test_gauss_jordan_prices_the_launch_its_kernel_runs(self, params):
        # per_block_gauss_jordan runs n steps on the augmented n x (n + 1)
        # launch; the model must price that launch, not the square one.
        for n in range(2, 97):
            pred = predict_per_block(params, "gauss_jordan", n)
            cfg = block_config(n, n + 1)
            ops = _price(
                per_block_counts("gauss_jordan", n).ops,
                _latencies(params, cfg, True),
            )
            assert pred.config == cfg, n
            assert len(pred.columns) == n, n
            assert pred.compute_cycles == pytest.approx(
                sum(op.total for op in ops), rel=1e-12
            ), n


class TestWholeFactorization:
    def test_56x56_qr_compute_near_paper_modeled(self, params):
        # Figure 8's modeled total (compute only) is in the same band as
        # the measured 150203 cycles of Table V; the analytic estimate
        # (no overhead terms) should land within ~25% below it.
        pred = predict_per_block(params, "qr", 56)
        assert 110_000 < pred.compute_cycles < 155_000

    def test_56x56_lu_compute_near_paper_modeled(self, params):
        # Table V measured LU compute: 68250 cycles.
        pred = predict_per_block(params, "lu", 56)
        assert 50_000 < pred.compute_cycles < 70_000

    def test_56x56_occupancy_is_112_blocks(self, params):
        pred = predict_per_block(params, "qr", 56)
        assert pred.occupancy.blocks_per_chip == 112

    def test_gflops_in_figure9_band(self, params):
        # Figure 9 at n=56: ~180-210 GFLOPS for QR, ~150-190 for LU.
        qr = predict_per_block(params, "qr", 56).gflops
        lu = predict_per_block(params, "lu", 56).gflops
        assert 160 < qr < 220
        assert 140 < lu < 200

    def test_thread_switch_causes_drop_at_80(self, params):
        # Figure 9's sharp drop between n=64 and n=80.
        at64 = predict_per_block(params, "qr", 64).gflops
        at80 = predict_per_block(params, "qr", 80).gflops
        assert at80 < at64 * 0.8

    def test_recovery_after_switch(self, params):
        at80 = predict_per_block(params, "qr", 80).gflops
        at144 = predict_per_block(params, "qr", 144).gflops
        assert at144 > at80 * 1.3

    def test_dram_cycles_positive_and_minor(self, params):
        pred = predict_per_block(params, "qr", 56)
        assert 0 < pred.dram_cycles < pred.compute_cycles

    def test_gauss_jordan_and_least_squares_supported(self, params):
        gj = predict_per_block(params, "gauss_jordan", 32)
        ls = predict_per_block(params, "least_squares", 48, 32)
        assert gj.gflops > 0
        assert ls.gflops > 0

    def test_unknown_kind_rejected(self, params):
        with pytest.raises(ValueError):
            predict_per_block(params, "cholesky", 32)

    def test_non_square_stap_shape(self, params):
        pred = predict_per_block(params, "qr", 80, 16, complex_dtype=True)
        assert pred.gflops > 0
        assert pred.config.threads == 64


class TestPanelBreakdown:
    def test_seven_panels_for_56x56(self, params):
        pred = predict_per_block(params, "qr", 56)
        assert len(panel_breakdown(pred)) == 7

    def test_panels_decrease_in_cost(self, params):
        # Figure 8: "As the factorization proceeds the matrix becomes
        # smaller so each panel takes less time."
        pred = predict_per_block(params, "qr", 56)
        totals = [sum(p.values()) for p in panel_breakdown(pred)]
        assert totals == sorted(totals, reverse=True)

    def test_ops_labelled_like_figure8(self, params):
        pred = predict_per_block(params, "qr", 56)
        first = panel_breakdown(pred)[0]
        assert set(first) == set(QR_OPS)

    def test_mv_multiply_dominates_early_panels(self, params):
        # Figure 8 left: MV multiply is the largest slice of panel 1.
        pred = predict_per_block(params, "qr", 56)
        first = panel_breakdown(pred)[0]
        assert first["Matrix-Vector Multiply"] >= max(first.values()) - 1e-9

    def test_breakdown_sums_to_compute(self, params):
        pred = predict_per_block(params, "lu", 56)
        total = sum(sum(p.values()) for p in panel_breakdown(pred))
        assert total == pytest.approx(pred.compute_cycles)
