"""Figure 7: layout cost comparison for the QR solver."""

import pytest

from repro.errors import LaunchConfigurationError
from repro.layouts import compare_layouts, estimate_qr_solve
from repro.model import ModelParameters


@pytest.fixture(scope="module")
def params():
    return ModelParameters.paper_table_iv()


class TestFigure7:
    @pytest.mark.parametrize("n", [32, 48, 64, 80, 96])
    def test_2d_dominates_1d_layouts(self, params, n):
        # "The 2D layout dominates 1D layouts in all tested cases."
        r = compare_layouts(params, n)
        assert r["cyclic2d"].gflops > r["column_cyclic"].gflops
        assert r["cyclic2d"].gflops > r["row_cyclic"].gflops

    @pytest.mark.parametrize("n", [16, 32, 48, 64, 80, 96])
    def test_column_cyclic_beats_row_cyclic(self, params, n):
        # "Due to the large amount of column-wise communication inherent
        # in the Householder QR algorithm, one expects the 1D
        # column-cyclic layout to be considerably faster than ... row."
        r = compare_layouts(params, n)
        assert r["column_cyclic"].gflops > r["row_cyclic"].gflops

    def test_2d_and_column_close_at_smallest_size(self, params):
        # At n=16 the reduction overhead of 2D roughly cancels its
        # parallelism advantage; the curves touch in Figure 7.
        r = compare_layouts(params, 16)
        assert r["cyclic2d"].gflops == pytest.approx(
            r["column_cyclic"].gflops, rel=0.15
        )

    def test_figure7_magnitudes(self, params):
        # Figure 7's y-axis: 2D reaches ~180-200 GFLOPS at n=96.
        est = estimate_qr_solve(params, "cyclic2d", 96)
        assert 150 < est.gflops < 220

    def test_all_curves_rise_with_n_midrange(self, params):
        for kind in ("cyclic2d", "column_cyclic", "row_cyclic"):
            vals = [
                estimate_qr_solve(params, kind, n).gflops for n in (16, 32, 48, 64)
            ]
            assert vals == sorted(vals)


class TestEstimator:
    def test_cycles_positive(self, params):
        assert estimate_qr_solve(params, "cyclic2d", 32).cycles > 0

    def test_unknown_layout_rejected(self, params):
        with pytest.raises(ValueError):
            estimate_qr_solve(params, "hilbert_curve", 32)

    def test_tiny_system_rejected(self, params):
        with pytest.raises(ValueError):
            estimate_qr_solve(params, "cyclic2d", 1)

    def test_precise_math_slower(self, params):
        fast = estimate_qr_solve(params, "cyclic2d", 48, fast_math=True)
        precise = estimate_qr_solve(params, "cyclic2d", 48, fast_math=False)
        assert precise.cycles > fast.cycles

    def test_result_records_inputs(self, params):
        est = estimate_qr_solve(params, "row_cyclic", 48)
        assert est.layout == "row_cyclic"
        assert est.n == 48
        assert est.threads == 64

    @pytest.mark.parametrize("threads", [48, 60])
    def test_2d_rejects_non_square_block(self, params, threads):
        # A 2D cyclic grid needs a square thread count, as Cyclic2D and
        # the per-block model's BlockConfig require.
        with pytest.raises(LaunchConfigurationError):
            estimate_qr_solve(params, "cyclic2d", 32, threads=threads)
        with pytest.raises(LaunchConfigurationError):
            compare_layouts(params, 32, threads=threads)
