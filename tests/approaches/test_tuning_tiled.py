"""Launch-shape autotuner and the tiled-QR approach adapter."""

import pytest

from repro.approaches import (
    TiledQrApproach,
    Workload,
    feasible_thread_counts,
    tune_block_threads,
)


class TestFeasibility:
    def test_all_square_counts_for_medium_matrix(self):
        counts = feasible_thread_counts(Workload.square("qr", 56, 100))
        assert counts == [16, 64, 256, 1024]

    def test_tiny_matrix_excludes_wide_grids(self):
        counts = feasible_thread_counts(Workload.square("qr", 4, 100))
        assert 256 not in counts
        assert 16 in counts


class TestTuner:
    def test_rediscovers_paper_choice_at_56(self):
        tuned = tune_block_threads(Workload.square("qr", 56, 8000))
        assert tuned.threads == 64  # the paper's rule below 80 columns

    def test_candidates_recorded(self):
        tuned = tune_block_threads(Workload.square("qr", 56, 8000))
        assert set(tuned.candidates) == {16, 64, 256, 1024}
        assert tuned.gflops == max(tuned.candidates.values())

    def test_config_property_consistent(self):
        tuned = tune_block_threads(Workload.square("qr", 32, 1000))
        assert tuned.config.threads == tuned.threads
        assert tuned.config.m == 32

    def test_explicit_candidates(self):
        tuned = tune_block_threads(
            Workload.square("qr", 56, 1000), candidates=[64, 256]
        )
        assert tuned.threads in (64, 256)

    def test_lu_and_gj_workloads(self):
        for kind in ("lu", "gauss_jordan"):
            tuned = tune_block_threads(Workload.square(kind, 48, 1000))
            assert tuned.gflops > 0

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            tune_block_threads(Workload.square("qr", 56, 100), candidates=[])

    def test_cost_program_errors_propagate(self, monkeypatch):
        """Only "the block does not fit" skips a candidate."""
        from repro.approaches import per_block

        def broken(kernel):
            raise TypeError("broken cost program")

        monkeypatch.setattr(per_block, "_qr_costs", broken)
        with pytest.raises(TypeError, match="broken cost program"):
            tune_block_threads(Workload.square("qr", 56, 100))


class TestTiledApproach:
    def test_supports_tall_qr_only(self):
        t = TiledQrApproach()
        assert t.supports(Workload("qr", 240, 66, 128, complex_dtype=True))
        assert not t.supports(Workload("lu", 64, 64, 128))
        assert not t.supports(Workload("qr", 16, 64, 128))

    def test_spill_detector_matches_paper_cases(self):
        t = TiledQrApproach()
        assert not t.spills_single_block(
            Workload("qr", 80, 16, 384, complex_dtype=True)
        )
        assert t.spills_single_block(
            Workload("qr", 240, 66, 128, complex_dtype=True)
        )

    def test_table7_band_for_240x66(self):
        t = TiledQrApproach()
        g = t.gflops(Workload("qr", 240, 66, 128, complex_dtype=True))
        assert 30 < g < 120  # paper: 99; our spill model lands lower

    def test_seconds_scale_with_batch(self):
        # Large batches amortize the wave quantization (ceil(batch /
        # resident blocks) per stage), so doubling the batch doubles time.
        t = TiledQrApproach()
        one = t.seconds(Workload("qr", 240, 66, 1120, complex_dtype=True))
        two = t.seconds(Workload("qr", 240, 66, 2240, complex_dtype=True))
        assert two == pytest.approx(2 * one, rel=0.05)

    def test_matches_numeric_tiled_path(self):
        import numpy as np

        from repro.kernels.batched import random_batch
        from repro.tiled import tiled_qr

        a = random_batch(1, 192, 96, dtype=np.complex64)
        numeric = tiled_qr(a)
        t = TiledQrApproach()
        w = Workload("qr", 192, 96, 1, complex_dtype=True)
        # Same stage replays behind both paths.
        assert t.seconds(w) == pytest.approx(numeric.seconds, rel=0.01)


class TestRealTime:
    def test_budget_validation(self):
        from repro.stap import RealTimeBudget

        with pytest.raises(ValueError):
            RealTimeBudget(cpi_rate_hz=0)
        with pytest.raises(ValueError):
            RealTimeBudget(qr_time_share=0)

    def test_gpu_meets_realtime_where_cpu_struggles(self):
        from repro.approaches import CpuLapackApproach, PerBlockApproach
        from repro.stap import RT_STAP_CASES, RealTimeBudget, assess_realtime

        budget = RealTimeBudget(cpi_rate_hz=10.0)
        case = RT_STAP_CASES[0]  # 80x16 x 384
        gpu = assess_realtime(case, PerBlockApproach(), budget)
        cpu = assess_realtime(case, CpuLapackApproach(), budget)
        assert gpu.meets_deadline
        assert gpu.headroom > cpu.headroom

    def test_max_cpi_rate(self):
        from repro.approaches import TiledQrApproach
        from repro.stap import RT_STAP_CASES, RealTimeBudget, assess_realtime

        report = assess_realtime(
            RT_STAP_CASES[1], TiledQrApproach(), RealTimeBudget(cpi_rate_hz=5.0)
        )
        assert report.max_cpi_rate_hz == pytest.approx(
            report.budget.qr_time_share / report.seconds_per_cpi
        )

    def test_unsupported_approach_rejected(self):
        from repro.approaches import HybridBlockedApproach
        from repro.stap import RT_STAP_CASES, assess_realtime

        with pytest.raises(ValueError):
            assess_realtime(RT_STAP_CASES[0], HybridBlockedApproach())
