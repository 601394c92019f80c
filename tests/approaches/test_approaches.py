"""The five approaches and the Figure-10 design-space conclusions."""

import numpy as np
import pytest

from repro.approaches import (
    CpuLapackApproach,
    CublasStreamsApproach,
    HybridBlockedApproach,
    PerBlockApproach,
    PerThreadApproach,
    Workload,
    best_approach,
    default_approaches,
    rank_approaches,
)
from repro.errors import LaunchConfigurationError
from repro.gpu import G80, GTX480, QUADRO_6000
from repro.kernels.batched import diagonally_dominant_batch
from repro.kernels.device import per_thread_factor
from repro.kernels.device.per_thread import per_thread_placement


class TestWorkload:
    def test_square_helper(self):
        w = Workload.square("qr", 56, 5000)
        assert (w.m, w.n, w.batch) == (56, 56, 5000)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Workload("qr", 0, 4, 10)
        with pytest.raises(ValueError):
            Workload("qr", 4, 4, 0)
        with pytest.raises(ValueError):
            Workload("cholesky", 4, 4, 1)


class TestSupports:
    def test_per_thread_needs_small_square(self):
        pt = PerThreadApproach()
        assert pt.supports(Workload.square("qr", 8, 100))
        assert not pt.supports(Workload.square("qr", 256, 100))
        assert not pt.supports(Workload("qr", 16, 8, 100))

    def test_per_block_supports_tall_qr(self):
        pb = PerBlockApproach()
        assert pb.supports(Workload("qr", 240, 66, 128, complex_dtype=True))
        assert not pb.supports(Workload("lu", 16, 8, 100))

    @pytest.mark.parametrize("complex_dtype", [False, True])
    @pytest.mark.parametrize("kind", ["qr", "lu", "gauss_jordan", "least_squares"])
    def test_per_block_edge_is_where_launch_fails(self, kind, complex_dtype):
        """supports() admits exactly the sizes launch() can run."""
        pb = PerBlockApproach()

        def work(n):
            return Workload.square(kind, n, 1, complex_dtype=complex_dtype)

        lo, hi = 1, 8192  # supported, unsupported
        assert pb.supports(work(lo)) and not pb.supports(work(hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if pb.supports(work(mid)) else (lo, mid)
        assert pb.launch(work(lo)).cycles > 0
        with pytest.raises(LaunchConfigurationError):
            pb.launch(work(hi))

    def test_rank_skips_per_block_past_its_shared_memory(self):
        ranked = rank_approaches(Workload.square("qr", 6130, 1))
        assert ranked
        assert "per-block" not in [r.name for r in ranked]

    def test_hybrid_is_real_only(self):
        hy = HybridBlockedApproach()
        assert hy.supports(Workload.square("qr", 512, 1))
        assert not hy.supports(Workload.square("qr", 512, 1, complex_dtype=True))
        assert not hy.supports(Workload.square("gauss_jordan", 64, 10))

    def test_cpu_supports_everything_tall(self):
        cpu = CpuLapackApproach()
        for kind in ("qr", "lu", "gauss_jordan", "least_squares"):
            assert cpu.supports(Workload.square(kind, 32, 100))


def _launch_fields(launch):
    """Every field of a launch both FLOP conventions agree on."""
    return (
        launch.cycles,
        list(launch.breakdown.items()),
        list(launch.phase_totals.items()),
        launch.counters.snapshot(),
        launch.occupancy,
    )


class TestPerBlockReplayConsistency:
    """A ``PerBlockApproach`` launch is its device kernel's launch.

    The approach folds the cost program's loops; the device kernel runs
    them step by step here.  Everything but ``flops_per_block`` (each side
    credits its own FLOP convention) must match exactly.
    """

    @staticmethod
    def check(kind, m, n, complex_dtype, kernel):
        from repro.gpu.simt import BlockEngine
        from repro.kernels.device.base import block_engine_factory

        dtype = np.complex64 if complex_dtype else np.float32
        rng = np.random.default_rng(m * n)
        a = (rng.standard_normal((1, m, n)) + m * np.eye(m, n)).astype(dtype)
        b = rng.standard_normal((1, m)).astype(dtype)
        with block_engine_factory(BlockEngine):
            stepped = kernel(a, b).launch
        work = Workload(kind, m, n, 1, complex_dtype=complex_dtype)
        folded = PerBlockApproach().launch(work)
        assert _launch_fields(folded) == _launch_fields(stepped)

    @pytest.mark.parametrize(
        "m, n, complex_dtype",
        [(16, 16, False), (56, 56, True), (96, 32, False), (240, 66, True)],
    )
    def test_qr_replay_matches_device_kernel(self, m, n, complex_dtype):
        from repro.kernels.device import per_block_qr

        self.check("qr", m, n, complex_dtype, lambda a, b: per_block_qr(a))

    @pytest.mark.parametrize("n, complex_dtype", [(32, False), (120, True)])
    def test_lu_replay_matches_device_kernel(self, n, complex_dtype):
        from repro.kernels.device import per_block_lu

        self.check("lu", n, n, complex_dtype, lambda a, b: per_block_lu(a))

    @pytest.mark.parametrize("n, complex_dtype", [(32, False), (81, True)])
    def test_gj_replay_matches_device_kernel(self, n, complex_dtype):
        from repro.kernels.device import per_block_gauss_jordan

        self.check("gauss_jordan", n, n, complex_dtype, per_block_gauss_jordan)

    @pytest.mark.parametrize(
        "m, n, complex_dtype",
        [
            (24, 24, False),
            (145, 145, False),  # moved off the old sketch
            (96, 32, False),  # moved off the old sketch
            (80, 16, True),
        ],
    )
    def test_least_squares_replay_matches_device_kernel(self, m, n, complex_dtype):
        """Square systems price as ``per_block_qr_solve``, tall ones as
        ``per_block_least_squares``."""
        from repro.kernels.device import per_block_least_squares, per_block_qr_solve

        kernel = per_block_qr_solve if m == n else per_block_least_squares
        self.check("least_squares", m, n, complex_dtype, kernel)


class TestPerThreadConsistency:
    """A ``PerThreadApproach`` prices a workload as ``per_thread_factor``
    launches it: one placement rule and one roofline."""

    SIZES = list(range(1, 17)) + [32, 64, 128]

    @pytest.mark.parametrize("complex_dtype", [False, True])
    @pytest.mark.parametrize("kind", ["qr", "lu"])
    @pytest.mark.parametrize(
        "device", [QUADRO_6000, GTX480, G80], ids=["quadro6000", "gtx480", "g80"]
    )
    def test_supports_and_seconds_match_the_kernel(self, device, kind, complex_dtype):
        approach = PerThreadApproach(device)
        dtype = np.complex64 if complex_dtype else np.float32
        for n in self.SIZES:
            work = Workload.square(kind, n, 2, complex_dtype=complex_dtype)
            try:
                per_thread_placement(n, device, complex_dtype)
            except LaunchConfigurationError:
                assert not approach.supports(work), n
                continue
            assert approach.supports(work), n
            a = diagonally_dominant_batch(2, n, dtype=dtype, seed=n)
            assert approach.seconds(work) == per_thread_factor(a, kind, device).seconds

    def test_g80_places_only_the_smallest_problems(self):
        approach = PerThreadApproach(G80)

        def placed(complex_dtype):
            return [
                n
                for n in range(1, 129)
                if approach.supports(Workload.square("lu", n, 1, complex_dtype))
            ]

        assert placed(False) == [1, 2, 3, 4]
        assert placed(True) == [1, 2, 3]

    def test_rank_skips_a_per_thread_launch_that_places_no_block(self):
        work = Workload.square("lu", 8, 64)
        ranked = rank_approaches(work, [PerThreadApproach(G80), PerBlockApproach(G80)])
        assert [r.name for r in ranked] == ["per-block"]


class TestFigure10DesignSpace:
    """'The design space for different sized problems is not flat.'"""

    def test_per_thread_wins_tiny_problems(self):
        w = Workload.square("qr", 8, 64000)
        assert best_approach(w).name == "per-thread"

    def test_per_block_wins_small_problems(self):
        for n in (32, 56, 64, 128):
            w = Workload.square("qr", n, 8000)
            assert best_approach(w).name == "per-block", n

    def test_hybrid_wins_large_single_problems(self):
        for n in (1024, 4096, 8192):
            w = Workload.square("qr", n, 1)
            assert best_approach(w).name == "hybrid-blocked", n

    def test_crossover_exists_between_block_and_hybrid(self):
        # Somewhere between 128 and 2048 the hybrid overtakes per-block.
        pb, hy = PerBlockApproach(), HybridBlockedApproach()
        small = Workload.square("qr", 128, 100)
        large = Workload.square("qr", 2048, 100)
        assert pb.gflops(small) > hy.gflops(small)
        assert hy.gflops(large) > pb.gflops(large)

    def test_streams_never_wins(self):
        # Section VI-C: no benefit from streams at any tested size.
        for n in (16, 64, 256, 1024):
            w = Workload.square("qr", n, 1000)
            assert best_approach(w).name != "cublas-streams", n

    def test_streams_loses_to_cpu_for_small(self):
        w = Workload.square("qr", 56, 5000)
        assert CublasStreamsApproach().gflops(w) < CpuLapackApproach().gflops(w)

    def test_ranking_is_sorted(self):
        ranks = rank_approaches(Workload.square("qr", 64, 1000))
        values = [r.gflops for r in ranks]
        assert values == sorted(values, reverse=True)

    def test_unsupported_workload_raises(self):
        w = Workload("qr", 8, 16, 10)  # wide: nobody factors it
        with pytest.raises(ValueError):
            rank_approaches(w)


class TestFigure11Comparisons:
    def test_per_block_vs_mkl_headline_at_56(self):
        # Abstract: 29x faster than MKL for 5000 56x56 SP QRs.
        w = Workload.square("qr", 56, 5000)
        gpu = PerBlockApproach().gflops(w)
        mkl = CpuLapackApproach().gflops(w)
        assert 15 < gpu / mkl < 45

    def test_per_block_vs_magma_two_orders_at_56(self):
        # "up to 140x faster than the existing GPU library".
        w = Workload.square("qr", 56, 5000)
        gpu = PerBlockApproach().gflops(w)
        magma = HybridBlockedApproach().gflops(w)
        assert 50 < gpu / magma < 400

    def test_magma_cpu_start_beats_gpu_start_small(self):
        # Figure 11: "The CPU-start is faster because MAGMA solves these
        # problems mostly on the CPU anyway."
        w = Workload.square("qr", 56, 100)
        cpu_start = HybridBlockedApproach(gpu_start=False).gflops(w)
        gpu_start = HybridBlockedApproach(gpu_start=True).gflops(w)
        assert cpu_start > gpu_start

    def test_gpu_wins_all_figure11_sizes(self):
        pb, cpu = PerBlockApproach(), CpuLapackApproach()
        for n in range(8, 145, 8):
            w = Workload.square("qr", n, 8000)
            assert pb.gflops(w) > cpu.gflops(w), n


class TestSeconds:
    def test_seconds_consistent_with_gflops(self):
        w = Workload.square("qr", 56, 1000)
        for approach in default_approaches():
            if not approach.supports(w):
                continue
            secs = approach.seconds(w)
            assert secs > 0

    def test_cpu_seconds_scale_with_batch(self):
        cpu = CpuLapackApproach()
        one = cpu.seconds(Workload.square("qr", 56, 400))
        two = cpu.seconds(Workload.square("qr", 56, 800))
        assert two == pytest.approx(2 * one, rel=0.01)
