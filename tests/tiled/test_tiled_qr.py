"""Tiled QR: tile kernels, full factorization, autotuned tile heights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.gpu import QUADRO_6000
from repro.kernels.batched import qr_factor, random_batch, solve_upper, triangular_error
from repro.tiled import choose_tile_rows, geqrt, tiled_qr, tsqrt


def r_magnitudes_match(r1, r2, tol):
    """R factors agree up to column signs (the QR sign ambiguity)."""
    return np.abs(np.abs(r1) - np.abs(r2)).max() <= tol * max(1.0, np.abs(r2).max())


class TestTileKernels:
    def test_geqrt_matches_direct_qr(self):
        a = random_batch(3, 24, 8, dtype=np.float64, seed=1)
        tile = geqrt(a, fast_math=False)
        direct = qr_factor(a.copy(), fast_math=False)
        np.testing.assert_allclose(tile.r, direct.r(), atol=1e-12)

    def test_geqrt_rejects_wide(self):
        with pytest.raises(ShapeError):
            geqrt(random_batch(2, 4, 8, dtype=np.float32))

    def test_tsqrt_combines_two_tiles(self):
        a = random_batch(2, 32, 8, dtype=np.float64, seed=2)
        top = geqrt(a[:, :16], fast_math=False)
        combined = tsqrt(top.r[:, :8], a[:, 16:], fast_math=False)
        direct = qr_factor(a.copy(), fast_math=False)
        assert r_magnitudes_match(combined.r, direct.r(), 1e-12)

    def test_tsqrt_shape_validation(self):
        r = np.triu(random_batch(2, 8, 8, dtype=np.float32))
        with pytest.raises(ShapeError):
            tsqrt(r, random_batch(2, 8, 6, dtype=np.float32))
        with pytest.raises(ShapeError):
            tsqrt(random_batch(2, 8, 6, dtype=np.float32), r)

    def test_carried_rhs_shape_validated(self):
        a = random_batch(2, 16, 4, dtype=np.float32)
        with pytest.raises(ShapeError):
            geqrt(a, carried=np.zeros((2, 15), dtype=np.float32))


class TestTiledQr:
    @pytest.mark.parametrize(
        "shape,dtype",
        [
            ((240, 66), np.complex64),
            ((192, 96), np.complex64),
            ((128, 32), np.float32),
            ((100, 10), np.float64),
        ],
    )
    def test_matches_direct_qr_up_to_signs(self, shape, dtype):
        m, n = shape
        a = random_batch(2, m, n, dtype=dtype, seed=m)
        res = tiled_qr(a)
        direct = qr_factor(a.copy(), fast_math=False)
        tol = 1e-4 if np.dtype(dtype).itemsize <= 8 else 1e-10
        assert r_magnitudes_match(res.r, direct.r(), tol)
        assert triangular_error(res.r) == 0

    def test_gram_identity(self):
        # R^H R == A^H A regardless of sign conventions.
        a = random_batch(2, 200, 24, dtype=np.float64, seed=5)
        res = tiled_qr(a, fast_math=False)
        gram_r = np.swapaxes(res.r.conj(), 1, 2) @ res.r
        gram_a = np.swapaxes(a.conj(), 1, 2) @ a
        np.testing.assert_allclose(gram_r, gram_a, rtol=1e-6, atol=1e-8)

    def test_least_squares_through_carried_rhs(self):
        a = random_batch(2, 150, 20, dtype=np.float64, seed=6)
        b = random_batch(2, 150, 1, dtype=np.float64, seed=7)
        res = tiled_qr(a, b)
        x = solve_upper(res.r, res.carried, fast_math=False)
        ref = np.stack([np.linalg.lstsq(a[i], b[i], rcond=None)[0] for i in range(2)])
        np.testing.assert_allclose(x, ref, atol=1e-6)

    def test_single_tile_degenerates_to_geqrt(self):
        a = random_batch(2, 40, 10, dtype=np.float32, seed=8)
        res = tiled_qr(a, tile_rows=40)
        assert len(res.launches) == 1
        assert res.stage_shapes == ((40, 10),)

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeError):
            tiled_qr(random_batch(2, 8, 16, dtype=np.float32))

    def test_small_tile_rows_rejected(self):
        a = random_batch(2, 64, 16, dtype=np.float32)
        with pytest.raises(ShapeError):
            tiled_qr(a, tile_rows=8)

    def test_rhs_shape_validated(self):
        a = random_batch(2, 64, 16, dtype=np.float32)
        with pytest.raises(ShapeError):
            tiled_qr(a, b=np.zeros((2, 63), dtype=np.float32))

    def test_timing_accumulates_over_stages(self):
        a = random_batch(1, 240, 66, dtype=np.complex64)
        res = tiled_qr(a, tile_rows=80)
        assert len(res.launches) >= 3
        assert res.seconds > 0
        assert res.gflops > 0

    @given(
        m=st.integers(min_value=20, max_value=120),
        n=st.integers(min_value=2, max_value=18),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_gram_identity_property(self, m, n, seed):
        a = random_batch(1, m, n, dtype=np.float64, seed=seed)
        res = tiled_qr(a, tile_rows=max(n, 32), fast_math=False)
        gram_r = np.swapaxes(res.r.conj(), 1, 2) @ res.r
        gram_a = np.swapaxes(a.conj(), 1, 2) @ a
        np.testing.assert_allclose(gram_r, gram_a, rtol=1e-6, atol=1e-7)


class TestTiledTiming:
    def test_seconds_sum_each_stage_in_waves(self):
        a = random_batch(3, 128, 32, dtype=np.float32, seed=3)
        res = tiled_qr(a, tile_rows=64)
        assert len(res.launches) == 2
        total = 0.0
        for launch in res.launches:
            total += launch.batch_seconds(res.batch)
        assert res.seconds == total


class TestChooseTileRows:
    def test_small_problem_single_tile(self):
        assert choose_tile_rows(40, 40, False, QUADRO_6000) == 40

    def test_result_is_feasible(self):
        rows = choose_tile_rows(240, 66, True, QUADRO_6000)
        assert 66 <= rows <= 240

    def test_invalid_dims_rejected(self):
        with pytest.raises(ShapeError):
            choose_tile_rows(0, 8, False, QUADRO_6000)

    def test_tuner_beats_worst_candidate(self):
        # The autotuned height must not be slower than the minimal tile.
        a = random_batch(1, 240, 66, dtype=np.complex64)
        best = choose_tile_rows(240, 66, True, QUADRO_6000)
        tuned = tiled_qr(a, tile_rows=best)
        minimal = tiled_qr(a, tile_rows=66)
        assert tuned.seconds <= minimal.seconds * 1.001
