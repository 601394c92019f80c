"""The per-block least-squares kernel against the batched solve."""

import numpy as np
import pytest

from repro.kernels.batched import least_squares, random_batch
from repro.kernels.device import per_block_least_squares


class TestPerBlockLeastSquares:
    def test_matches_batched(self):
        a = random_batch(3, 40, 12, dtype=np.float32, seed=1)
        b = random_batch(3, 40, 1, dtype=np.float32, seed=2)[:, :, 0]
        dev = per_block_least_squares(a, b)
        ref = least_squares(a.copy(), b.copy())
        np.testing.assert_allclose(dev.output, ref.x, atol=1e-5)
        np.testing.assert_allclose(dev.extra, ref.residual_norms, atol=1e-5)

    def test_complex_tall(self):
        a = random_batch(2, 30, 8, dtype=np.complex64, seed=3)
        b = random_batch(2, 30, 1, dtype=np.complex64, seed=4)[:, :, 0]
        dev = per_block_least_squares(a, b)
        ref = least_squares(a.copy(), b.copy())
        np.testing.assert_allclose(dev.output, ref.x, atol=1e-4)

    def test_exact_fit_zero_residual(self):
        a = random_batch(2, 20, 5, dtype=np.float32, seed=5)
        x_true = random_batch(2, 5, 1, dtype=np.float32, seed=6)
        b = (a @ x_true)[:, :, 0]
        dev = per_block_least_squares(a, b)
        assert dev.extra.max() < 1e-4

    def test_timing_present(self):
        a = random_batch(2, 24, 8, dtype=np.float32, seed=7)
        b = random_batch(2, 24, 1, dtype=np.float32, seed=8)[:, :, 0]
        dev = per_block_least_squares(a, b)
        assert dev.cycles > 0
        assert dev.launch.throughput_gflops(1000) > 0

    def test_shape_validation(self):
        a = random_batch(2, 8, 12, dtype=np.float32)  # wide
        with pytest.raises(ValueError):
            per_block_least_squares(a, np.zeros((2, 8), dtype=np.float32))
        tall = random_batch(2, 12, 8, dtype=np.float32)
        with pytest.raises(ValueError):
            per_block_least_squares(tall, np.zeros((2, 11), dtype=np.float32))
