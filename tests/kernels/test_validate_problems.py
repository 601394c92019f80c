"""Validation helpers and problem generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.kernels.batched import (
    diagonally_dominant_batch,
    hermitian_batch,
    lu_reconstruction_error,
    orthogonality_error,
    qr_reconstruction_error,
    random_batch,
    rhs_batch,
    solve_residual,
    triangular_error,
)
from repro.kernels.batched.validate import (
    COPY_BLOCK,
    as_batch,
    batch_last,
    check_square_batch,
    check_tall_batch,
)


class TestAsBatch:
    def test_2d_promoted(self):
        out = as_batch(np.zeros((3, 4), dtype=np.float32))
        assert out.shape == (1, 3, 4)

    def test_copy_made(self):
        a = np.zeros((1, 2, 2), dtype=np.float32)
        out = as_batch(a)
        out[0, 0, 0] = 1
        assert a[0, 0, 0] == 0

    def test_integers_promoted_to_float(self):
        out = as_batch(np.ones((1, 2, 2), dtype=np.int32))
        assert out.dtype == np.float64

    def test_bad_rank_rejected(self):
        with pytest.raises(ShapeError):
            as_batch(np.zeros(4, dtype=np.float32))
        with pytest.raises(ShapeError):
            as_batch(np.zeros((2, 2, 2, 2), dtype=np.float32))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            as_batch(np.zeros((0, 2, 2), dtype=np.float32))

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ShapeError):
            as_batch(np.zeros((1, 2, 2), dtype=np.float16))

    def test_square_and_tall_checks(self):
        check_square_batch(np.zeros((1, 3, 3)))
        check_tall_batch(np.zeros((1, 4, 3)))
        with pytest.raises(ShapeError):
            check_square_batch(np.zeros((1, 3, 4)))
        with pytest.raises(ShapeError):
            check_tall_batch(np.zeros((1, 3, 4)))


class TestBatchLast:
    @pytest.mark.parametrize(
        "batch", [1, COPY_BLOCK - 1, COPY_BLOCK, COPY_BLOCK + 1, 2 * COPY_BLOCK + 2]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.complex128])
    def test_same_bytes_as_a_whole_transpose(self, batch, dtype):
        a = random_batch(batch, 5, 3, dtype=dtype, seed=batch)
        a[0, 0, 0] = np.nan
        for src in (a, a[:, ::-1, 1:]):  # contiguous and strided inputs
            out = batch_last(src)
            want = src.transpose(1, 2, 0).copy()
            assert out.flags.c_contiguous and out.dtype == src.dtype
            assert out.shape == want.shape
            assert out.tobytes() == want.tobytes()


class TestErrorMetrics:
    def test_perfect_qr_scores_zero(self):
        q = np.eye(4, dtype=np.float64)[None]
        r = np.triu(np.ones((1, 4, 4)))
        a = q @ r
        assert qr_reconstruction_error(a, q, r) < 1e-15
        assert orthogonality_error(q) < 1e-15

    def test_worst_problem_dominates(self):
        q = np.tile(np.eye(3), (2, 1, 1))
        r = np.tile(np.eye(3), (2, 1, 1))
        a = q @ r
        a[1] *= 2  # corrupt the second problem
        assert qr_reconstruction_error(a, q, r) > 0.4

    def test_triangular_error_detects_violation(self):
        r = np.triu(np.ones((1, 4, 4)))
        assert triangular_error(r) == 0
        r[0, 2, 0] = 0.5
        assert triangular_error(r) == 0.5
        low = np.tril(np.ones((1, 4, 4)))
        assert triangular_error(low, lower=True) == 0

    def test_solve_residual_relative_to_rhs(self):
        a = np.eye(3)[None]
        b = np.ones((1, 3)) * 10
        x = b.copy()
        assert solve_residual(a, x, b) == 0
        assert solve_residual(a, x * 1.1, b) == pytest.approx(0.1, rel=1e-6)

    def test_lu_error_uses_unit_lower(self):
        lu = np.triu(np.ones((1, 3, 3))) + np.tril(np.ones((1, 3, 3)) * 0.5, -1)
        lower = np.tril(lu, -1) + np.eye(3)
        upper = np.triu(lu)
        a = lower @ upper
        assert lu_reconstruction_error(a, lu) < 1e-15


class TestGenerators:
    def test_random_batch_deterministic(self):
        a = random_batch(2, 3, 4, seed=7)
        b = random_batch(2, 3, 4, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_random_batch_dtype(self):
        assert random_batch(1, 2, 2, dtype=np.complex64).dtype == np.complex64
        assert random_batch(1, 2, 2, dtype=np.float64).dtype == np.float64

    def test_complex_batch_has_imaginary_parts(self):
        a = random_batch(1, 4, 4, dtype=np.complex64)
        assert np.abs(a.imag).max() > 0

    @given(
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_diagonal_dominance_property(self, n, seed):
        a = diagonally_dominant_batch(2, n, dtype=np.float64, seed=seed)
        idx = np.arange(n)
        diag = np.abs(a[:, idx, idx])
        off = np.abs(a).sum(axis=2) - diag
        assert (diag > off).all()

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_property(self, seed):
        a = hermitian_batch(2, 6, dtype=np.complex128, seed=seed)
        np.testing.assert_allclose(a, np.swapaxes(a.conj(), 1, 2))

    def test_rhs_batch_shape(self):
        assert rhs_batch(3, 5, nrhs=2).shape == (3, 5, 2)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ShapeError):
            random_batch(0, 3, 3)
        with pytest.raises(ShapeError):
            diagonally_dominant_batch(1, 0)

    def test_generator_accepts_rng_instance(self):
        rng = np.random.default_rng(3)
        a = random_batch(1, 2, 2, seed=rng)
        b = random_batch(1, 2, 2, seed=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
