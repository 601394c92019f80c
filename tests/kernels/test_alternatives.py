"""Alternative QR algorithms and the Section III-C stability claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, SingularMatrixError
from repro.kernels.batched import (
    cholesky_factor,
    cholesky_factor_flagged,
    cholesky_qr,
    givens_qr,
    gram_schmidt_qr,
    hermitian_batch,
    modified_gram_schmidt_qr,
    orthogonality_error,
    qr_factor,
    qr_reconstruction_error,
    qr_unpack,
    random_batch,
    triangular_error,
)

ALTERNATIVES = [cholesky_qr, gram_schmidt_qr, modified_gram_schmidt_qr, givens_qr]


def conditioned_batch(kappa: float, m: int = 30, n: int = 8, seed: int = 0):
    """One matrix with singular values spanning exactly ``kappa``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.logspace(0, -np.log10(kappa), n)
    return ((u * sv) @ v.T)[None]


class TestCholesky:
    def test_reconstruction_real(self):
        a = hermitian_batch(4, 10, dtype=np.float64, seed=1)
        spd = a @ np.swapaxes(a, 1, 2) + 10 * np.eye(10)
        chol = cholesky_factor(spd, fast_math=False)
        np.testing.assert_allclose(
            chol @ np.swapaxes(chol.conj(), 1, 2), spd, atol=1e-10
        )

    def test_reconstruction_complex(self):
        a = hermitian_batch(4, 8, dtype=np.complex128, seed=2)
        hpd = a @ np.swapaxes(a.conj(), 1, 2) + 8 * np.eye(8)
        chol = cholesky_factor(hpd, fast_math=False)
        np.testing.assert_allclose(
            chol @ np.swapaxes(chol.conj(), 1, 2), hpd, atol=1e-10
        )

    def test_lower_triangular(self):
        spd = np.eye(6, dtype=np.float32)[None] * 4.0
        chol = cholesky_factor(spd)
        assert triangular_error(chol, lower=True) == 0

    def test_indefinite_rejected(self):
        a = -np.eye(4, dtype=np.float64)[None]
        with pytest.raises(SingularMatrixError):
            cholesky_factor(a)

    def test_flagged_path_marks_only_the_indefinite_slot(self):
        a = hermitian_batch(4, 5, dtype=np.float64, seed=8)
        spd = a @ np.swapaxes(a, 1, 2) + 5 * np.eye(5)
        mixed = spd.copy()
        mixed[1] = -np.eye(5)
        result = cholesky_factor_flagged(mixed)
        assert result.not_hpd.tolist() == [False, True, False, False]
        assert np.isnan(result.lower[1]).all()
        keep = [0, 2, 3]
        assert np.array_equal(result.lower[keep], cholesky_factor(spd)[keep])

    def test_matches_numpy(self):
        a = hermitian_batch(3, 6, dtype=np.float64, seed=3)
        spd = a @ np.swapaxes(a, 1, 2) + 6 * np.eye(6)
        chol = cholesky_factor(spd, fast_math=False)
        ref = np.stack([np.linalg.cholesky(spd[i]) for i in range(3)])
        np.testing.assert_allclose(chol, ref, atol=1e-10)


class TestWellConditioned:
    """All four algorithms agree on easy problems."""

    @pytest.mark.parametrize("algorithm", ALTERNATIVES)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_reconstruction_and_orthogonality(self, algorithm, dtype):
        a = random_batch(3, 20, 8, dtype=dtype, seed=4)
        res = algorithm(a, fast_math=False)
        assert qr_reconstruction_error(a, res.q, res.r) < 1e-10
        assert orthogonality_error(res.q) < 1e-10
        assert triangular_error(res.r) < 1e-12

    @pytest.mark.parametrize("algorithm", ALTERNATIVES)
    def test_r_magnitudes_match_householder(self, algorithm):
        a = random_batch(2, 16, 6, dtype=np.float64, seed=5)
        res = algorithm(a, fast_math=False)
        house = qr_factor(a.copy(), fast_math=False).r()
        np.testing.assert_allclose(np.abs(res.r), np.abs(house), atol=1e-9)

    @pytest.mark.parametrize("algorithm", ALTERNATIVES)
    def test_wide_rejected(self, algorithm):
        with pytest.raises(ShapeError):
            algorithm(random_batch(2, 4, 8, dtype=np.float64))

    @pytest.mark.parametrize("algorithm", ALTERNATIVES)
    def test_float32_works(self, algorithm):
        a = random_batch(2, 12, 5, dtype=np.float32, seed=6)
        res = algorithm(a)
        assert qr_reconstruction_error(a, res.q, res.r) < 1e-4


class TestSectionIIICStabilityClaims:
    """'Cholesky QR and Gram-Schmidt are numerically unstable, so we are
    limited to using either Givens rotations or Householder reflectors.'"""

    KAPPA = 1e7

    def _orth(self, algorithm):
        a = conditioned_batch(self.KAPPA)
        try:
            return orthogonality_error(algorithm(a, fast_math=False).q)
        except SingularMatrixError:
            return np.inf  # Cholesky can fail outright: also "unstable"

    def test_cholesky_qr_loses_orthogonality_like_kappa_squared(self):
        err = self._orth(cholesky_qr)
        assert err > 1e-4  # catastrophic at kappa=1e7 in double precision

    def test_classical_gram_schmidt_loses_orthogonality(self):
        err = self._orth(gram_schmidt_qr)
        assert err > 1e-8

    def test_modified_gram_schmidt_better_but_not_stable(self):
        cgs = self._orth(gram_schmidt_qr)
        mgs = self._orth(modified_gram_schmidt_qr)
        assert mgs < cgs
        assert mgs > 1e-13  # still proportional to kappa * eps

    def test_givens_stays_at_machine_precision(self):
        assert self._orth(givens_qr) < 1e-12

    def test_householder_stays_at_machine_precision(self):
        a = conditioned_batch(self.KAPPA)
        q = qr_unpack(qr_factor(a.copy(), fast_math=False))
        assert orthogonality_error(q) < 1e-12

    def test_stability_ranking(self):
        # The full ordering the paper's choice rests on.
        a = conditioned_batch(self.KAPPA)
        house = orthogonality_error(qr_unpack(qr_factor(a.copy(), fast_math=False)))
        givens = self._orth(givens_qr)
        mgs = self._orth(modified_gram_schmidt_qr)
        cgs = self._orth(gram_schmidt_qr)
        chol = self._orth(cholesky_qr)
        assert max(house, givens) < mgs < cgs < chol


class TestProperties:
    @given(
        m=st.integers(min_value=2, max_value=20),
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_givens_invariants(self, m, n, seed):
        if m < n:
            m, n = n, m
        a = random_batch(2, m, n, dtype=np.float64, seed=seed)
        res = givens_qr(a, fast_math=False)
        assert qr_reconstruction_error(a, res.q, res.r) < 1e-9
        assert orthogonality_error(res.q) < 1e-9

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_mgs_q_spans_a(self, seed):
        # Q Q^H A == A: the computed basis spans the input columns.
        a = random_batch(2, 15, 6, dtype=np.float64, seed=seed)
        q = modified_gram_schmidt_qr(a, fast_math=False).q
        proj = q @ (np.swapaxes(q.conj(), 1, 2) @ a)
        np.testing.assert_allclose(proj, a, atol=1e-8)
