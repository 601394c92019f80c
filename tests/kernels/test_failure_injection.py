"""Failure injection: pathological inputs must not crash or lie.

Register-resident kernels run without any runtime checks on silicon;
the library layer is where bad inputs get caught or propagated honestly.
These tests feed NaN/Inf/degenerate batches through every kernel and
assert the contract: no exceptions from finite control flow, poisoned
problems stay poisoned (no silent fake answers), healthy problems in the
same batch are untouched.
"""

import numpy as np

from repro.kernels.batched import (
    diagonally_dominant_batch,
    gauss_jordan_solve,
    least_squares,
    lu_factor,
    qr_factor,
    qr_solve,
    random_batch,
    rhs_batch,
    solve_residual,
)


def poison(a, problem=1, value=np.nan):
    a = a.copy()
    a[problem, 0, 0] = value
    return a


class TestNanPropagation:
    def test_lu_nan_stays_in_its_problem(self):
        a = poison(diagonally_dominant_batch(3, 8, dtype=np.float32))
        res = lu_factor(a)
        assert np.isnan(res.lu[1]).any()
        assert np.isfinite(res.lu[0]).all()
        assert np.isfinite(res.lu[2]).all()

    def test_qr_nan_stays_in_its_problem(self):
        with np.errstate(invalid="ignore"):
            a = poison(random_batch(3, 8, 8, dtype=np.float32))
            res = qr_factor(a)
        assert np.isnan(res.packed[1]).any()
        assert np.isfinite(res.packed[0]).all()

    def test_gj_nan_does_not_crash(self):
        a = poison(diagonally_dominant_batch(3, 6, dtype=np.float32))
        b = rhs_batch(3, 6, dtype=np.float32)[:, :, 0]
        with np.errstate(invalid="ignore"):
            res = gauss_jordan_solve(a, b)
        assert solve_residual(a[[0, 2]], res.x[[0, 2]], b[[0, 2]]) < 5e-5

    def test_inf_input_does_not_crash(self):
        a = poison(diagonally_dominant_batch(2, 6, dtype=np.float32), value=np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            res = lu_factor(a)
        assert np.isfinite(res.lu[0]).all()


class TestDegenerateBatches:
    def test_all_zero_matrix_qr(self):
        a = np.zeros((2, 6, 4), dtype=np.float32)
        res = qr_factor(a)
        assert np.isfinite(res.packed).all()
        assert (res.taus == 0).all()

    def test_all_zero_matrix_lu_flagged(self):
        a = np.zeros((2, 4, 4), dtype=np.float32)
        res = lu_factor(a)
        assert res.not_solved.all()

    def test_duplicate_columns_least_squares(self):
        a = random_batch(2, 12, 4, dtype=np.float64, seed=1)
        a[:, :, 3] = a[:, :, 0]  # exactly rank deficient
        b = random_batch(2, 12, 1, dtype=np.float64, seed=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            res = least_squares(a, b, fast_math=False)
        # Rank deficiency surfaces as exploding coefficients along the
        # null space (the unregularized QR solve's honest behaviour); the
        # residual stays close to the true minimum because the blow-up
        # mostly cancels in the range space -- but cancellation costs a
        # few percent, which is the signal to use a rank-revealing solve.
        assert np.abs(res.x).max() > 1e10
        ref = np.stack(
            [np.linalg.lstsq(a[i], b[i], rcond=None)[0] for i in range(2)]
        )
        ours = np.linalg.norm(a @ res.x - b, axis=1)
        best = np.linalg.norm(a @ ref - b, axis=1)
        assert (ours < 1.15 * best).all()

    def test_huge_magnitudes_qr_solve(self):
        a = diagonally_dominant_batch(2, 6, dtype=np.float64) * 1e150
        b = rhs_batch(2, 6, dtype=np.float64)[:, :, 0] * 1e150
        x = qr_solve(a, b, fast_math=False)
        assert solve_residual(a, x, b) < 1e-8

    def test_tiny_magnitudes_qr(self):
        a = random_batch(2, 6, 6, dtype=np.float64, seed=3) * 1e-150
        res = qr_factor(a, fast_math=False)
        assert np.isfinite(res.packed).all()


class TestDeviceKernelRobustness:
    def test_per_block_lu_with_poisoned_problem(self):
        from repro.kernels.device import per_block_lu

        a = poison(diagonally_dominant_batch(3, 16, dtype=np.float32))
        with np.errstate(invalid="ignore"):
            dev = per_block_lu(a)
        assert np.isfinite(dev.output[0]).all()
        assert np.isnan(dev.output[1]).any()

    def test_engine_costs_independent_of_values(self):
        # Branch-free kernels: poisoned data must not change the timing.
        from repro.kernels.device import per_block_qr

        clean = random_batch(2, 16, 16, dtype=np.float32, seed=4)
        with np.errstate(invalid="ignore"):
            dirty = per_block_qr(poison(clean))
        assert dirty.cycles == per_block_qr(clean).cycles
