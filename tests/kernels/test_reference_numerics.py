"""The batched LU and Householder sweeps, byte for byte against references.

``batch_first_reference`` keeps the batch-first column loops; the
library sweeps a batch-innermost copy.  Both must give the same bits
for every factor, flag, tau and solution, on clean and adversarial
inputs, and every slot must also equal its own batch-1 run.  Both
comparisons exempt one thing: the sign and payload of a NaN.  A slot
that meets an Inf takes its NaNs from whichever SIMD or scalar loop
NumPy runs for that layout and batch size, so the adversarial property
makes each NaN the canonical ``np.nan`` on both sides; every other bit,
and where the NaNs are, stays strict.  The runtime's quarantine
overwrites such slots with one canonical NaN anyway.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels.batched import least_squares, lu_factor, qr_factor
from repro.kernels.batched.qr import qr_solve_with_taus
from repro.tiled.tile_kernels import geqrt

from . import batch_first_reference as ref

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
#: Slot kinds: a Gaussian slot, or one with a planted hazard.
SLOTS = ("plain", "signed_zeros", "zero_column", "duplicate_column", "inf", "nan")


def _draw(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _plant(rng, slot, kind):
    """Plant ``kind`` into one ``(m, n)`` slot, in place."""
    m, n = slot.shape
    col = rng.integers(n)
    if kind == "signed_zeros":
        slot[rng.random((m, n)) < 0.4] = 0.0
        slot[rng.random((m, n)) < 0.4] = -0.0
    elif kind == "zero_column":
        slot[:, col] = 0
    elif kind == "duplicate_column":
        slot[:, col] = slot[:, rng.integers(n)]
    elif kind in ("inf", "nan"):
        slot[rng.integers(m), col] = -np.inf if kind == "inf" else np.nan


def _library(a, b, fast_math):
    """Every output of the four routines under test, by routine."""
    n = a.shape[2]
    with np.errstate(all="ignore"):
        lu = lu_factor(a[:, :n], fast_math)
        qr = qr_factor(a, fast_math)
        lstsq = least_squares(a, b, fast_math)
        return {
            "lu": (lu.lu, lu.not_solved),
            "qr": (qr.packed, qr.taus),
            "qr_solve": qr_solve_with_taus(a, b, fast_math),
            "least_squares": (lstsq.x, lstsq.residual_norms),
        }


def _reference(a, b, fast_math):
    """The same outputs from the batch-first references."""
    n = a.shape[2]
    with np.errstate(all="ignore"):
        return {
            "lu": ref.lu_factor(a[:, :n], fast_math),
            "qr": ref.qr_factor(a, fast_math),
            "qr_solve": ref.qr_solve_with_taus(a, b, fast_math),
            "least_squares": ref.least_squares(a, b, fast_math),
        }


def _assert_same_bits(got, want):
    """Each output equals its counterpart byte for byte; name the slots
    that differ when one does not."""
    for name in want:
        for k, (x, y) in enumerate(zip(got[name], want[name], strict=True)):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), (name, k)
            if x.tobytes() != y.tobytes():
                slots = [i for i in range(len(x)) if x[i].tobytes() != y[i].tobytes()]
                raise AssertionError(f"{name} output {k}: slots {slots} differ")


def _nan_blind(outputs):
    """Every output with each NaN made the canonical ``np.nan``."""
    return {
        name: [_canonical_nans(x) for x in arrays] for name, arrays in outputs.items()
    }


def _slot(outputs, i):
    """Slot ``i`` of every output, as a batch of one."""
    return {name: [x[i : i + 1] for x in arrays] for name, arrays in outputs.items()}


def _canonical_nans(x):
    x = np.array(x)
    if x.dtype.kind in "fc":
        parts = x.view(x.real.dtype)
        parts[np.isnan(parts)] = np.nan
    return x


class TestReferenceBits:
    @given(
        dtype=st.sampled_from(DTYPES),
        fast_math=st.booleans(),
        n=st.integers(min_value=1, max_value=40),
        extra_rows=st.integers(min_value=0, max_value=4),
        slots=st.lists(st.sampled_from(SLOTS), min_size=1, max_size=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(  # slot 7's NaNs take opposite signs in the two LU loops
        dtype=np.complex128,
        fast_math=True,
        n=21,
        extra_rows=0,
        slots=[
            "plain",
            "plain",
            "signed_zeros",
            "duplicate_column",
            "duplicate_column",
            "duplicate_column",
            "duplicate_column",
            "inf",
            "plain",
        ],
        seed=1766,
    )
    def test_equals_reference_and_batch_of_one(
        self, dtype, fast_math, n, extra_rows, slots, seed
    ):
        rng = np.random.default_rng(seed)
        batch, m = len(slots), n + extra_rows
        a = _draw(rng, (batch, m, n), dtype)
        for slot, kind in zip(a, slots):
            _plant(rng, slot, kind)
        b = _draw(rng, (batch, m), dtype)

        batched = _nan_blind(_library(a, b, fast_math))
        _assert_same_bits(batched, _nan_blind(_reference(a, b, fast_math)))
        for i in range(batch):
            single = _library(a[i : i + 1], b[i : i + 1], fast_math)
            _assert_same_bits(_slot(batched, i), _nan_blind(single))

    @pytest.mark.parametrize("n", [17, 33])
    @pytest.mark.parametrize("fast_math", [True, False])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_full_vector_batches(self, dtype, fast_math, n):
        # 64 problems fill whole SIMD registers along the batch axis.
        rng = np.random.default_rng(n)
        a = _draw(rng, (64, n + 4, n), dtype)
        b = _draw(rng, (64, n + 4), dtype)
        _assert_same_bits(_library(a, b, fast_math), _reference(a, b, fast_math))

    @pytest.mark.parametrize("batch", [1, 5])
    def test_caller_array_is_untouched(self, batch):
        # The sweeps work on private copies; the tile kernels hand the
        # caller's tile straight to the Householder sweep.
        a = _draw(np.random.default_rng(3), (batch, 9, 9), np.complex64)
        kept = a.copy()
        lu = lu_factor(a)
        qr = qr_factor(a)
        geqrt(a)
        assert a.tobytes() == kept.tobytes()
        assert lu.lu.flags.c_contiguous and qr.packed.flags.c_contiguous
        assert lu.lu.shape == qr.packed.shape == (batch, 9, 9)
