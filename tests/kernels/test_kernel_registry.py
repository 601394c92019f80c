"""The device-kernel table: coverage, and generic tests over every entry."""

from typing import get_args

import numpy as np
import pytest

from repro.approaches.base import Kind
from repro.experiments.spec import OPS
from repro.kernels import device
from repro.kernels.device import KERNELS, per_thread
from repro.model.per_block_model import COUNT_KINDS
from repro.runtime import supported_ops

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def _ids(info):
    return info.name


def test_coverage():
    per_block = {info.name: info for info in KERNELS if info.family == "per_block"}
    exposed = {
        name
        for name, obj in vars(device).items()
        if name.startswith("per_block_") and callable(obj)
    }
    assert exposed == set(per_block), "every per_block_* kernel needs an entry"
    for name, info in per_block.items():
        assert info.kernel is getattr(device, name)
    per_thread_ops = [info.op for info in KERNELS if info.family == "per_thread"]
    assert sorted(per_thread_ops) == sorted(get_args(per_thread.Kind))
    assert {info.family for info in KERNELS} == {"per_block", "per_thread"}
    assert len({info.name for info in KERNELS}) == len(KERNELS)

    assert sorted(info.op for info in per_block.values()) == sorted(COUNT_KINDS)
    runtime = [info for info in KERNELS if info.runtime]
    assert sorted(info.op for info in runtime) == supported_ops()
    assert all(info.family == "per_block" for info in runtime)
    assert set(OPS) == {*supported_ops(), *get_args(Kind)}


def _inputs(info, n, dtype, batch=7):
    """``info``'s samples in ``dtype``.

    Complex samples get a unitary diagonal scaling ``D a D^H`` (and
    ``D b``): every entry turns genuinely complex while its magnitude --
    and with it diagonal dominance and definiteness -- stays put.
    """
    a, b = info.sample(n, 100 + n, batch)
    if np.dtype(dtype).kind == "c":
        m = a.shape[1]
        d = np.exp(1j * np.linspace(0.3, 2.9, m))
        a = d[:, None] * a * d[:n].conj()
        if b is not None:
            b = d.reshape((m,) + (1,) * (b.ndim - 2)) * b
    return a.astype(dtype), None if b is None else b.astype(dtype)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@pytest.mark.parametrize("n", [3, 8, 13])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("info", KERNELS, ids=_ids)
def test_batched_vs_single(info, dtype, n):
    a, b = _inputs(info, n, dtype)
    batched = info.call(a, b)
    # Clean samples: the slots compared are real factors, not NaN.
    assert info.detector(batched.output, batched.extra) == {}
    for i in range(len(a)):
        single = info.call(a[i : i + 1], None if b is None else b[i : i + 1])
        assert _bits(batched.output[i]) == _bits(single.output[0]), i
        assert _bits(batched.extra[i]) == _bits(single.extra[0]), i
