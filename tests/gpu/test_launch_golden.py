"""Exact LaunchResults: the checked-in golden and trace invariance.

``benchmarks/baselines/launch_results.json`` holds every field of the
``PerBlockApproach`` launches and the device-kernel launches, floats as
``float.hex()``; ``scripts/regen_baseline.py`` writes it, running the
device kernels' cost programs step by step.  Unobserved launches fold
those programs' loops instead, and must give the same records.  The
property test drives the engine with random charge sequences and checks
that a tracer observes a launch without changing it.
"""

import importlib.util
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import QUADRO_6000, BlockEngine
from repro.kernels.device import KERNELS, base
from repro.kernels.device.base import block_engine_factory, run_program
from repro.model.block_config import BlockConfig
from repro.observe import tracing

REPO = Path(__file__).resolve().parents[2]


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "regen_baseline", REPO / "scripts" / "regen_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


def test_launch_results_match_the_golden():
    golden = json.loads(regen.LAUNCH_RESULTS.read_text())
    fresh = regen.launch_results()
    assert list(fresh) == list(golden)
    moved = [key for key in golden if fresh[key] != golden[key]]
    assert not moved, f"{len(moved)} launches moved, first: {moved[:5]}"


def test_unobserved_device_launches_match_the_golden(monkeypatch):
    """On a cold memo each device launch folds its cost program's loops."""
    monkeypatch.setattr(base, "_LAUNCHES", {})
    golden = json.loads(regen.LAUNCH_RESULTS.read_text())
    moved = [
        key
        for key, launch in regen.device_launches()
        if regen.launch_record(launch) != golden[key]
    ]
    assert not moved, f"{len(moved)} launches moved, first: {moved[:5]}"


@pytest.mark.parametrize(
    "info",
    [info for info in KERNELS if info.family == "per_block"],
    ids=lambda info: info.name,
)
@given(
    n=st.integers(1, 300),
    extra=st.integers(0, 8),
    dtype=st.sampled_from([np.float32, np.float64, np.complex64, np.complex128]),
    fast_math=st.booleans(),
    account_overhead=st.booleans(),
    threads=st.sampled_from([None, 16, 64, 256]),
)
@settings(max_examples=15, deadline=None)
def test_folded_launch_equals_step_by_step(
    info, n, extra, dtype, fast_math, account_overhead, threads
):
    """Unobserved on a cold memo, or pinned to a thread count, a launch
    folds its cost program's loops; stepping them gives the same record."""
    a, b = info.generate(n + extra if info.tall else n, n, n, 1)
    a = a.astype(dtype)
    b = None if b is None else b.astype(dtype)
    calls = []

    def recorded(*args, **options):
        calls.append((args, options))
        return run_program(*args, **options)

    with mock.patch.object(base, "_LAUNCHES", {}), mock.patch.object(
        base, "run_program", recorded
    ):
        result = info.call(a, b, fast_math=fast_math, account_overhead=account_overhead)
    ((args, options),) = calls
    folded = result.launch
    if threads is not None:
        m, cols = args[1], args[2]
        options["config"] = BlockConfig(m, cols, threads, a.dtype.kind == "c")
        folded = run_program(*args, **options)
    with block_engine_factory(BlockEngine):
        stepped = run_program(*args, **options)
    assert regen.launch_record(folded) == regen.launch_record(stepped)


_CHARGE = st.one_of(
    st.tuples(st.just("flops"), st.integers(0, 400), st.booleans()),
    st.tuples(st.just("shared"), st.integers(0, 64), st.integers(1, 4), st.booleans()),
    st.tuples(st.just("div"), st.integers(0, 3)),
    st.tuples(st.just("sqrt"), st.integers(0, 3)),
    st.tuples(st.just("sync")),
    st.tuples(st.just("global"), st.integers(0, 1 << 16)),
    st.tuples(st.just("measure")),
    st.tuples(st.just("enter"), st.sampled_from(["a", "b", "panel0:op"])),
    st.tuples(st.just("exit")),
)


def _run(events, registers, dtype, account_overhead):
    engine = BlockEngine(
        QUADRO_6000, 64, registers, dtype=dtype, account_overhead=account_overhead
    )
    engine.allocate_shared(64)
    open_phases = []
    for kind, *args in events:
        if kind == "flops":
            ops, spill = args
            engine.charge_flops(ops / 8, count_spill=spill)
        elif kind == "shared":
            words, degree, writes = args
            engine.charge_shared(words, degree=degree, writes=writes)
        elif kind == "div":
            engine.charge_div(*args)
        elif kind == "sqrt":
            engine.charge_sqrt(*args)
        elif kind == "sync":
            engine.sync()
        elif kind == "global":
            engine.charge_global(*args)
        elif kind == "measure":
            engine.charge_measurement()
        elif kind == "enter":
            open_phases.append(engine.phase(*args))
            open_phases[-1].__enter__()
        elif open_phases:
            open_phases.pop().__exit__(None, None, None)
    while open_phases:
        open_phases.pop().__exit__(None, None, None)
    return regen.launch_record(engine.result())


@given(
    events=st.lists(_CHARGE, max_size=60),
    registers=st.sampled_from([32, 90]),
    dtype=st.sampled_from([np.float32, np.float64]),
    account_overhead=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_tracing_does_not_change_a_launch(events, registers, dtype, account_overhead):
    """Spilling or not, f32 or f64, nested phases: the same bits traced."""
    untraced = _run(events, registers, dtype, account_overhead)
    with tracing():
        traced = _run(events, registers, dtype, account_overhead)
    assert traced == untraced
