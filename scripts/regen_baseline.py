#!/usr/bin/env python
"""Regenerate the checked-in CI baseline matrix artifacts.

The baseline format *is* the engine's ``matrix.json`` artifact: this
script runs a spec through ``repro.experiments`` and copies the
resulting matrix to ``benchmarks/baselines/<name>.json``.  The
simulated engine is deterministic, so a baseline generated on any
machine is valid everywhere.

Usage::

    python scripts/regen_baseline.py                 # all default baselines
    python scripts/regen_baseline.py SPEC [--out P]  # one spec

With no arguments it refreshes ``ci_baseline.json`` (from
``benchmarks/specs/ci_regression.toml``), ``ci_smoke.json`` (from
``benchmarks/specs/ci_smoke.toml``), ``paper_artefacts.json`` (the
``data`` payload of every paper artefact, as ``python -m repro export``
writes it, keyed by experiment id) and ``launch_results.json`` (the
exact :class:`~repro.gpu.simt.LaunchResult` of every ``PerBlockApproach``
and device-kernel launch in :func:`launch_results`).  See
CONTRIBUTING.md for when a refresh is appropriate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments import load_spec, run_spec  # noqa: E402
from repro.observe.export import jsonable  # noqa: E402
from repro.reporting import list_experiments, run_experiment  # noqa: E402

SPECS_DIR = REPO / "benchmarks" / "specs"
BASELINES_DIR = REPO / "benchmarks" / "baselines"

#: spec -> baseline written when the script runs with no arguments.
DEFAULTS = {
    SPECS_DIR / "ci_regression.toml": BASELINES_DIR / "ci_baseline.json",
    SPECS_DIR / "ci_smoke.toml": BASELINES_DIR / "ci_smoke.json",
}

#: Golden ``data`` of all 16 paper artefacts (checked by
#: ``tests/reporting/test_experiments.py``).
ARTEFACTS = BASELINES_DIR / "paper_artefacts.json"

#: Exact launch results of the SIMT engine (checked by
#: ``tests/gpu/test_launch_golden.py``).
LAUNCH_RESULTS = BASELINES_DIR / "launch_results.json"

#: Square ``PerBlockApproach`` sizes (records keyed ``sketch/...``): n = 1
#: and both sides of the 64/256-thread switch at 80 columns and of each
#: register-spill edge (real: from 57 and 113 columns; complex: from 41
#: and 81).
SKETCH_SIZES = (1, 8, 40, 41, 56, 57, 79, 80, 81, 112, 113, 200)
#: Tall (m, n) ``PerBlockApproach`` shapes, for QR and least squares.
TALL_SHAPES = ((96, 32), (300, 90))
#: Device cost-program sizes, n = 1 to 96 across the same edges.
DEVICE_SIZES = (1, 2, 8, 9, 40, 41, 56, 57, 80, 96)


def regen(spec_path: Path, out: Path, workers: int | None) -> None:
    spec = load_spec(spec_path)
    with tempfile.TemporaryDirectory() as tmp:
        result = run_spec(spec, tmp, workers=workers, resume=False)
        failed = [r.cell.id for r in result.records if r.status == "failed"]
        if failed:
            raise SystemExit(
                f"refusing to baseline a failing sweep; failed cells: {failed}"
            )
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(result.matrix_path, out)
    counts = result.counts
    print(
        f"{out.relative_to(REPO) if out.is_relative_to(REPO) else out}: "
        f"{len(result.cells)} cells ({counts.get('ok', 0)} ok, "
        f"{counts.get('unsupported', 0)} unsupported) from {spec_path.name}"
    )


def regen_artefacts() -> None:
    data = {eid: jsonable(run_experiment(eid).data) for eid in list_experiments()}
    ARTEFACTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"{ARTEFACTS.relative_to(REPO)}: {len(data)} artefacts")


def _exact(value):
    """``value`` as JSON that keeps every bit: floats as ``float.hex()``."""
    return value.hex() if isinstance(value, float) else value


def _pairs(mapping) -> list:
    """``mapping``'s items, in order, with exact values."""
    return [[key, _exact(value)] for key, value in mapping.items()]


def launch_record(launch) -> dict:
    """The exact, key-ordered JSON form of one ``LaunchResult``."""
    occ = launch.occupancy
    return {
        "cycles": _exact(launch.cycles),
        "breakdown": _pairs(launch.breakdown),
        "phase_totals": _pairs(launch.phase_totals),
        "flops_per_block": _exact(launch.flops_per_block),
        "counters": [
            [name, _exact(stat["total"]), stat["count"], _exact(stat["max"])]
            for name, stat in launch.counters.snapshot().items()
        ],
        "occupancy": [
            occ.threads_per_block,
            occ.registers_per_thread,
            occ.shared_bytes_per_block,
            occ.blocks_per_sm,
            occ.limiter,
        ],
        "threads": launch.threads,
    }


def _device_inputs(n: int, dtype):
    """A well-conditioned Hermitian positive-definite ``(1, n, n)`` system
    and its ``(1, n)`` right-hand side."""
    import numpy as np

    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal((n, n))
    a = (x @ x.conj().T + n * np.eye(n)).astype(dtype)[None]
    b = rng.standard_normal((1, n)).astype(dtype)
    return a, b


def device_launches():
    """``(key, launch)`` of every per-block device kernel at
    :data:`DEVICE_SIZES`, in all four dtypes."""
    import numpy as np

    from repro.kernels import device

    per_block = sorted(
        (info for info in device.KERNELS if info.family == "per_block"),
        key=lambda info: info.op,
    )
    for dtype in (np.float32, np.float64, np.complex64, np.complex128):
        for n in DEVICE_SIZES:
            a, b = _device_inputs(n, dtype)
            for info in per_block:
                key = f"device/{info.op}/{np.dtype(dtype).name}/{n}x{n}"
                yield key, info.call(a, b).launch


def launch_results() -> dict:
    """Every golden launch: ``PerBlockApproach`` launches (records keyed
    ``sketch/...``) and the device kernels' launches, their cost programs
    run step by step under :func:`block_engine_factory`."""
    from repro.approaches import PerBlockApproach, Workload
    from repro.gpu.simt import BlockEngine
    from repro.kernels.device.base import block_engine_factory

    out = {}
    for fast_math in (True, False):
        approach = PerBlockApproach(fast_math=fast_math)
        for kind in ("qr", "lu", "gauss_jordan", "least_squares"):
            for complex_dtype in (False, True):
                for m, n in [(n, n) for n in SKETCH_SIZES] + list(TALL_SHAPES):
                    work = Workload(kind, m, n, 1, complex_dtype)
                    if not approach.supports(work):
                        continue
                    key = (
                        f"sketch/{kind}/{'complex' if complex_dtype else 'real'}/"
                        f"{'fast' if fast_math else 'precise'}/{m}x{n}"
                    )
                    out[key] = launch_record(approach.launch(work))
    with block_engine_factory(BlockEngine):
        out.update((key, launch_record(launch)) for key, launch in device_launches())
    return out


def regen_launch_results() -> None:
    data = launch_results()
    lines = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in data.items())
    LAUNCH_RESULTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{LAUNCH_RESULTS.relative_to(REPO)}: {len(data)} launches")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "spec",
        type=Path,
        nargs="?",
        default=None,
        help="spec to run (default: regenerate every default baseline)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="baseline path (default: benchmarks/baselines/<spec name>.json)",
    )
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    if args.spec is None:
        if args.out is not None:
            parser.error("--out requires an explicit spec")
        for spec_path, out in DEFAULTS.items():
            regen(spec_path, out, args.workers)
        regen_artefacts()
        regen_launch_results()
        return 0

    out = args.out
    if out is None:
        out = BASELINES_DIR / (load_spec(args.spec).name + ".json")
    regen(args.spec, out, args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
