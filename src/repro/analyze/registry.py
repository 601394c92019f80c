"""The analysis case list: every device kernel at three sizes.

One :class:`CostCase` per entry of :data:`repro.kernels.device.KERNELS`
at each size, seeded ``100 + n``.  ``python -m repro.analyze sanitize``
race-checks every case (:func:`run_sweep`) and ``costcheck`` certifies
every case, so the kernel surface CI race-checks and the surface it
cost-certifies are one list.  Each case's ``run(batch, seed)`` launches
the kernel on fresh seeded samples, so the sanitizer sweep is
deterministic run-to-run and the certifier's abstract interpreter can
execute independent witnesses.

The per-thread kernels never touch shared memory (one problem per
thread, registers only), so the sweep reports them as ``report: None``
and trivially clean.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, Optional, Sequence

__all__ = [
    "CostCase",
    "UnknownCaseError",
    "cost_cases",
    "run_sweep",
    "select_cases",
]

#: Matrix sizes covering a single panel (4), the Figure 8 sweet spot
#: (8), and a ragged multi-panel shape (13).
_SIZES = (4, 8, 13)
#: Problems per sanitizer launch.
_BATCH = 4


class UnknownCaseError(ValueError):
    """A requested kernel/case name is not in the case list."""


@dataclasses.dataclass(frozen=True)
class CostCase:
    """One kernel at one launch shape."""

    name: str
    op: str
    family: str  # "per_block" | "per_thread"
    m: int
    n: int
    seed: int
    #: ``run(batch, seed)`` executes the kernel on a fresh witness input.
    run: Callable[[int, int], object]

    @property
    def key(self) -> str:
        return f"{self.name}[{self.m}x{self.n}]"


def _launch(info, n: int, batch: int, seed: int):
    return info.call(*info.sample(n, seed, batch))


def cost_cases() -> List[CostCase]:
    """Every (kernel, shape) pair the sanitize and costcheck CLIs run."""
    from ..kernels.device.registry import KERNELS

    return [
        CostCase(
            name=info.name,
            op=info.op,
            family=info.family,
            m=info.shape(n)[0],
            n=n,
            seed=100 + n,
            run=functools.partial(_launch, info, n),
        )
        for n in _SIZES
        for info in KERNELS
    ]


def select_cases(
    names: Optional[Sequence[str]] = None, cases: Optional[List[CostCase]] = None
) -> List[CostCase]:
    """Filter the case list by kernel name or ``kernel[MxN]`` key.

    Raises :class:`UnknownCaseError` (the CLI's exit-2 spec error) when a
    requested name matches nothing.
    """
    pool = cases if cases is not None else cost_cases()
    if not names:
        return pool
    known = {c.name for c in pool} | {c.key for c in pool}
    missing = [name for name in names if name not in known]
    if missing:
        raise UnknownCaseError(
            f"unknown case(s): {', '.join(missing)}; known kernels: "
            + ", ".join(sorted({c.name for c in pool}))
        )
    return [c for c in pool if c.name in names or c.key in names]


def run_sweep(cases: Optional[List[CostCase]] = None) -> List[dict]:
    """Run the sweep under the sanitizer; one result dict per case.

    Each dict carries ``kernel``, ``shape``, ``ok``, and either the full
    report (``hazards``, ``syncs``, ``redundant_syncs``, ...) or
    ``report: None`` for shared-memory-free kernels.
    """
    from .sanitizer import sanitizing

    results: List[dict] = []
    for case in cases if cases is not None else cost_cases():
        with sanitizing(True):
            result = case.run(_BATCH, case.seed)
        report = result.launch.sanitizer if case.family == "per_block" else None
        entry = {"kernel": case.name, "shape": f"{case.m}x{case.n}"}
        if report is None:
            entry.update(ok=True, report=None)
        else:
            entry.update(
                ok=report.ok and report.redundant_syncs == 0,
                report=report.to_dict(),
            )
        results.append(entry)
    return results
