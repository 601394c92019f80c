"""Numerical quarantine: per-problem failures instead of batch failures.

At production scale one singular matrix in a 4096-problem batch must not
cost the launch.  The device kernels already run breakdown-tolerant --
an exactly-zero pivot is where-protected and flagged rather than
raised -- so the runtime's job is to *surface* those flags per problem:
after the chunks complete, each outcome is scanned with its kernel's
breakdown detector (its :attr:`~repro.kernels.device.KernelInfo.detector`),
failing slots are masked to NaN in the merged output, and a structured
:class:`ProblemFailure` record (op, group, batch index, reason) lands on
``BatchReport.failures``.  The runtime scans each chunk as it lands in
the launch's result (:func:`quarantine_chunk`), while the other chunks
are still running, so the scan is not part of the merge.

The failure-free path is untouched bit for bit: detectors are pure
reads, and masking copies nothing unless a breakdown was actually found.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["ProblemFailure", "quarantine_chunk", "quarantine_outcomes", "scan_output"]


@dataclasses.dataclass(frozen=True)
class ProblemFailure:
    """One quarantined problem of a batch."""

    #: Kernel name the problem ran under.
    op: str
    #: Group index within the :class:`~repro.runtime.sharding.ProblemBatch`.
    group: int
    #: Batch index *within the group* (i.e. indexes ``group.data``).
    index: int
    #: Machine-readable breakdown reason (``zero-pivot``,
    #: ``not-positive-definite``, ``non-finite``...).
    reason: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return f"{self.op}[group {self.group}, problem {self.index}]: {self.reason}"


def scan_output(op: str, output: np.ndarray, extra) -> Dict[int, str]:
    """Per-problem breakdown reasons for one chunk's raw kernel result.

    Dispatches to the runtime kernel's detector; unknown ops fall back
    to a non-finite scan (a factorization that produced Inf/NaN is
    unusable whatever the algorithm was).
    """
    from ..kernels.device.registry import RUNTIME_KERNELS, nonfinite_breakdowns

    info = RUNTIME_KERNELS.get(op)
    detector = nonfinite_breakdowns if info is None else info.detector
    return detector(output, extra)


def _mask(op: str, chunk, output: np.ndarray, found: Dict[int, str]):
    """NaN-mask the ``found`` problems of ``output``; their records."""
    failures: List[ProblemFailure] = []
    for local_index in sorted(found):
        output[local_index] = np.nan
        failures.append(
            ProblemFailure(
                op=op,
                group=chunk.group,
                index=chunk.start + local_index,
                reason=found[local_index],
            )
        )
    return failures


def quarantine_chunk(op: str, chunk, output: np.ndarray, extra) -> List[ProblemFailure]:
    """Scan one chunk's rows of a launch result and mask its breakdowns.

    ``output``/``extra`` are the chunk's (writable) rows of its group's
    result; failing problems are NaN-masked there, in place.  Returns
    their records in batch order.
    """
    return _mask(op, chunk, output, scan_output(op, output, extra))


def quarantine_outcomes(
    batch, chunks: Sequence, outcomes: Sequence
) -> List[ProblemFailure]:
    """Scan, mask, and report breakdowns across a launch's outcomes.

    ``chunks`` and ``outcomes`` are the parallel submission-order
    sequences :func:`~repro.runtime.merge.merge_outcomes` consumes.
    Failing slots are NaN-masked *in place* on the outcome arrays, so
    the merge copies the masked bytes without a second pass.  Returns
    the failure records in (group, index) order.
    """
    failures: List[ProblemFailure] = []
    for chunk, outcome in zip(chunks, outcomes):
        op = batch.groups[chunk.group].op
        found = scan_output(op, outcome.output, outcome.extra)
        if found and not outcome.output.flags.writeable:
            outcome.output = np.array(outcome.output, copy=True)
        failures.extend(_mask(op, chunk, outcome.output, found))
    failures.sort(key=lambda f: (f.group, f.index))
    return failures
