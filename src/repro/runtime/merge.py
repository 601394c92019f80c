"""Deterministic merge of per-chunk results into one launch report.

Workers return :class:`ChunkOutcome` records in whatever order they
finish; the merge consumes them **in submission (chunk-index) order**
regardless, so every derived artifact -- concatenated outputs, folded
counter registries, replayed trace events -- is identical whether the
plan ran serially, on 2 workers, or on 4.  Counter folding is plain
addition in that fixed order (see
:meth:`repro.observe.counters.CounterRegistry.merge`), which makes the
merged totals *exactly* equal to the serial path's, not just close.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..gpu.simt import LaunchResult
from ..model.parameters import ModelParameters
from ..observe.counters import CounterRegistry
from ..observe.metrics import MetricsRegistry
from ..observe.tracer import Event
from .sharding import Chunk, ProblemBatch

__all__ = ["BatchReport", "ChunkOutcome", "GroupResult", "merge_outcomes"]


@dataclasses.dataclass
class ChunkOutcome:
    """Everything one chunk execution ships back to the launch process."""

    output: np.ndarray
    extra: Optional[np.ndarray]
    launch: LaunchResult
    wall_s: float
    #: Worker-local trace events (empty when the launch was untraced).
    events: list[Event]
    #: Worker-local tracer registry (None when untraced).
    registry: Optional[CounterRegistry]
    #: Populated by the executor with the worker's pid.
    pid: int = 0
    #: Trace events the worker's ring buffer overflowed past.
    dropped: int = 0
    #: Worker-local fleet metrics (None when metrics are disabled);
    #: folded into the launch registry in submission order.
    metrics: Optional[MetricsRegistry] = None
    #: Seconds between submission and the worker picking the chunk up
    #: (0 for inline execution); measured by the executor.
    queue_wait_s: float = 0.0
    #: Content hash of ``output``/``extra`` computed worker-side before
    #: the outcome crossed the process boundary; the supervisor verifies
    #: it to catch transport corruption (``None`` skips the check).
    checksum: Optional[str] = None
    #: The worker tracer's clock origin (``None`` when untraced) -- the
    #: handshake :meth:`repro.observe.tracer.Tracer.ingest` uses to
    #: align worker event timestamps onto the launch timeline.
    clock: Optional[object] = None


@dataclasses.dataclass
class GroupResult:
    """Merged result of one :class:`~repro.runtime.sharding.ProblemGroup`."""

    op: str
    output: np.ndarray
    extra: Optional[np.ndarray]
    #: Timing of one block -- identical for every chunk of the group
    #: (branch-free kernels account cycles once per block), so the first
    #: chunk's launch speaks for the whole group.
    launch: LaunchResult
    problems: int
    chunks: int

    @property
    def gflops(self) -> float:
        """Simulated whole-chip throughput over this group's batch."""
        return self.launch.throughput_gflops(self.problems)


@dataclasses.dataclass
class BatchReport:
    """One sharded (or serial) batch execution, merged."""

    results: list[GroupResult]
    #: Engine launch counters folded across every chunk in submission
    #: order -- exactly the serial path's totals.
    counters: CounterRegistry
    chunks: int
    workers: int
    #: ``"process"``, ``"serial"``, ``"serial-fallback"`` (a worker
    #: failure degraded the launch to in-process execution), or
    #: ``"resumed"`` (every chunk came back from a checkpoint journal).
    mode: str
    wall_s: float
    params: Optional[ModelParameters] = None
    #: Per-group :class:`~repro.observe.regime.RegimeClassification`
    #: verdicts (populated by the runtime when counters are available).
    regimes: list = dataclasses.field(default_factory=list)
    #: Quarantined problems: per-problem
    #: :class:`~repro.resilience.quarantine.ProblemFailure` records for
    #: numerical breakdowns (zero pivot, non-PSD input, non-finite
    #: output).  Their output slots are NaN-masked; the batch completes.
    failures: list = dataclasses.field(default_factory=list)
    #: Latency decomposition of this launch
    #: (:class:`~repro.observe.profile.BatchProfile`); populated by the
    #: runtime when the launch ran under an active tracer, else ``None``.
    profile: Optional[object] = None

    @property
    def problems(self) -> int:
        return sum(g.problems for g in self.results)

    @property
    def output(self) -> np.ndarray:
        """The single-group output (convenience for the common case)."""
        if len(self.results) != 1:
            raise ValueError(f"report holds {len(self.results)} groups; use .results")
        return self.results[0].output

    @property
    def extra(self) -> Optional[np.ndarray]:
        if len(self.results) != 1:
            raise ValueError(f"report holds {len(self.results)} groups; use .results")
        return self.results[0].extra

    def summary(self) -> dict:
        """Flat record for the metrics exporter."""
        return {
            "problems": self.problems,
            "chunks": self.chunks,
            "workers": self.workers,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "failures": len(self.failures),
            "groups": [
                {
                    "op": g.op,
                    "problems": g.problems,
                    "chunks": g.chunks,
                    "gflops": g.gflops,
                }
                for g in self.results
            ],
        }


def merge_outcomes(
    batch: ProblemBatch,
    chunks: Sequence[Chunk],
    outcomes: Sequence[ChunkOutcome],
    workers: int,
    mode: str,
    wall_s: float,
) -> BatchReport:
    """Fold per-chunk outcomes into a :class:`BatchReport`.

    ``chunks`` and ``outcomes`` are parallel sequences in submission
    order; chunk slices of one group are contiguous and ordered, so a
    plain concatenation restores the group's batch axis bit-for-bit.
    """
    if len(chunks) != len(outcomes):
        raise ValueError(f"{len(chunks)} chunks but {len(outcomes)} outcomes")
    counters = CounterRegistry()
    per_group: dict[int, list[tuple[Chunk, ChunkOutcome]]] = {}
    for chunk, outcome in zip(chunks, outcomes):
        if outcome.launch.counters is not None:
            counters.merge(outcome.launch.counters)
        per_group.setdefault(chunk.group, []).append((chunk, outcome))

    results: list[GroupResult] = []
    for gi, group in enumerate(batch.groups):
        members = per_group.get(gi, [])
        if not members:
            raise ValueError(f"group {gi} received no chunk outcomes")
        covered = sum(c.problems for c, _ in members)
        if covered != group.batch:
            raise ValueError(f"group {gi} covered {covered}/{group.batch} problems")
        outputs = [o.output for _, o in members]
        extras = [o.extra for _, o in members]
        results.append(
            GroupResult(
                op=group.op,
                output=outputs[0] if len(outputs) == 1 else np.concatenate(outputs),
                extra=_merge_extras(extras),
                launch=members[0][1].launch,
                problems=group.batch,
                chunks=len(members),
            )
        )
    return BatchReport(
        results=results,
        counters=counters,
        chunks=len(chunks),
        workers=workers,
        mode=mode,
        wall_s=wall_s,
    )


def _merge_extras(extras: list[Optional[np.ndarray]]) -> Optional[np.ndarray]:
    if any(e is None for e in extras):
        return None
    if len(extras) == 1:
        return extras[0]
    return np.concatenate(extras)
