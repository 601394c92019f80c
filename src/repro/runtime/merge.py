"""Deterministic merge of per-chunk results into one launch report.

Workers return :class:`ChunkOutcome` records in whatever order they
finish.  Each chunk's output lands in its rows of its group's result
(:class:`LaunchResults`) as it completes, so the result does not depend
on the order; everything else -- folded counter registries, replayed
trace events -- is consumed **in submission (chunk-index) order**, so
it is identical whether the plan ran serially, on 2 workers, or on 4.
Counter folding is plain addition in that fixed order (see
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

__all__ = [
    "BatchReport",
    "ChunkOutcome",
    "GroupResult",
    "LaunchResults",
    "merge_outcomes",
]


@dataclasses.dataclass
class ChunkOutcome:
    """Everything one chunk execution ships back to the launch process."""

    #: The chunk's rows of the kernel output; ``None`` as a pooled chunk
    #: crosses back (its output is in its arena slot).
    output: Optional[np.ndarray]
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
    #: the output left the kernel; the supervisor verifies it where the
    #: output arrives (a pooled chunk's arena slot) to catch transport
    #: corruption (``None`` skips the check).
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


class LaunchResults:
    """One launch's per-group result arrays, filled as its chunks land.

    A group of one chunk takes that chunk's arrays as they are: the
    kernel's own output, never copied, unless it is read-only (a pooled
    chunk's arena slot, which the next launch reuses, or a journaled
    array).  A group of several chunks gets one array (and one ``extra``
    array) per launch, made when its first chunk lands; every landing
    copies its chunk into its rows.
    """

    def __init__(self, batch: ProblemBatch) -> None:
        self.batch = batch
        self.outputs: list = [None] * len(batch.groups)
        self.extras: list = [None] * len(batch.groups)
        #: Groups with a chunk that returned no ``extra``: they have none.
        self._no_extra: set[int] = set()

    def land(
        self, chunk: Chunk, output: np.ndarray, extra: Optional[np.ndarray]
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Place one chunk's arrays in its group's result; return its rows."""
        group = chunk.group
        if extra is None:
            self._no_extra.add(group)
        total = self.batch.groups[group].batch
        if chunk.problems == total:
            if not output.flags.writeable:  # kept, and masked in place
                output = np.array(output, copy=True)
            self.outputs[group], self.extras[group] = output, extra
            return output, extra
        rows = slice(chunk.start, chunk.stop)
        self.outputs[group] = _fill(self.outputs[group], total, rows, output)
        if extra is not None:
            self.extras[group] = _fill(self.extras[group], total, rows, extra)
            extra = self.extras[group][rows]
        return self.outputs[group][rows], extra

    def extra(self, group: int) -> Optional[np.ndarray]:
        return None if group in self._no_extra else self.extras[group]


def _fill(result, total: int, rows: slice, part: np.ndarray) -> np.ndarray:
    if result is None:
        result = np.empty((total,) + part.shape[1:], dtype=part.dtype)
    result[rows] = part
    return result


def merge_outcomes(
    batch: ProblemBatch,
    chunks: Sequence[Chunk],
    outcomes: Sequence[ChunkOutcome],
    workers: int,
    mode: str,
    wall_s: float,
    results: Optional[LaunchResults] = None,
) -> BatchReport:
    """Fold per-chunk outcomes into a :class:`BatchReport`.

    ``chunks`` and ``outcomes`` are parallel sequences in submission
    order.  ``results`` holds the outputs the launch already landed
    chunk by chunk; without it, each outcome's arrays land here, in
    fresh result arrays.
    """
    if len(chunks) != len(outcomes):
        raise ValueError(f"{len(chunks)} chunks but {len(outcomes)} outcomes")
    if results is None:
        results = LaunchResults(batch)
        for chunk, outcome in zip(chunks, outcomes):
            results.land(chunk, outcome.output, outcome.extra)
    counters = CounterRegistry()
    per_group: dict[int, list[tuple[Chunk, ChunkOutcome]]] = {}
    for chunk, outcome in zip(chunks, outcomes):
        if outcome.launch.counters is not None:
            counters.merge(outcome.launch.counters)
        per_group.setdefault(chunk.group, []).append((chunk, outcome))

    groups: list[GroupResult] = []
    for gi, group in enumerate(batch.groups):
        members = per_group.get(gi, [])
        if not members:
            raise ValueError(f"group {gi} received no chunk outcomes")
        covered = sum(c.problems for c, _ in members)
        if covered != group.batch:
            raise ValueError(f"group {gi} covered {covered}/{group.batch} problems")
        groups.append(
            GroupResult(
                op=group.op,
                output=results.outputs[gi],
                extra=results.extra(gi),
                launch=members[0][1].launch,
                problems=group.batch,
                chunks=len(members),
            )
        )
    return BatchReport(
        results=groups,
        counters=counters,
        chunks=len(chunks),
        workers=workers,
        mode=mode,
        wall_s=wall_s,
    )
