"""Critical-path profiler: cross-process span trees over the tracer.

The paper's whole argument is a latency decomposition -- Eq. 1/Eq. 2
split a kernel's time into message latency, bandwidth, sync, and FLOP
terms.  This module applies the same discipline to the *runtime*: every
traced batch run emits a causally-linked span tree

``batch -> {plan, execute -> chunk[i] -> {submit[k], attempt[k]}, merge}``

with explicit ``span_id``/``parent_id`` edges, worker-side attempt spans
aligned onto the launch timeline via the tracer's clock-origin handshake
(:meth:`repro.observe.tracer.Tracer.ingest` with ``clock=``), and -- on
top of the tree -- three consumers:

* :func:`compute_profile` -- a :class:`BatchProfile`: the wall-clock
  **latency decomposition** (``plan`` / ``serialize`` / ``queue`` /
  ``compute`` / ``transfer`` / ``merge`` / ``other``, summing to the
  batch wall by construction), per-worker utilization, and the
  **straggler index** (max / median chunk compute time);
* :func:`critical_path` -- the chain of spans (and synthesized
  queue/transfer gaps) that determined the batch wall time;
* :func:`collapsed_stacks` / :func:`flow_events` -- flamegraph text
  (collapsed-stack format) and Chrome ``trace_event`` flow arrows
  linking each chunk's submit -> worker attempt -> completion.

Everything here is **pay-for-use**: span emission happens only when a
tracer is active *and* profiling is enabled (:func:`profiling_enabled`,
``REPRO_PROFILE=0`` to veto), so the untraced hot path keeps its single
``None`` check.  Profile spans are ordinary :class:`Event` records of
category ``"profile"`` stamped in real seconds on the tracer's
:meth:`~repro.observe.tracer.Tracer.now` clock -- they coexist with the
engine's simulated-cycle events and survive the Chrome trace round trip,
which is what lets ``python -m repro.observe.timeline`` rebuild the tree
from a trace file alone.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .log import env_switch
from .tracer import Event, Tracer

__all__ = [
    "PROFILE_CATEGORY",
    "PHASES",
    "BatchProfile",
    "CriticalStep",
    "ProfileEmitter",
    "SpanNode",
    "build_span_trees",
    "collapsed_stacks",
    "compute_profile",
    "critical_path",
    "flow_events",
    "profiling_enabled",
    "set_profiling_enabled",
]

#: Trace-event category profile spans are emitted (and filtered) under.
PROFILE_CATEGORY = "profile"

#: Decomposition phases, in timeline order.  ``plan`` and ``merge`` are
#: their spans; ``serialize``/``queue``/``compute``/``transfer`` classify
#: every instant of the execute window by what gated it (see
#: :func:`compute_profile`); ``other`` is the residual (supervisor
#: slack, idle gaps) so the phases sum to the batch wall exactly.
PHASES = ("plan", "serialize", "queue", "compute", "transfer", "merge", "other")

_enabled = env_switch("REPRO_PROFILE", default=True)


def profiling_enabled() -> bool:
    """Whether traced runs emit profile spans (on by default)."""
    return _enabled


def set_profiling_enabled(flag: bool) -> bool:
    """Toggle profile-span emission; returns the previous setting.

    Also settable at import time with ``REPRO_PROFILE=0``.  This gates
    *emission only* -- consumers still work on any trace that already
    holds profile events.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


class ProfileEmitter:
    """Scoped emitter of profile spans onto one tracer.

    The runtime builds one per traced batch (``scope`` is the batch's
    span id, e.g. ``"batch:3"``) and threads it through the supervisor;
    a ``None`` emitter is the disabled path everywhere.  Span ids are
    deterministic paths under the scope (``batch:3/chunk:7/submit:0``),
    so serial and sharded runs of the same plan produce structurally
    identical trees.
    """

    __slots__ = ("tracer", "scope")

    def __init__(self, tracer: Tracer, scope: str) -> None:
        self.tracer = tracer
        self.scope = scope

    def now(self) -> float:
        return self.tracer.now()

    def at(self, perf_ts: float) -> float:
        """A raw :func:`time.perf_counter` stamp on this profile clock."""
        return perf_ts - self.tracer.origin.perf

    def span_id(self, *parts: str) -> str:
        return "/".join((self.scope,) + parts)

    def emit(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        *,
        span_id: str,
        parent_id: Optional[str],
        **args: Any,
    ) -> None:
        """Record one finished profile span with explicit tree edges."""
        if end is None:
            end = self.tracer.now()
        payload = dict(args)
        payload["span_id"] = span_id
        if parent_id is not None:
            payload["parent_id"] = parent_id
        self.tracer.complete(
            name,
            PROFILE_CATEGORY,
            ts=start,
            dur=max(0.0, end - start),
            **payload,
        )


# ----------------------------------------------------------------------
# Span tree reconstruction
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpanNode:
    """One profile span, linked into its batch tree."""

    span_id: str
    name: str
    start: float
    dur: float
    parent_id: Optional[str]
    args: Dict[str, Any]
    children: List["SpanNode"] = dataclasses.field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.dur

    def walk(self):
        """This node and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["SpanNode"]:
        """First descendant (or self) with ``name``, depth first."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def signature(self) -> tuple:
        """Structure-only view: ``(name, sorted child signatures)``.

        Timing, worker pids, and span ids are erased, so a serial and a
        sharded execution of the same chunk plan compare equal.
        """
        return (self.name, tuple(sorted(c.signature() for c in self.children)))


def build_span_trees(
    events: Iterable[Event], scope: Optional[str] = None
) -> List[SpanNode]:
    """Reconstruct span trees from profile events.

    Keeps complete (``"X"``) events of category ``"profile"`` whose args
    carry a ``span_id``; with ``scope``, only spans under that batch id.
    Returns the roots (spans whose parent is absent), each with children
    sorted by ``(start, span_id)``.  Orphans -- a ``parent_id`` naming a
    span that never arrived (ring-buffer overflow) -- become roots too,
    so a truncated trace degrades visibly instead of crashing.
    """
    nodes: Dict[str, SpanNode] = {}
    for ev in events:
        if ev.ph != "X" or ev.category != PROFILE_CATEGORY or not ev.args:
            continue
        span_id = ev.args.get("span_id")
        if not isinstance(span_id, str):
            continue
        if scope is not None and not (
            span_id == scope or span_id.startswith(scope + "/")
        ):
            continue
        nodes[span_id] = SpanNode(
            span_id=span_id,
            name=ev.name,
            start=float(ev.ts),
            dur=float(ev.dur),
            parent_id=ev.args.get("parent_id"),
            args=dict(ev.args),
        )
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return roots


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CriticalStep:
    """One segment of the chain that determined the batch wall time."""

    name: str
    span_id: str
    start: float
    dur: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _last_attempt(chunk: SpanNode) -> Optional[SpanNode]:
    attempts = [c for c in chunk.children if c.name == "attempt"]
    return max(attempts, key=lambda a: a.end) if attempts else None


def _chunk_index(chunk: SpanNode) -> int:
    try:
        return int(chunk.args.get("chunk", -1))
    except (TypeError, ValueError):
        return -1


def critical_path(root: SpanNode) -> List[CriticalStep]:
    """The span chain that determined ``root``'s end time.

    For a batch tree this is ``plan -> (critical chunk: submit, queue,
    attempt, transfer) -> merge`` where the critical chunk is the one
    whose completion gated the execute window; ``queue`` and ``transfer``
    are synthesized from the measured gaps submit-end -> attempt-start
    and attempt-end -> chunk-end.  For an unfamiliar tree it falls back
    to repeatedly descending into the child that finished last.
    """
    execute = root.find("execute")
    chunks = (
        [c for c in execute.children if c.name == "chunk"] if execute else []
    )
    if not chunks:
        return _generic_critical_path(root)

    steps: List[CriticalStep] = []
    plan = next((c for c in root.children if c.name == "plan"), None)
    if plan is not None:
        steps.append(CriticalStep("plan", plan.span_id, plan.start, plan.dur))
    winner = max(chunks, key=lambda c: (c.end, c.start))
    submits = sorted(
        (c for c in winner.children if c.name == "submit"),
        key=lambda c: c.start,
    )
    attempt = _last_attempt(winner)
    if submits:
        last_submit = submits[-1]
        steps.append(
            CriticalStep(
                "submit", last_submit.span_id, last_submit.start, last_submit.dur
            )
        )
        if attempt is not None and attempt.start > last_submit.end:
            steps.append(
                CriticalStep(
                    "queue",
                    winner.span_id + "/queue",
                    last_submit.end,
                    attempt.start - last_submit.end,
                )
            )
    if attempt is not None:
        steps.append(
            CriticalStep("attempt", attempt.span_id, attempt.start, attempt.dur)
        )
        if winner.end > attempt.end:
            steps.append(
                CriticalStep(
                    "transfer",
                    winner.span_id + "/transfer",
                    attempt.end,
                    winner.end - attempt.end,
                )
            )
    else:
        steps.append(
            CriticalStep("chunk", winner.span_id, winner.start, winner.dur)
        )
    merge = next((c for c in root.children if c.name == "merge"), None)
    if merge is not None:
        steps.append(CriticalStep("merge", merge.span_id, merge.start, merge.dur))
    return steps


def _generic_critical_path(root: SpanNode) -> List[CriticalStep]:
    steps = [CriticalStep(root.name, root.span_id, root.start, root.dur)]
    node = root
    while node.children:
        node = max(node.children, key=lambda c: (c.end, c.start))
        steps.append(CriticalStep(node.name, node.span_id, node.start, node.dur))
    return steps


# ----------------------------------------------------------------------
# Latency decomposition
# ----------------------------------------------------------------------
@dataclasses.dataclass
class BatchProfile:
    """Latency decomposition of one traced batch run.

    ``phases`` maps every name in :data:`PHASES` to seconds on the
    launch timeline; they sum to ``wall_s`` by construction (``other``
    is the measured residual).  ``chunk_walls``/``chunk_queues`` are per
    chunk index; ``worker_busy_s`` is attempt time summed per worker
    pid over the execute window.
    """

    wall_s: float
    phases: Dict[str, float]
    critical_path: List[CriticalStep]
    chunk_walls: Dict[int, float]
    chunk_queues: Dict[int, float]
    worker_busy_s: Dict[int, float]
    execute_s: float
    attempts: int
    scope: str = ""

    @property
    def straggler_index(self) -> float:
        """Max over median chunk compute time (1.0 = perfectly even)."""
        walls = [w for w in self.chunk_walls.values() if w > 0.0]
        if not walls:
            return 1.0
        median = statistics.median(walls)
        return max(walls) / median if median > 0 else 1.0

    @property
    def queue_share(self) -> float:
        """Chunk time spent queued, as a share of queued + computing."""
        queued = sum(self.chunk_queues.values())
        busy = sum(self.chunk_walls.values())
        total = queued + busy
        return queued / total if total > 0 else 0.0

    @property
    def utilization(self) -> Dict[int, float]:
        """Per-worker busy share of the execute window."""
        if self.execute_s <= 0:
            return {pid: 0.0 for pid in self.worker_busy_s}
        return {
            pid: min(1.0, busy / self.execute_s)
            for pid, busy in sorted(self.worker_busy_s.items())
        }

    @property
    def coverage(self) -> float:
        """Share of the wall attributed to a named (non-``other``) phase."""
        if self.wall_s <= 0:
            return 0.0
        named = sum(v for k, v in self.phases.items() if k != "other")
        return named / self.wall_s

    def phase_shares(self) -> Dict[str, float]:
        """Each phase as a fraction of the wall (0 when wall is 0)."""
        if self.wall_s <= 0:
            return {k: 0.0 for k in self.phases}
        return {k: v / self.wall_s for k, v in self.phases.items()}

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "wall_s": self.wall_s,
            "phases": dict(self.phases),
            "phase_shares": self.phase_shares(),
            "critical_path": [s.to_dict() for s in self.critical_path],
            "chunk_walls": {str(k): v for k, v in sorted(self.chunk_walls.items())},
            "chunk_queues": {
                str(k): v for k, v in sorted(self.chunk_queues.items())
            },
            "worker_utilization": {
                str(k): v for k, v in self.utilization.items()
            },
            "execute_s": self.execute_s,
            "attempts": self.attempts,
            "straggler_index": self.straggler_index,
            "queue_share": self.queue_share,
            "coverage": self.coverage,
        }

    def summary(self) -> dict:
        """Compact record for run history / drift detection."""
        return {
            "phases": dict(self.phases),
            "wall_s": self.wall_s,
            "straggler_index": self.straggler_index,
            "queue_share": self.queue_share,
            "coverage": self.coverage,
        }


def _interval_active(intervals: List[Tuple[float, float]], a: float, b: float) -> bool:
    return any(s < b and e > a for s, e in intervals)


def _execute_partition(
    execute: SpanNode, chunks: List[SpanNode]
) -> Dict[str, float]:
    """Classify every instant of the execute window by what gated it.

    Sweep over the union of span boundaries: a segment counts as
    ``compute`` when any attempt is running, else ``serialize`` when the
    launch thread is submitting, else ``transfer`` when a finished
    attempt's chunk has not completed yet (result crossing back), else
    ``queue`` when a submitted chunk is waiting for a worker, else idle
    (left for the ``other`` residual).  The classification is a true
    partition, so it is exact for serial *and* overlapped execution --
    unlike a critical-chunk-only account, which strands every
    non-critical chunk's compute time in the residual.
    """
    e0, e1 = execute.start, execute.end
    submits: List[Tuple[float, float]] = []
    attempts: List[Tuple[float, float]] = []
    transfers: List[Tuple[float, float]] = []
    pending: List[Tuple[float, float]] = []
    for chunk in chunks:
        for child in chunk.children:
            if child.name == "submit":
                submits.append((child.start, child.end))
            elif child.name == "attempt":
                attempts.append((child.start, child.end))
        last = _last_attempt(chunk)
        if last is not None and chunk.end > last.end:
            transfers.append((last.end, chunk.end))
        pending.append((chunk.start, chunk.end))
    points = {e0, e1}
    for intervals in (submits, attempts, transfers, pending):
        for a, b in intervals:
            if e0 < a < e1:
                points.add(a)
            if e0 < b < e1:
                points.add(b)
    bounds = sorted(points)
    out = {"serialize": 0.0, "queue": 0.0, "compute": 0.0, "transfer": 0.0}
    for a, b in zip(bounds, bounds[1:]):
        width = b - a
        if _interval_active(attempts, a, b):
            out["compute"] += width
        elif _interval_active(submits, a, b):
            out["serialize"] += width
        elif _interval_active(transfers, a, b):
            out["transfer"] += width
        elif _interval_active(pending, a, b):
            out["queue"] += width
    return out


def compute_profile(root: SpanNode) -> BatchProfile:
    """Decompose a batch span tree into a :class:`BatchProfile`.

    The named phases partition the launch timeline: ``plan`` and
    ``merge`` are their spans, the execute window splits into
    ``serialize``/``queue``/``compute``/``transfer`` by sweeping its
    span boundaries (:func:`_execute_partition`), and ``other`` is the
    measured residual -- so the seven phases sum to the batch wall
    exactly, whether the chunks ran serially or overlapped on a pool.
    """
    wall = root.dur
    phases = {name: 0.0 for name in PHASES}
    path = critical_path(root)
    for step in path:
        if step.name == "plan":
            phases["plan"] = step.dur
        elif step.name == "merge":
            phases["merge"] = step.dur

    execute = root.find("execute")
    execute_s = execute.dur if execute is not None else 0.0
    chunk_walls: Dict[int, float] = {}
    chunk_queues: Dict[int, float] = {}
    worker_busy: Dict[int, float] = {}
    attempts = 0
    chunks = (
        [c for c in execute.children if c.name == "chunk"]
        if execute is not None
        else []
    )
    if execute is not None:
        phases.update(_execute_partition(execute, chunks))
    for chunk in chunks:
        index = _chunk_index(chunk)
        submits = sorted(
            (c for c in chunk.children if c.name == "submit"),
            key=lambda c: c.start,
        )
        attempt = _last_attempt(chunk)
        attempt_nodes = [c for c in chunk.children if c.name == "attempt"]
        attempts += len(attempt_nodes)
        for node in attempt_nodes:
            pid = node.args.get("worker", node.args.get("pid", 0))
            try:
                pid = int(pid)
            except (TypeError, ValueError):
                pid = 0
            worker_busy[pid] = worker_busy.get(pid, 0.0) + node.dur
        if attempt is not None:
            chunk_walls[index] = attempt.dur
            if submits:
                chunk_queues[index] = max(0.0, attempt.start - submits[-1].end)
            else:
                chunk_queues[index] = 0.0
        else:
            chunk_walls[index] = chunk.dur
            chunk_queues[index] = 0.0
    named = sum(phases[name] for name in PHASES if name != "other")
    phases["other"] = wall - named

    return BatchProfile(
        wall_s=wall,
        phases=phases,
        critical_path=path,
        chunk_walls=chunk_walls,
        chunk_queues=chunk_queues,
        worker_busy_s=worker_busy,
        execute_s=execute_s,
        attempts=attempts,
        scope=root.span_id,
    )


# ----------------------------------------------------------------------
# Flamegraph + Chrome flow arrows
# ----------------------------------------------------------------------
def collapsed_stacks(
    roots: Iterable[SpanNode], scale: float = 1e6
) -> str:
    """The trees in collapsed-stack (flamegraph.pl / speedscope) format.

    One ``a;b;c <value>`` line per span, where the value is the span's
    *self* time (duration minus child durations) in microseconds
    (``scale=1e6``).  Feed to any flamegraph renderer.
    """
    lines: List[str] = []

    def emit(node: SpanNode, stack: Tuple[str, ...]) -> None:
        frames = stack + (node.name,)
        self_time = node.dur - sum(c.dur for c in node.children)
        value = int(round(max(0.0, self_time) * scale))
        lines.append(";".join(frames) + f" {value}")
        for child in node.children:
            emit(child, frames)

    for root in roots:
        emit(root, ())
    return "\n".join(lines) + "\n" if lines else ""


def flow_events(events: Iterable[Event]) -> List[dict]:
    """Chrome ``trace_event`` flow arrows for every chunk's journey.

    For each chunk span with at least one submit and one attempt child,
    emits an ``s`` (start) record at the submit, a ``t`` (step) at the
    worker attempt, and an ``f`` (finish) at chunk completion -- the
    arrows that make the submit -> worker -> merge hand-off legible in
    Perfetto.  Returns plain dicts ready to append to ``traceEvents``.
    """
    arrows: List[dict] = []
    flow_id = 0
    for root in build_span_trees(events):
        execute = root.find("execute")
        if execute is None:
            continue
        for chunk in execute.children:
            if chunk.name != "chunk":
                continue
            submits = [c for c in chunk.children if c.name == "submit"]
            attempt = _last_attempt(chunk)
            if not submits or attempt is None:
                continue
            flow_id += 1
            pid = attempt.args.get("worker", attempt.args.get("pid", 0))
            common = {"cat": PROFILE_CATEGORY, "name": "chunk-flow", "pid": 0}
            arrows.append(
                dict(common, ph="s", id=flow_id, ts=float(submits[0].start), tid=0)
            )
            arrows.append(
                dict(
                    common,
                    ph="t",
                    id=flow_id,
                    ts=float(attempt.start),
                    tid=_safe_int(pid),
                )
            )
            arrows.append(
                dict(common, ph="f", bp="e", id=flow_id, ts=float(chunk.end), tid=0)
            )
    return arrows


def _safe_int(value: Any) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0
